import os
from pathlib import Path
from random import Random

import pytest

import slword
from slword import GF, QQ


@pytest.fixture
def rng():
    return Random(0xC0FFEE)


@pytest.fixture(params=["Q", "F11"], ids=["Q", "F11"])
def field(request):
    return QQ if request.param == "Q" else GF(11)


@pytest.fixture
def subprocess_env():
    """Environment for a `python -m slword` child: PYTHONPATH names the src
    directory this process imported slword from, whoever runs the tests."""
    return {**os.environ, "PYTHONPATH": str(Path(slword.__file__).resolve().parents[1])}
