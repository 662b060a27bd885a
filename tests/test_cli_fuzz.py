"""Fuzzing of the JSON inputs of `certify`, `verify` and `bruhat`.

Each example feeds one subcommand random JSON, raw text, or a valid input
with one structural mutation (a dropped key or list item, a value of another
type, a value wrapped in a list, an integer shifted, so that `n`, a base
index or an exponent no longer fits).  Whatever the input, `main` must return
an exit code of the documented contract, 0-4, and no exception may escape.
The oracle is left out: its inputs are integers on the command line.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from slword import GF, QQ, SLMatrix, certificate_to_json, decompose_via_sourour, matrix_to_json
from slword.cli import main


def valid_inputs(field):
    g = SLMatrix(field, [[1, 2], [1, 3]])
    t = SLMatrix.diagonal(field, [2, field.one / 2])
    cert = decompose_via_sourour(g, t)
    return {
        "target": matrix_to_json(g),
        "genset": [matrix_to_json(t)],
        "generator": matrix_to_json(t),
        "certificate": certificate_to_json(cert),
    }


VALID = {"Q": valid_inputs(QQ), "Fp:7": valid_inputs(GF(7))}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


# one value of each JSON type, for a value of the wrong type
OTHER_TYPES = [None, True, 3, 2.5, float("inf"), "x", [], [1], {}, {"n": 2}]


def mutate(data, doc):
    """doc with one mutation, at a node reached by descending from the root
    and stopping at each level with probability 1/2, so keys near the top
    (`n`, `field`, `meta`) are hit far more often than under a uniform choice
    among all nodes.  Only one, so that the checks after the first one are
    reached too."""
    doc = copy.deepcopy(doc)
    parent = doc
    while isinstance(parent, (dict, list)) and parent:
        key = data.draw(st.sampled_from(list(parent) if isinstance(parent, dict) else range(len(parent))))
        child = parent[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            parent = child
            continue
        actions = ["drop", "retype", "wrap"] + ["shift"] * (type(child) is int)
        action = data.draw(st.sampled_from(actions))
        if action == "drop":
            del parent[key]
        elif action == "retype":
            parent[key] = data.draw(st.sampled_from(OTHER_TYPES).filter(lambda v: type(v) is not type(child)))
        elif action == "wrap":
            parent[key] = [child]
        else:
            parent[key] = child + data.draw(st.integers(-2, 2))
        break
    return doc


def draw_input(data, doc):
    """The text of one input file: mostly a mutation of the valid document,
    else the document itself, random JSON or raw text."""
    kind = data.draw(st.sampled_from(["mutated", "mutated", "mutated", "valid", "random", "text"]))
    if kind == "text":
        return data.draw(st.text(max_size=20))
    if kind == "random":
        return json.dumps(data.draw(json_values))
    return json.dumps(mutate(data, doc) if kind == "mutated" else doc)


@pytest.mark.parametrize("command", ["certify-genset", "certify-generator", "verify", "bruhat"])
@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_cli_returns_a_contract_code_on_any_json(command, data):
    field_arg = data.draw(st.sampled_from(sorted(VALID)))
    valid = VALID[field_arg]
    with tempfile.TemporaryDirectory() as tmp:
        def put(name):
            path = Path(tmp) / f"{name}.json"
            path.write_text(draw_input(data, valid[name]))
            return str(path)

        if command == "verify":
            argv = ["verify", put("certificate")]
        elif command == "bruhat":
            argv = ["bruhat", "--matrix", put("target")]
        else:
            mode = command.split("-")[1]
            argv = ["certify", "--field", field_arg, "--n", "2", "--target", put("target"),
                    f"--{mode}", put(mode), "--budget", "50", "--seed", "1"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in range(5), (argv, code, err.getvalue())
    if code:
        assert err.getvalue().startswith(("error:", "MISMATCH"))
