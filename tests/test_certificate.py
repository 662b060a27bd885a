import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from reference_kernel import dense_conjugator, element_of_rank, evaluate_by_products, rank_rows

from slword import (
    GF,
    QQ,
    Certificate,
    Letter,
    SLMatrix,
    certificate_from_json,
    certificate_to_json,
    conjugate_certificate,
    elementary,
    evaluate_certificate,
    unipotent_as_two_conjugates,
    verify_certificate,
)


def worked_certificate():
    t = SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])
    u = elementary(QQ, 2, 1, 2, 1)
    return unipotent_as_two_conjugates(t, u)


def test_empty_word_certifies_identity():
    ident = SLMatrix.identity(QQ, 2)
    cert = Certificate(field=QQ, n=2, target=ident, base=(elementary(QQ, 2, 1, 2, 1),), word=())
    assert verify_certificate(cert)


def test_worked_certificate_verifies():
    assert verify_certificate(worked_certificate())


def test_perturbed_conjugator_fails():
    cert = worked_certificate()
    l0 = cert.word[0]
    tampered = replace(
        cert, word=(Letter(l0.conjugator * elementary(QQ, 2, 1, 2, 1), 0, l0.exponent), cert.word[1])
    )
    assert not verify_certificate(tampered)


def test_wrong_exponent_fails():
    cert = worked_certificate()
    l0, l1 = cert.word
    flipped = replace(cert, word=(Letter(l0.conjugator, 0, -1), l1))
    assert not verify_certificate(flipped)


def test_malformed_certificates_raise():
    cert = worked_certificate()
    with pytest.raises(ValueError):
        verify_certificate(replace(cert, word=(Letter(cert.word[0].conjugator, 5, 1),)))
    with pytest.raises(ValueError):
        verify_certificate(replace(cert, word=(Letter(cert.word[0].conjugator, 0, 2),)))
    with pytest.raises(ValueError):
        verify_certificate(replace(cert, base=()))
    with pytest.raises(ValueError):
        verify_certificate(replace(cert, target=SLMatrix.identity(GF(5), 2)))


def test_evaluate_returns_the_product():
    cert = worked_certificate()
    assert evaluate_certificate(cert) == cert.target


def test_conjugating_a_certificate_preserves_length_and_validity():
    cert = worked_certificate()
    c = SLMatrix(QQ, [[1, 2], [1, 3]])
    moved = conjugate_certificate(cert, c)
    assert moved.length == cert.length
    assert moved.target == c * cert.target * c.inverse()
    assert verify_certificate(moved)


def test_json_round_trip():
    cert = replace(worked_certificate(), seed=7, bound_claimed=2)
    d = certificate_to_json(cert)
    back = certificate_from_json(d)
    assert back == cert
    assert json.dumps(certificate_to_json(back), sort_keys=True) == json.dumps(d, sort_keys=True)
    assert d["meta"]["length"] == 2


def test_json_rejects_malformed():
    d = certificate_to_json(worked_certificate())
    del d["word"]
    with pytest.raises(ValueError):
        certificate_from_json(d)


# the low-rank evaluation against full products with inverses


def low_rank_certificate(field, n, ranks, word, rng):
    """A certificate over bases of the given ranks rank(x - 1), its letters
    (base index, exponent) with dense conjugators; the target is the
    reference product."""
    base = tuple(element_of_rank(field, n, rho, rng) for rho in ranks)
    letters = tuple(Letter(dense_conjugator(field, n, rng), k, e) for k, e in word)
    cert = Certificate(field=field, n=n, target=SLMatrix.identity(field, n), base=base, word=letters)
    return replace(cert, target=evaluate_by_products(cert))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_low_rank_evaluation_matches_full_products(data):
    p = data.draw(st.sampled_from((None, 7, 101)))
    field = QQ if p is None else GF(p)
    n = data.draw(st.integers(min_value=2, max_value=6))
    ranks = data.draw(st.lists(st.integers(min_value=0, max_value=n), min_size=1, max_size=3))
    word = data.draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(ranks) - 1), st.sampled_from((1, -1))),
        max_size=6,
    ))
    cert = low_rank_certificate(field, n, ranks, word, Random(data.draw(st.integers(0, 2**32))))
    assert evaluate_certificate(cert) == cert.target
    assert verify_certificate(cert)


@pytest.mark.parametrize("p", [None, 7, 101])
@pytest.mark.parametrize("n", range(2, 7))
def test_low_rank_evaluation_covers_every_rank(p, n):
    # every rho = 1..n as a base, each used with both exponents and again
    # after the other bases
    field = QQ if p is None else GF(p)
    rng = Random(100 * n + (p or 0))
    word = [(k, e) for k in range(n) for e in (1, -1)] + [(k, -1) for k in range(n)]
    cert = low_rank_certificate(field, n, range(1, n + 1), word, rng)
    for rho, x in zip(range(1, n + 1), cert.base):
        assert rank_rows([[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(x.rows)]) == rho
    assert evaluate_certificate(cert) == cert.target
    # a wrong exponent on one letter is not the same product
    flipped = replace(cert, word=(replace(cert.word[0], exponent=-1),) + cert.word[1:])
    assert evaluate_certificate(flipped) == evaluate_by_products(flipped) != cert.target


def test_rank_factor_check_refuses_a_wrong_factor_under_python_O(subprocess_env):
    # the check of u v^T = x - 1 is explicit code, not an assert, so -O keeps
    # it: a factorization that drops a column must be refused
    script = (
        "from random import Random\n"
        "from slword import QQ, Certificate, Letter, SLMatrix, elementary, mat_product, matrix\n"
        "from slword import verify_certificate\n"
        "real = matrix._rank_factor\n"
        "matrix._rank_factor = lambda m, n, p: tuple(f[:-1] if i < 2 else f for i, f in enumerate(real(m, n, p)))\n"
        "x = mat_product([elementary(QQ, 4, 1, 2, 1), elementary(QQ, 4, 3, 4, 1)])\n"
        "one = SLMatrix.identity(QQ, 4)\n"
        "cert = Certificate(field=QQ, n=4, target=x, base=(x,), word=(Letter(one, 0, 1),))\n"
        "try:\n"
        "    verify_certificate(cert)\n"
        "except ArithmeticError as exc:\n"
        "    print('refused:', exc)\n"
    )
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                       env=subprocess_env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "refused: the rank factors do not reproduce x - 1\n"
