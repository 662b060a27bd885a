import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slword import (
    GF,
    QQ,
    SLMatrix,
    commutator,
    conjugate,
    is_central,
    leading_principal_minors,
    mat_product,
    matrix_from_json,
    matrix_to_json,
    elementary,
)


def sl2_strategy(field):
    """Random SL_2 elements as products of a few elementary matrices."""
    scalar = (
        st.fractions(min_value=-5, max_value=5, max_denominator=3)
        if field.p is None
        else st.integers(min_value=0, max_value=field.p - 1).map(field.scalar)
    )
    factor = st.tuples(st.sampled_from([(1, 2), (2, 1)]), scalar).map(
        lambda t: elementary(field, 2, t[0][0], t[0][1], t[1])
    )
    return st.lists(factor, min_size=1, max_size=4).map(mat_product)


def test_determinant_checked_at_construction():
    with pytest.raises(ValueError):
        SLMatrix(QQ, [[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        SLMatrix(QQ, [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        SLMatrix(GF(5), [[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        SLMatrix(QQ, [[1]])  # dimension >= 2


def test_identity_and_elementary_products():
    g = SLMatrix(QQ, [[1, 2], [1, 3]])
    assert SLMatrix.identity(QQ, 2) * g == g
    assert elementary(QQ, 2, 1, 2, 1) * elementary(QQ, 2, 1, 2, 2) == elementary(QQ, 2, 1, 2, 3)
    n0 = SLMatrix(QQ, [[0, 1], [-1, 0]])
    assert n0 * n0 == SLMatrix.diagonal(QQ, [-1, -1])


def test_inverse():
    assert elementary(QQ, 2, 1, 2, 5).inverse() == elementary(QQ, 2, 1, 2, -5)
    d = SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])
    assert d.inverse() == SLMatrix.diagonal(QQ, [Fraction(1, 2), 2])


@settings(max_examples=40)
@given(sl2_strategy(QQ))
def test_inverse_round_trip_rational(g):
    assert g * g.inverse() == SLMatrix.identity(QQ, 2)


@settings(max_examples=40)
@given(sl2_strategy(GF(7)))
def test_inverse_round_trip_mod_p(g):
    assert g * g.inverse() == SLMatrix.identity(GF(7), 2)


@settings(max_examples=30)
@given(sl2_strategy(QQ), sl2_strategy(QQ), sl2_strategy(QQ))
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_conjugate_and_commutator():
    g = SLMatrix(QQ, [[1, 2], [1, 3]])
    ident = SLMatrix.identity(QQ, 2)
    assert conjugate(g, ident) == g
    assert commutator(g, g) == ident

    # [E_12(1), diag(2, 1/2)] by definition, then against the closed form
    e = elementary(QQ, 2, 1, 2, 1)
    d = SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])
    direct = mat_product([e, d, e.inverse(), d.inverse()])
    assert commutator(e, d) == direct == elementary(QQ, 2, 1, 2, -3)


def test_is_central():
    assert is_central(SLMatrix.diagonal(QQ, [-1, -1]))
    assert not is_central(SLMatrix.diagonal(QQ, [2, Fraction(1, 2)]))


def test_leading_principal_minors():
    g = SLMatrix(QQ, [[1, 1], [1, 2]])
    assert leading_principal_minors(g) == [Fraction(1), Fraction(1)]
    n0 = SLMatrix(QQ, [[0, 1], [-1, 0]])
    assert leading_principal_minors(n0) == [Fraction(0), Fraction(1)]


def test_mismatched_operands_rejected():
    g = SLMatrix.identity(QQ, 2)
    h = SLMatrix.identity(QQ, 3)
    k = SLMatrix.identity(GF(5), 2)
    with pytest.raises(ValueError):
        g * h
    with pytest.raises(ValueError):
        g * k


def test_powers():
    n0 = SLMatrix(QQ, [[0, 1], [-1, 0]])
    assert n0**0 == SLMatrix.identity(QQ, 2)
    assert n0**4 == SLMatrix.identity(QQ, 2)
    assert n0**-1 == n0.inverse()
    e = elementary(QQ, 2, 1, 2, 1)
    assert e**-3 == elementary(QQ, 2, 1, 2, -3)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "F101"])
def test_powers_match_repeated_multiplication(field):
    g = mat_product([elementary(field, 3, 1, 2, 1), elementary(field, 3, 3, 1, -1),
                     elementary(field, 3, 2, 3, 2)])
    acc = SLMatrix.identity(field, 3)
    for k in range(13):
        assert g**k == acc
        assert g**-k == acc.inverse()
        acc = acc * g


def test_large_powers_are_fast():
    field = GF(101)
    g = mat_product([elementary(field, 4, 1, 2, 3), elementary(field, 4, 4, 1, 5)])
    t0 = time.perf_counter()
    assert elementary(field, 4, 1, 3, 1) ** 10**6 == elementary(field, 4, 1, 3, 10**6)
    assert g**20000 * g**-19999 == g
    assert time.perf_counter() - t0 < 1.0


def test_matrices_as_dict_keys():
    a = SLMatrix(QQ, [[1, 1], [0, 1]])
    b = SLMatrix(QQ, [[1, "2/2"], [0, 1]])  # same value, different spelling
    c = SLMatrix(GF(5), [[1, 1], [0, 1]])
    d = {a: "rational", c: "modular"}
    assert d[b] == "rational"
    assert a != c and len(d) == 2


def test_json_round_trip_is_bit_exact():
    g = SLMatrix(QQ, [[Fraction(1, 2), Fraction(-3)], [1, Fraction(-4)]])
    d = matrix_to_json(g)
    assert matrix_from_json(d) == g
    assert json.dumps(matrix_to_json(matrix_from_json(d))) == json.dumps(d)

    h = SLMatrix(GF(7), [[2, 0], [3, 4]])
    assert matrix_from_json(matrix_to_json(h)) == h


def test_json_loose_input():
    d = {
        "n": 2,
        "field": {"kind": "Q"},
        "entries": [["2/4", "0"], ["-3/-6", "4/2"]],
    }
    g = matrix_from_json(d)
    assert g == SLMatrix(QQ, [[Fraction(1, 2), 0], [Fraction(1, 2), 2]])
    assert matrix_to_json(g)["entries"] == [["1/2", "0"], ["1/2", "2"]]

    dp = {"n": 2, "field": {"kind": "Fp", "p": 7}, "entries": [["8", "0"], ["-1", "-6"]]}
    assert matrix_from_json(dp) == SLMatrix(GF(7), [[1, 0], [6, 1]])

    # bare ints instead of strings are tolerated on input
    di = {"n": 2, "field": {"kind": "Q"}, "entries": [[1, 0], [2, 1]]}
    assert matrix_from_json(di) == SLMatrix(QQ, [[1, 0], [2, 1]])


def test_json_rejects_bad_input():
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "field": {"kind": "Q"}, "entries": [["2", "0"], ["0", "1"]]})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 3, "field": {"kind": "Q"}, "entries": [["1", "0"], ["0", "1"]]})
    with pytest.raises(ValueError):
        matrix_from_json({"field": {"kind": "Q"}})
    with pytest.raises(ValueError):
        matrix_from_json({"n": float("inf"), "field": {"kind": "Q"}, "entries": [["1", "0"], ["0", "1"]]})
    for entries in (5, "ab", {"a": 1, "b": 2}, ["12", "34"], [["1", "0"], ["0", "1/0"]]):
        with pytest.raises(ValueError):
            matrix_from_json({"n": 2, "field": {"kind": "Q"}, "entries": entries})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "field": "Q", "entries": [["1", "0"], ["0", "1"]]})
