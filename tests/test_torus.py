from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from reference_kernel import coroot, torus_factor_by_conjugation

from slword import (
    GF,
    QQ,
    Fp,
    SLMatrix,
    elementary,
    mat_product,
    sl2_coroot_factor,
    torus_factor,
)
from slword.torus import coroot_coordinates


def four_factor_product(field, x):
    a, b, c, d = sl2_coroot_factor(x)
    return mat_product(
        [
            elementary(field, 2, 1, 2, a),
            elementary(field, 2, 2, 1, b),
            elementary(field, 2, 1, 2, c),
            elementary(field, 2, 2, 1, d),
        ]
    )


def test_sl2_factor_values():
    assert sl2_coroot_factor(Fraction(1)) == (-1, 0, 1, 0)
    assert sl2_coroot_factor(Fraction(2)) == (-2, Fraction(-1, 2), 1, 1)
    assert sl2_coroot_factor(Fp(3, 7)) == (Fp(4, 7), Fp(4, 7), Fp(1, 7), Fp(2, 7))
    with pytest.raises(ValueError):
        sl2_coroot_factor(Fraction(0))


def test_sl2_factor_products():
    assert four_factor_product(QQ, Fraction(1)) == SLMatrix.identity(QQ, 2)
    assert four_factor_product(QQ, Fraction(2)) == SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])
    assert four_factor_product(GF(7), Fp(3, 7)) == SLMatrix.diagonal(GF(7), [3, 5])


@settings(max_examples=60)
@given(st.fractions(min_value=-50, max_value=50, max_denominator=20).filter(bool))
def test_sl2_factor_identity_rational(x):
    assert four_factor_product(QQ, x) == SLMatrix.diagonal(QQ, [x, 1 / x])


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=100).map(lambda v: Fp(v, 101)))
def test_sl2_factor_identity_mod_p(x):
    assert four_factor_product(GF(101), x) == SLMatrix.diagonal(GF(101), [x, x**-1])


def test_coroot_coordinates():
    assert coroot_coordinates(SLMatrix.identity(QQ, 3)) == (1, 1)
    assert coroot_coordinates(SLMatrix.diagonal(QQ, [2, 3, Fraction(1, 6)])) == (2, 6)
    x = Fraction(5, 7)
    assert coroot_coordinates(SLMatrix.diagonal(QQ, [x, 1 / x])) == (x,)
    with pytest.raises(ValueError):
        coroot_coordinates(elementary(QQ, 2, 1, 2, 1))


def test_coroot_coordinates_round_trip(rng):
    for field in (QQ, GF(11)):
        for _ in range(20):
            ds = [field.random_nonzero(rng, 5) for _ in range(3)]
            inv = 1 / (ds[0] * ds[1] * ds[2])
            t = SLMatrix.diagonal(field, ds + [inv])
            coords = coroot_coordinates(t)
            assert mat_product([coroot(field, 4, i + 1, a) for i, a in enumerate(coords)]) == t


def root_group_position(g):
    """(i, j) of the unique off-diagonal entry, or None for the identity."""
    hits = [
        (i, j)
        for i in range(g.n)
        for j in range(g.n)
        if i != j and g.rows[i][j]
    ]
    if not hits:
        return None
    assert len(hits) == 1
    return hits[0]


def assert_single_root_group_shape(factors):
    for f in factors:
        pos = root_group_position(f)
        if pos is not None:
            i, j = pos
            assert abs(i - j) == 1
        # diagonal of a root-group element is all ones
        assert all(f.rows[k][k] == f.field.one for k in range(f.n))


def test_torus_factor_identity_gives_identity_factors():
    factors = torus_factor(SLMatrix.identity(QQ, 4))
    assert len(factors) == 12
    assert all(f.is_identity() for f in factors)


def test_torus_factor_rank_one():
    t = SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])
    factors = torus_factor(t)
    assert len(factors) == 4
    assert mat_product(factors) == t
    assert_single_root_group_shape(factors)


def test_torus_factor_rank_one_comes_from_sl2_parameters():
    # the four slots are the four-factor parameters at x^-1, inverted:
    # (E_12(a') E_21(b') E_12(c') E_21(d'))^-1 = diag(x, x^-1) for x' = x^-1
    x = Fraction(5, 3)
    a, b, c, d = sl2_coroot_factor(1 / x)
    assert torus_factor(SLMatrix.diagonal(QQ, [x, 1 / x])) == [
        elementary(QQ, 2, 2, 1, -d),
        elementary(QQ, 2, 1, 2, -c),
        elementary(QQ, 2, 2, 1, -b),
        elementary(QQ, 2, 1, 2, -a),
    ]


def test_torus_factor_rank_two():
    t = SLMatrix.diagonal(QQ, [2, 3, Fraction(1, 6)])
    factors = torus_factor(t)
    assert len(factors) == 8
    assert mat_product(factors) == t
    assert_single_root_group_shape(factors)


def test_torus_factor_block_ordering():
    # lowers, uppers, lowers, uppers: r factors each
    t = SLMatrix.diagonal(QQ, [2, 3, 5, Fraction(1, 30)])
    factors = torus_factor(t)
    r = 3
    for k, f in enumerate(factors):
        pos = root_group_position(f)
        if pos is None:
            continue
        i, j = pos
        block = k // r
        if block in (0, 2):
            assert i > j, f"factor {k} should be lower"
        else:
            assert i < j, f"factor {k} should be upper"


def test_torus_factor_random(rng):
    for field in (QQ, GF(11)):
        for n in range(2, 7):
            for _ in range(10):
                ds = [field.random_nonzero(rng, 4) for _ in range(n - 1)]
                prod = field.one
                for d in ds:
                    prod = prod * d
                t = SLMatrix.diagonal(field, ds + [1 / prod])
                factors = torus_factor(t)
                assert len(factors) == 4 * (n - 1)
                assert mat_product(factors) == t
                assert_single_root_group_shape(factors)


def test_torus_factor_rejects_non_diagonal():
    with pytest.raises(ValueError):
        torus_factor(elementary(QQ, 2, 1, 2, 1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_torus_factor_equals_the_conjugated_slots(data):
    # x_i and u_i rescaled by a_{i-1}, against the slots conjugated by
    # s_i = c_1 ... c_{i-1}; a prefix d_1 ... d_i = 1 gives identity slots
    field = data.draw(st.sampled_from([QQ, GF(7), GF(11), GF(101)]))
    n = data.draw(st.integers(min_value=2, max_value=6))
    if field.p is None:
        scalar = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    else:
        scalar = st.integers(min_value=0, max_value=field.p - 1).map(field.scalar)
    ds = data.draw(st.lists(scalar.filter(bool), min_size=n - 1, max_size=n - 1))
    prod = field.one
    for d in ds:
        prod = prod * d
    t = SLMatrix.diagonal(field, ds + [1 / prod])
    assert torus_factor(t) == torus_factor_by_conjugation(t)
