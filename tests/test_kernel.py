"""The flat int kernels of ``slword.matrix`` against the scalar reference in
``reference_kernel.py``, on random matrices over Q and F_p for n = 2..6."""

from fractions import Fraction
from math import lcm
from random import Random

from hypothesis import given, settings, strategies as st

from reference_kernel import det_rows, inverse_rows, mul_rows
from slword import GF, QQ, SLMatrix, mat_product, random_sl
from slword.matrix import _det_scalar, _inverse_mod, _inverse_q, _product

PRIMES = (2, 3, 7, 101)


@st.composite
def square(draw, field=None, n=None):
    """(field, n, rows of field scalars) with arbitrary determinant."""
    if field is None:
        p = draw(st.sampled_from((None,) + PRIMES))
        field = QQ if p is None else GF(p)
    if n is None:
        n = draw(st.integers(min_value=2, max_value=6))
    if field.p is None:
        scalar = st.fractions(min_value=-40, max_value=40, max_denominator=12)
    else:
        scalar = st.integers(min_value=0, max_value=field.p - 1).map(field.scalar)
    rows = draw(st.lists(st.lists(scalar, min_size=n, max_size=n), min_size=n, max_size=n))
    return field, n, tuple(tuple(field.scalar(e) for e in row) for row in rows)


def flat(field, rows):
    """(entries, den) in the matrix module's canonical form."""
    vals = [e for row in rows for e in row]
    if field.p is not None:
        return tuple(e.val for e in vals), 1
    den = lcm(*(e.denominator for e in vals))
    return tuple(e.numerator * (den // e.denominator) for e in vals), den


def scalars(field, n, entries, den):
    if field.p is None:
        vals = [Fraction(e, den) for e in entries]
    else:
        vals = [field.scalar(e) for e in entries]
    return tuple(tuple(vals[i : i + n]) for i in range(0, n * n, n))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_matches_reference(data):
    field, n, a = data.draw(square())
    _, _, b = data.draw(square(field, n))
    entries, den = _product(field.p, n, *flat(field, a), *flat(field, b))
    assert scalars(field, n, entries, den) == mul_rows(a, b, field)
    if field.p is None:  # the product stays in lowest terms
        assert (entries, den) == flat(field, mul_rows(a, b, field))


@settings(max_examples=150, deadline=None)
@given(square())
def test_determinant_matches_reference(m):
    field, n, rows = m
    assert _det_scalar(field, n, *flat(field, rows)) == det_rows(rows, field)


@settings(max_examples=150, deadline=None)
@given(square())
def test_inverse_matches_reference(m):
    field, n, rows = m
    if not det_rows(rows, field):
        return
    entries, den = flat(field, rows)
    if field.p is None:
        inv, inv_den = _inverse_q(entries, den, n)
        assert (inv, inv_den) == flat(field, inverse_rows(rows, field))
    else:
        inv, inv_den = _inverse_mod(entries, n, field.p), 1
    assert scalars(field, n, inv, inv_den) == inverse_rows(rows, field)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((None,) + PRIMES[1:]),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32),
)
def test_group_operations_match_reference(p, n, seed):
    field = QQ if p is None else GF(p)
    rng = Random(seed)
    mats = [random_sl(field, n, rng, factors=2 * n) for _ in range(4)]
    expected = mats[0].rows
    for m in mats[1:]:
        expected = mul_rows(expected, m.rows, field)
    assert mat_product(mats).rows == expected
    assert (mats[0] * mats[1]).rows == mul_rows(mats[0].rows, mats[1].rows, field)
    assert mats[2].inverse().rows == inverse_rows(mats[2].rows, field)
    assert det_rows(mat_product(mats).rows, field) == field.one
    # a matrix built from its own scalars is the same matrix
    assert SLMatrix(field, expected) == mat_product(mats)
