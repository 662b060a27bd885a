"""The flat int kernels against the scalar reference in
``reference_kernel.py``: products, inverses, solves and determinants of
``slword.matrix`` on random matrices over Q and F_p for n = 2..6, the F_p
determinant and inverse at the primes 2, 3 and 10^18 + 3, the rank
factorization behind the low-rank letters and ``smallest_radius``, and the
kernels of the regular-element search (``random_sl`` and its inverse, n_0
and the big-cell LDU)."""

from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from reference_kernel import det_rows, inverse_rows, ldu_rows, mul_rows, random_sl_rows, rank_rows
from slword import (
    GF,
    QQ,
    Field,
    Fp,
    GeneratingSet,
    SLMatrix,
    big_cell_decompose,
    elementary,
    find_regular_in_ball,
    longest_element_rep,
    mat_product,
    random_sl,
    verify_certificate,
    weyl_representative,
)
from slword.decompose import _random_sl_and_inverse
from slword.matrix import (
    _det_scalar,
    _inverse_mod,
    _inverse_q,
    _product,
    _rank_factor,
    _solve_int,
    rank_factors,
)
from slword.rootdata import longest_perm

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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 10**18 + 3)), st.integers(min_value=2, max_value=4), st.data())
def test_det_and_inverse_mod_p_at_the_edges_of_the_reduction(p, n, data):
    # F_p's determinant and inverse are the integer ones of the residues,
    # reduced; at p = 2 and 3 the integer minors leave [0, p) at once, and
    # at p = 10^18 + 3 they reach about 10^(18 n)
    field = GF(p)
    _, _, rows = data.draw(square(field, n))
    entries, _ = flat(field, rows)
    det = det_rows(rows, field)
    assert _det_scalar(field, n, entries, 1) == det
    if det:
        assert scalars(field, n, _inverse_mod(entries, n, p), 1) == inverse_rows(rows, field)


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


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((None, 5, 101)),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32),
    st.data(),
)
def test_random_sl_and_its_inverse_match_column_operations(p, n, seed, data):
    field = QQ if p is None else GF(p)
    factors = data.draw(st.sampled_from((None, 0, 1, n + 2, 2 * n)))
    expected = random_sl_rows(field, n, Random(seed), factors)
    g, g_inv = _random_sl_and_inverse(field, n, Random(seed), factors)
    assert (g.entries, g.den) == flat(field, expected)
    assert (g_inv.entries, g_inv.den) == flat(field, inverse_rows(expected, field))
    assert random_sl(field, n, Random(seed), factors) == g


@pytest.mark.parametrize("p", [None, 5, 101])
@pytest.mark.parametrize("n", range(2, 9))
def test_longest_element_rep_is_the_pinned_representative(p, n):
    field = QQ if p is None else GF(p)
    n0 = longest_element_rep(field, n)
    assert n0 == weyl_representative(field, longest_perm(n))
    assert det_rows(n0.rows, field) == field.one


def ldu_input(field, n, rng):
    """A determinant-1 matrix with non-integral entries over Q, moved out of
    the big cell by a random Weyl representative one time in three."""
    a = Fraction(rng.randint(1, 9), rng.randint(1, 9)) if field.p is None else rng.randrange(1, field.p)
    d = SLMatrix.diagonal(field, [a, 1 / field.scalar(a)] + [1] * (n - 2))
    g = mat_product([random_sl(field, n, rng), d, random_sl(field, n, rng, factors=2 * n)])
    if rng.randrange(3) == 0:
        w = list(range(n))
        rng.shuffle(w)
        g = weyl_representative(field, tuple(w)) * g
    return g


@pytest.mark.parametrize("p", [None, 7, 101])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_big_cell_decompose_matches_the_scalar_ldu(p, n):
    field = QQ if p is None else GF(p)
    rng = Random(1000 * n + (p or 0))
    seen = {"outside": 0, "inside": 0, "non-integral": 0}
    for g in [ldu_input(field, n, rng) for _ in range(60)] + [longest_element_rep(field, n)]:
        form = big_cell_decompose(g)
        expected = ldu_rows(g.rows, field)
        if expected is None:
            assert form is None
            seen["outside"] += 1
            continue
        seen["inside"] += 1
        seen["non-integral"] += g.den > 1
        for got, rows in zip((form.lower, form.diag, form.upper), expected):
            assert (got.entries, got.den) == flat(field, rows)
        assert mat_product([form.lower, form.diag, form.upper]) == g
    assert seen["outside"] and seen["inside"]
    assert seen["non-integral"] or p is not None


def ratio(field, a, b):
    return field.scalar(a) / field.scalar(b)


def outer_sum(field, n, u, v, l):
    """u v^T / l as rows of field scalars."""
    return tuple(
        tuple(ratio(field, sum(uk[i] * vk[j] for uk, vk in zip(u, v)), l) for j in range(n))
        for i in range(n)
    )


@settings(max_examples=150, deadline=None)
@given(square())
def test_rank_matches_reference(m):
    # the rank factorization of an arbitrary int matrix m = rows * den: rho
    # columns, rho the scalar rank, and u v^T / l = m
    field, n, rows = m
    entries, den = flat(field, rows)
    u, v, l = _rank_factor(entries, n, field.p)
    assert len(u) == len(v) == rank_rows(rows)
    assert all(len(col) == n for col in u + v)
    assert outer_sum(field, n, u, v, l * den) == rows


@pytest.mark.parametrize("p", [None, 5, 101])
def test_rank_of_x_minus_one_matches_reference(p):
    # x^e - 1 = u v^T / d for both exponents, with rank(x - 1) columns; over
    # Q also for x with a denominator != 1
    field = QQ if p is None else GF(p)
    rng = Random(7)
    for n in range(2, 7):
        for factors in range(1, n + 2):
            x = random_sl(field, n, rng, factors=factors)
            if factors % 2:
                x = mat_product([SLMatrix.diagonal(field, [2, ratio(field, 1, 2)] + [1] * (n - 2)), x])
            for xe, (u, v, d) in zip((x, x.inverse()), rank_factors(x)):
                rows = tuple(tuple(e - (i == j) for j, e in enumerate(row)) for i, row in enumerate(xe.rows))
                assert len(u) == rank_rows(rows) and d > 0
                assert outer_sum(field, n, u, v, d) == rows


@settings(max_examples=150, deadline=None)
@given(square(), st.data())
def test_solve_matches_reference(m, data):
    # z / d = a^-1 b for an integer a and k integer columns b, against the
    # scalar inverse; against b = I it is the inverse itself
    field, n, rows = m
    entries, _ = flat(field, rows)
    a = [[field.scalar(e) for e in entries[i : i + n]] for i in range(0, n * n, n)]
    if not det_rows(a, field):
        return
    inv = inverse_rows(a, field)
    k = data.draw(st.integers(min_value=1, max_value=n))
    b = data.draw(st.lists(st.integers(min_value=-50, max_value=50), min_size=n * k, max_size=n * k))
    z, d = _solve_int(entries, b, n, k)
    assert [[ratio(field, z[i * k + c], d) for c in range(k)] for i in range(n)] == [
        [sum((inv[i][j] * b[j * k + c] for j in range(n)), field.zero) for c in range(k)] for i in range(n)
    ]
    z, d = _solve_int(entries, [int(i == j) for i in range(n) for j in range(n)], n, n)
    assert tuple(tuple(ratio(field, x, d) for x in z[i : i + n]) for i in range(0, n * n, n)) == inv


def test_find_regular_in_ball_builds_no_scalars(monkeypatch):
    # certify-q and certify-fp shaped inputs: X = {E_12(1)} over Q at n = 4
    # and over F_101 at n = 5
    sets = [GeneratingSet.of([elementary(field, n, 1, 2, 1)]) for field, n in [(QQ, 4), (GF(101), 5)]]

    def no_scalars(*args, **kwargs):
        raise AssertionError("the regular-element search built a per-entry scalar")

    monkeypatch.setattr(SLMatrix, "rows", property(no_scalars))
    monkeypatch.setattr(Field, "scalar", no_scalars)
    monkeypatch.setattr(Field, "zero", property(no_scalars))
    monkeypatch.setattr(Field, "one", property(no_scalars))
    monkeypatch.setattr(Fp, "__init__", no_scalars)
    found = [find_regular_in_ball(X, Random(seed)) for X in sets for seed in (3, 5)]
    monkeypatch.undo()
    for t, cert in found:
        assert cert.target == t and verify_certificate(cert)
