from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slword import (
    GF,
    QQ,
    SLMatrix,
    decompose,
    elementary,
    is_central,
    mat_product,
    random_sl,
    solve_twisted_conjugation,
    unipotent_as_two_conjugates,
    verify_certificate,
)
from slword.unipotent import _conjugate_in_borel

from reference_kernel import (
    conjugate_in_borel_rows,
    diagonalize_in_borel,
    twisted_solve,
    two_letter_conjugators_by_products,
)


def random_unitriangular(field, n, rng, bound=5):
    one, zero = field.one, field.zero
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = field.random_scalar(rng, bound)
    return SLMatrix(field, rows)


def random_distinct_diagonal(field, n, rng, bound=6):
    while True:
        ds = [field.random_nonzero(rng, bound) for _ in range(n - 1)]
        prod = field.one
        for d in ds:
            prod = prod * d
        ds.append(1 / prod)
        if all(ds[i] != ds[j] for i in range(n) for j in range(i + 1, n)):
            return SLMatrix.diagonal(field, ds)


def diagonal_of(t):
    return SLMatrix.diagonal(t.field, [t.rows[i][i] for i in range(t.n)])


def test_diagonalize_already_diagonal():
    d = SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])
    assert _conjugate_in_borel(d, d).is_identity()


def test_diagonalize_worked_example():
    t = SLMatrix(QQ, [[2, 1], [0, Fraction(1, 2)]])
    d = SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])
    v = _conjugate_in_borel(t, d)
    assert v == elementary(QQ, 2, 1, 2, Fraction(2, 3))
    assert mat_product([v, t, v.inverse()]) == d


def test_diagonalize_random_4x4_mod_11(rng):
    field = GF(11)
    for _ in range(25):
        d = random_distinct_diagonal(field, 4, rng)
        u = random_unitriangular(field, 4, rng)
        t = mat_product([u, d, u.inverse()])  # upper triangular with d's diagonal
        v = _conjugate_in_borel(t, d)
        assert mat_product([v, t, v.inverse()]) == d


def test_diagonalize_rejects_repeated_diagonal():
    # the solve divides by differences of diagonal entries; its callers check them
    for t in (elementary(QQ, 2, 1, 2, 1), SLMatrix(QQ, [[-1, 1], [0, -1]])):
        with pytest.raises(ValueError):
            unipotent_as_two_conjugates(t, SLMatrix.identity(QQ, 2))


def test_twisted_solve_identity():
    d = SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])
    assert solve_twisted_conjugation(d, SLMatrix.identity(QQ, 2)).is_identity()


def test_twisted_solve_worked_example():
    d = SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])
    u = elementary(QQ, 2, 1, 2, 1)
    v = solve_twisted_conjugation(d, u)
    assert v == elementary(QQ, 2, 1, 2, Fraction(-1, 3))
    # dual route: the defining equation, evaluated as a raw commutator-like product
    assert mat_product([v, d, v.inverse(), d.inverse()]) == u


@pytest.mark.parametrize("n", [2, 3, 4])
def test_twisted_round_trip(n, rng):
    for field in (QQ, GF(13)):
        for _ in range(20):
            d = random_distinct_diagonal(field, n, rng)
            u = random_unitriangular(field, n, rng)
            v = solve_twisted_conjugation(d, u)
            assert mat_product([v, d, v.inverse(), d.inverse()]) == u


def test_twisted_solutions_differ_for_distinct_inputs(rng):
    d = random_distinct_diagonal(QQ, 3, rng)
    u1 = elementary(QQ, 3, 1, 2, 1)
    u2 = elementary(QQ, 3, 1, 2, 2)
    assert solve_twisted_conjugation(d, u1) != solve_twisted_conjugation(d, u2)


def test_twisted_rejects_repeated_entries():
    d = SLMatrix.diagonal(QQ, [-1, -1])
    with pytest.raises(ValueError):
        solve_twisted_conjugation(d, SLMatrix.identity(QQ, 2))


def test_two_conjugates_identity_case():
    t = SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])
    cert = unipotent_as_two_conjugates(t, SLMatrix.identity(QQ, 2))
    assert cert.length == 2
    assert cert.word[0].conjugator.is_identity()
    assert cert.word[1].conjugator.is_identity()
    assert (cert.word[0].exponent, cert.word[1].exponent) == (1, -1)
    assert verify_certificate(cert)


def test_two_conjugates_worked_example():
    t = SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])
    u = elementary(QQ, 2, 1, 2, 1)
    cert = unipotent_as_two_conjugates(t, u)
    assert cert.word[0].conjugator == elementary(QQ, 2, 1, 2, Fraction(-1, 3))
    assert cert.word[1].conjugator.is_identity()
    assert verify_certificate(cert)


def test_two_conjugates_rejects_non_triangular_base():
    t = SLMatrix(QQ, [[0, 1], [-1, 0]])  # regular but not triangular
    with pytest.raises(ValueError):
        unipotent_as_two_conjugates(t, SLMatrix.identity(QQ, 2))


def test_two_conjugates_with_triangular_base(rng):
    # non-diagonal regular t exercises the diagonalization leg
    t = SLMatrix(QQ, [[2, 1], [0, Fraction(1, 2)]])
    for _ in range(10):
        u = random_unitriangular(QQ, 2, rng)
        cert = unipotent_as_two_conjugates(t, u)
        assert cert.length == 2
        assert verify_certificate(cert)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_two_conjugates_random(n, rng):
    for _ in range(5):
        t = random_distinct_diagonal(QQ, n, rng)
        u = random_unitriangular(QQ, n, rng)
        cert = unipotent_as_two_conjugates(t, u)
        assert cert.length == 2
        assert verify_certificate(cert)


@st.composite
def borel_cases(draw):
    """A regular upper triangular t, an upper unitriangular u and a
    non-central g; a regular t over F_p needs p > n + 1."""
    field = draw(st.sampled_from([QQ, GF(7), GF(11), GF(101)]))
    n = draw(st.integers(2, 6 if field.p is None else min(6, field.p - 2)))
    rng = Random(draw(st.integers(0, 2**32)))
    t = random_unitriangular(field, n, rng, bound=3) * random_distinct_diagonal(field, n, rng)
    g = random_sl(field, n, rng, factors=draw(st.integers(1, 3 * n)))
    assume(not is_central(g))
    return t, random_unitriangular(field, n, rng, bound=3), g


# the one solve against the two recurrences it replaced, and the two-letter
# route's conjugators against the products they were built from
@settings(max_examples=120, deadline=None, derandomize=True)
@given(borel_cases())
def test_solve_equals_the_reference_recurrences(case):
    t, u, g = case
    d = diagonal_of(t)
    vt = diagonalize_in_borel(t)
    assert _conjugate_in_borel(t, d) == vt
    assert solve_twisted_conjugation(d, u) == twisted_solve(d, u)
    cert = unipotent_as_two_conjugates(t, u)
    assert [l.conjugator for l in cert.word] == [twisted_solve(d, u) * vt, vt]
    c1, c2 = (l.conjugator for l in decompose._two_letter_word(g, t))
    assert (c1, c2) == two_letter_conjugators_by_products(g, t)


# the flat solve against the scalar one: v a v^-1 = b has the unique
# unitriangular solution w for b = w a w^-1; the entry 1/3 of w gives b,
# over Q, a denominator other than a's
@settings(max_examples=120, deadline=None, derandomize=True)
@given(borel_cases())
def test_flat_solve_equals_the_scalar_one(case):
    t, u, _ = case
    w = u * elementary(t.field, t.n, 1, t.n, t.field.one / 3)
    for b in (mat_product([w, t, w.inverse()]), u * diagonal_of(t)):
        v = _conjugate_in_borel(t, b)
        assert v == conjugate_in_borel_rows(t, b)
        assert mat_product([v, t, v.inverse()]) == b
    assert _conjugate_in_borel(t, mat_product([w, t, w.inverse()])) == w
