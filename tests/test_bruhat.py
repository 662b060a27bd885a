from fractions import Fraction
from itertools import permutations

import pytest

from slword import (
    GF,
    QQ,
    SLMatrix,
    big_cell_decompose,
    bruhat_decompose,
    brute_force_elements,
    elementary,
    is_upper_unitriangular,
    leading_principal_minors,
    longest_element_rep,
    mat_product,
    random_sl,
    split_over_big_cell,
    weyl_representative,
)
from slword.bruhat import in_big_cell
from slword.rootdata import longest_perm

from reference_kernel import inverse_perm


def matrices_of_sl2(p):
    field = GF(p)
    for e in sorted(brute_force_elements(2, p)):
        yield SLMatrix(field, [[e[0], e[1]], [e[2], e[3]]])


def test_big_cell_identity():
    ident = SLMatrix.identity(QQ, 2)
    f = big_cell_decompose(ident)
    assert (f.lower, f.diag, f.upper) == (ident, ident, ident)


def test_big_cell_worked_example():
    g = SLMatrix(QQ, [[1, 1], [1, 2]])
    f = big_cell_decompose(g)
    assert f.lower == SLMatrix(QQ, [[1, 0], [1, 1]])
    assert f.diag == SLMatrix.identity(QQ, 2)
    assert f.upper == SLMatrix(QQ, [[1, 1], [0, 1]])
    assert mat_product([f.lower, f.diag, f.upper]) == g


def test_longest_element_outside_big_cell():
    assert big_cell_decompose(longest_element_rep(QQ, 2)) is None


@pytest.mark.parametrize("p", [3, 5])
def test_big_cell_matches_minor_criterion_exhaustively(p):
    for g in matrices_of_sl2(p):
        f = big_cell_decompose(g)
        minors_nonzero = all(bool(m) for m in leading_principal_minors(g))
        assert (f is not None) == minors_nonzero
        if f is not None:
            assert mat_product([f.lower, f.diag, f.upper]) == g


def test_bruhat_of_upper_triangular_is_trivial_cell():
    b = SLMatrix(QQ, [[2, 7], [0, Fraction(1, 2)]])
    f = bruhat_decompose(b)
    assert f.u.is_identity()
    assert f.w == (0, 1)
    assert f.b == b


def test_bruhat_of_longest_representative():
    n0 = longest_element_rep(QQ, 3)
    f = bruhat_decompose(n0)
    assert f.u.is_identity()
    assert f.w == longest_perm(3)
    assert f.b.is_identity()


def test_bruhat_worked_example():
    g = SLMatrix(QQ, [[0, 1], [-1, 1]])
    f = bruhat_decompose(g)
    assert f.u.is_identity()
    assert f.w == (1, 0)
    assert f.b == SLMatrix(QQ, [[1, -1], [0, 1]])
    assert mat_product([f.u, f.w_rep, f.b]) == g


@pytest.mark.parametrize("p", [3, 5])
def test_bruhat_reconstructs_exhaustively(p):
    from slword import is_upper_triangular, is_upper_unitriangular

    for g in matrices_of_sl2(p):
        f = bruhat_decompose(g)
        assert is_upper_unitriangular(f.u)
        assert is_upper_triangular(f.b)
        assert mat_product([f.u, f.w_rep, f.b]) == g


def test_bruhat_cell_is_invariant_under_borel_translation(rng):
    field = GF(11)
    for _ in range(25):
        g = random_sl(field, 3, rng)
        w = bruhat_decompose(g).w
        b1 = mat_product(
            [
                SLMatrix.diagonal(field, [2, 3, 2]),  # det 12 = 1 mod 11
                elementary(field, 3, 1, 2, field.random_scalar(rng, 10)),
                elementary(field, 3, 2, 3, field.random_scalar(rng, 10)),
            ]
        )
        b2 = mat_product(
            [
                elementary(field, 3, 1, 3, field.random_scalar(rng, 10)),
                elementary(field, 3, 1, 2, field.random_scalar(rng, 10)),
            ]
        )
        assert bruhat_decompose(mat_product([b1, g, b2])).w == w


def test_bruhat_shapes_and_reconstruction_random(rng):
    from slword import is_upper_triangular, is_upper_unitriangular

    for field in (QQ, GF(7)):
        for n in (3, 4):
            for _ in range(15):
                g = random_sl(field, n, rng)
                f = bruhat_decompose(g)
                assert is_upper_unitriangular(f.u)
                assert is_upper_triangular(f.b)
                assert mat_product([f.u, f.w_rep, f.b]) == g


def test_bruhat_u_is_canonical_coset_representative(rng):
    # u must vanish at (i, j), i < j, whenever w^-1(i) < w^-1(j)
    for field in (QQ, GF(7)):
        for _ in range(25):
            g = random_sl(field, 4, rng)
            f = bruhat_decompose(g)
            winv = inverse_perm(f.w)
            for i in range(4):
                for j in range(i + 1, 4):
                    if winv[i] < winv[j]:
                        assert not f.u.rows[i][j]


def assert_split(g):
    h, hp = split_over_big_cell(g)
    assert is_upper_unitriangular(hp)
    assert h * hp == g
    assert in_big_cell(h.inverse())


def test_split_identity():
    g = SLMatrix.identity(QQ, 2)
    assert_split(g)
    assert split_over_big_cell(g) == (g, g)


def test_split_longest_element():
    assert_split(longest_element_rep(QQ, 2))


def test_split_random_sl3(rng):
    for _ in range(10):
        assert_split(random_sl(QQ, 3, rng))


def test_split_small_field():
    # every element of five small groups, and every Weyl representative,
    # the matrices furthest from the big cell
    for n, p in [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]:
        for e in sorted(brute_force_elements(n, p)):
            assert_split(SLMatrix(GF(p), [e[i : i + n] for i in range(0, n * n, n)]))
    for field in (QQ, GF(7)):
        for n in range(2, 6):
            for w in permutations(range(n)):
                assert_split(weyl_representative(field, w))
