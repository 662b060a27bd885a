from fractions import Fraction
from random import Random

import pytest

from slword import (
    GF,
    QQ,
    SLMatrix,
    SearchBudgetExceeded,
    big_cell_decompose,
    bruhat_decompose,
    brute_force_elements,
    elementary,
    leading_principal_minors,
    longest_element_rep,
    mat_product,
    random_sl,
    split_over_big_cell,
)
from slword.bruhat import _random_big_cell_element, in_big_cell
from slword.rootdata import longest_perm

from reference_kernel import inverse_perm, random_big_cell_element_by_coroots


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


def test_split_identity():
    rng = Random(1)
    g = SLMatrix.identity(QQ, 2)
    h, hp = split_over_big_cell(g, rng)
    assert h * hp == g
    assert in_big_cell(hp) and in_big_cell(h.inverse())


def test_split_longest_element():
    rng = Random(2)
    n0 = longest_element_rep(QQ, 2)
    h, hp = split_over_big_cell(n0, rng)
    assert h * hp == n0
    assert in_big_cell(hp) and in_big_cell(h.inverse())


def test_split_random_sl3(rng):
    for _ in range(10):
        g = random_sl(QQ, 3, rng)
        h, hp = split_over_big_cell(g, rng)
        assert h * hp == g
        assert in_big_cell(hp) and in_big_cell(h.inverse())


def test_split_small_field():
    rng = Random(3)
    for e in sorted(brute_force_elements(2, 3)):
        g = SLMatrix(GF(3), [[e[0], e[1]], [e[2], e[3]]])
        h, hp = split_over_big_cell(g, rng)
        assert h * hp == g


def test_split_budget_exhaustion_reports_attempts():
    rng = Random(4)
    with pytest.raises(SearchBudgetExceeded) as exc:
        split_over_big_cell(longest_element_rep(QQ, 2), rng, budget=0)
    assert exc.value.attempts == 0


@pytest.mark.parametrize("p", [None, 7, 101])
def test_random_big_cell_element_is_the_coroot_product(p):
    # one diagonal from the n - 1 draws, against n - 1 coroot products
    field = QQ if p is None else GF(p)
    for n in range(2, 7):
        for seed in range(10):
            rng, ref_rng = Random(seed), Random(seed)
            bound = 2 + seed
            g = _random_big_cell_element(field, n, rng, bound)
            assert g == random_big_cell_element_by_coroots(field, n, ref_rng, bound)
            assert rng.getstate() == ref_rng.getstate()
