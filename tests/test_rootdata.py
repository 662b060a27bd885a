from fractions import Fraction

import pytest

from slword import (
    GF,
    QQ,
    SLMatrix,
    conjugate,
    coroot,
    elementary,
    is_diagonal,
    is_lower_unitriangular,
    longest_element_rep,
    mat_product,
    reduced_word,
    simple_reflection_rep,
    standard_generators,
    weyl_representative,
)
from slword.rootdata import identity_perm, longest_perm


def test_elementary_basics():
    assert elementary(QQ, 2, 1, 2, 0) == SLMatrix.identity(QQ, 2)
    e13 = elementary(QQ, 3, 1, 3, 1)
    assert e13 == SLMatrix(QQ, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    low = elementary(QQ, 2, 2, 1, 5)
    assert is_lower_unitriangular(low)
    with pytest.raises(ValueError):
        elementary(QQ, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        elementary(QQ, 2, 1, 3, 1)


def test_coroot_values():
    assert coroot(QQ, 3, 1, 1) == SLMatrix.identity(QQ, 3)
    assert coroot(QQ, 2, 1, 2) == SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])
    assert coroot(QQ, 3, 2, 3) == SLMatrix.diagonal(QQ, [1, 3, Fraction(1, 3)])
    with pytest.raises(ValueError):
        coroot(QQ, 3, 1, 0)
    with pytest.raises(ValueError):
        coroot(QQ, 3, 3, 2)


def test_coroot_is_multiplicative(rng):
    for _ in range(20):
        field = QQ if rng.random() < 0.5 else GF(11)
        a = field.random_nonzero(rng, 5)
        b = field.random_nonzero(rng, 5)
        i = rng.randint(1, 3)
        assert coroot(field, 4, i, a) * coroot(field, 4, i, b) == coroot(field, 4, i, a * b)


def test_coroot_product_map_is_injective(rng):
    # distinct coordinate tuples give distinct diagonal matrices
    seen = {}
    for _ in range(50):
        coords = tuple(QQ.random_nonzero(rng, 4) for _ in range(3))
        t = mat_product([coroot(QQ, 4, i + 1, a) for i, a in enumerate(coords)])
        assert is_diagonal(t)
        if t in seen:
            assert seen[t] == coords
        seen[t] = coords


def test_simple_reflection_shape():
    s1 = simple_reflection_rep(QQ, 2, 1)
    assert s1 == SLMatrix(QQ, [[0, 1], [-1, 0]])
    # conjugation sends the positive root group to the negative one
    x = Fraction(7, 3)
    assert conjugate(elementary(QQ, 2, 1, 2, x), s1) == elementary(QQ, 2, 2, 1, -x)


def test_reduced_word_for_longest_element():
    assert reduced_word(longest_perm(2)) == [1]
    assert reduced_word(longest_perm(3)) == [1, 2, 1]
    assert reduced_word(identity_perm(4)) == []
    for n in range(2, 7):
        word = reduced_word(longest_perm(n))
        assert len(word) == n * (n - 1) // 2


def test_weyl_representative_of_identity():
    assert weyl_representative(QQ, identity_perm(3)) == SLMatrix.identity(QQ, 3)


def test_longest_element_small_cases():
    n0 = longest_element_rep(QQ, 2)
    assert n0 == SLMatrix(QQ, [[0, 1], [-1, 0]])
    assert n0 * n0 == SLMatrix.diagonal(QQ, [-1, -1])

    n0 = longest_element_rep(QQ, 3)
    sq = n0 * n0
    assert is_diagonal(sq)
    assert all(sq.rows[i][i] in (QQ.one, -QQ.one) for i in range(3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_longest_element_swaps_unipotent_radicals(n):
    from slword import is_upper_unitriangular

    n0 = longest_element_rep(QQ, n)
    for i in range(1, n):
        up = elementary(QQ, n, i, i + 1, 1)
        down = elementary(QQ, n, i + 1, i, 1)
        assert is_lower_unitriangular(conjugate(up, n0))
        assert is_upper_unitriangular(conjugate(down, n0))


def test_opposite_root_groups_commute_for_distinct_indices():
    n = 5
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                continue
            a = elementary(QQ, n, i, i + 1, Fraction(3, 2))
            b = elementary(QQ, n, j + 1, j, Fraction(-7))
            assert a * b == b * a


def test_standard_generators():
    gens = standard_generators(GF(3), 2)
    assert len(gens) == 2
    assert gens[0] == elementary(GF(3), 2, 1, 2, 1)
    assert gens[1] == elementary(GF(3), 2, 2, 1, 1)
