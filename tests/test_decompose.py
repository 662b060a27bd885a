from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slword import (
    GF,
    QQ,
    CertificateMismatch,
    GeneratingSet,
    SLMatrix,
    conjugate_certificate,
    decompose,
    decompose_as_conjugates_of,
    decompose_full,
    decompose_via_sourour,
    decompose_via_unipotents,
    elementary,
    enumerate_group,
    find_regular_in_ball,
    is_central,
    is_upper_unitriangular,
    longest_element_rep,
    mat_product,
    norm_ball_table,
    random_sl,
    random_sl_bounded,
    require_valid,
    smallest_radius,
    verify_certificate,
)


def blocks_product(blocks):
    return mat_product([mat_product([c, u, c.inverse()]) for c, u in blocks])


def diag_of_primes(field, n):
    """Distinct small primes on the diagonal, last entry fixing the determinant.

    Over a prime field the inverse entry may collide with a chosen prime
    (1/6 = 2 mod 11, say), so candidates are searched until all n entries
    stay distinct in the field.
    """
    from itertools import combinations

    pool = [2, 3, 5, 7, 13, 17, 19, 23]
    for combo in combinations(pool, n - 1):
        entries = [field.scalar(q) for q in combo]
        inv = field.one
        for e in entries:
            inv = inv / e
        entries.append(inv)
        if all(entries[i] != entries[j] for i in range(n) for j in range(i + 1, n)):
            return SLMatrix.diagonal(field, entries)
    raise AssertionError("no usable prime diagonal for this field")


def test_generating_set_rejects_all_central():
    minus_i = SLMatrix.diagonal(QQ, [-1, -1])
    with pytest.raises(ValueError):
        GeneratingSet.of([minus_i])
    with pytest.raises(ValueError):
        GeneratingSet.of([SLMatrix.identity(QQ, 2), minus_i])
    # fine once anything noncentral appears
    X = GeneratingSet.of([minus_i, elementary(QQ, 2, 1, 2, 1)])
    assert X.noncentral_indices == (1,)


def test_generating_set_rejects_mixed_fields():
    with pytest.raises(ValueError):
        GeneratingSet.of([elementary(QQ, 2, 1, 2, 1), elementary(GF(5), 2, 1, 2, 1)])


def test_generating_set_rejects_empty():
    with pytest.raises(ValueError):
        GeneratingSet.of([])


def test_random_sl_is_deterministic():
    a = random_sl(QQ, 3, Random(99))
    b = random_sl(QQ, 3, Random(99))
    assert a == b


def test_random_sl_bounded_respects_bound(rng):
    for _ in range(20):
        g = random_sl_bounded(QQ, 3, rng, bound=10)
        assert all(abs(e.numerator) <= 10 and e.denominator <= 10 for row in g.rows for e in row)


def test_seven_blocks_identity():
    rng = Random(0)
    blocks = decompose_via_unipotents(SLMatrix.identity(QQ, 2), rng)
    assert len(blocks) == 7
    assert all(c.is_identity() and u.is_identity() for c, u in blocks)


def test_seven_blocks_longest_element():
    rng = Random(1)
    n0 = longest_element_rep(QQ, 2)
    blocks = decompose_via_unipotents(n0, rng)
    assert len(blocks) == 7
    assert all(is_upper_unitriangular(u) for _, u in blocks)
    assert blocks_product(blocks) == n0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_seven_blocks_random(n, field, rng):
    for _ in range(5):
        g = random_sl(field, n, rng)
        blocks = decompose_via_unipotents(g, rng)
        assert len(blocks) == 7
        assert all(is_upper_unitriangular(u) for _, u in blocks)
        assert blocks_product(blocks) == g


def test_fourteen_certificate_identity(rng):
    t = diag_of_primes(QQ, 2)
    cert = decompose_as_conjugates_of(SLMatrix.identity(QQ, 2), t, rng)
    assert cert.length == 0
    assert verify_certificate(cert)


def test_fourteen_certificate_unipotent_short_circuit(rng):
    t = SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])
    cert = decompose_as_conjugates_of(elementary(QQ, 2, 1, 2, 1), t, rng)
    assert cert.length == 2
    assert verify_certificate(cert)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fourteen_certificate_random(n, field, rng):
    t = diag_of_primes(field, n)
    for _ in range(5):
        g = random_sl(field, n, rng)
        cert = decompose_as_conjugates_of(g, t, rng)
        assert cert.length <= 14
        assert cert.base == (t,)
        assert verify_certificate(cert)


def test_fourteen_certificate_rejects_degenerate_base(rng):
    t = SLMatrix.diagonal(QQ, [-1, -1])
    with pytest.raises(ValueError):
        decompose_as_conjugates_of(SLMatrix.identity(QQ, 2), t, rng)


def test_find_regular_sl2(rng):
    X = GeneratingSet.of([SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])])
    t, cert = find_regular_in_ball(X, rng)
    assert cert.length <= 4
    assert cert.target == t
    assert t.rows[0][0] != t.rows[1][1]
    assert verify_certificate(cert)


def test_find_regular_sl3(rng):
    X = GeneratingSet.of([elementary(QQ, 3, 1, 3, 1)])
    t, cert = find_regular_in_ball(X, rng)
    assert cert.length <= 8
    diag = [t.rows[i][i] for i in range(3)]
    assert len({QQ.format(d) for d in diag}) == 3
    assert verify_certificate(cert)


def test_full_certificate_identity(rng):
    X = GeneratingSet.of([elementary(QQ, 2, 1, 2, 1)])
    cert = decompose_full(SLMatrix.identity(QQ, 2), X, rng)
    assert cert.length == 0
    assert verify_certificate(cert)


@pytest.mark.parametrize("n", [2, 3])
def test_full_certificate_random(n, field, rng):
    X = GeneratingSet.of([random_sl_bounded(field, n, rng)])
    for _ in range(3):
        g = random_sl(field, n, rng)
        cert = decompose_full(g, X, rng)
        assert cert.length <= 56 * (n - 1)
        assert cert.base == X.elements
        assert verify_certificate(cert)


def test_full_certificate_deterministic_with_seed():
    X = GeneratingSet.of([SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])])
    g = SLMatrix(QQ, [[1, 2], [1, 3]])
    c1 = decompose_full(g, X, Random(5), seed=5)
    c2 = decompose_full(g, X, Random(5), seed=5)
    assert c1 == c2


def test_certified_length_bounds_the_exact_norm(rng):
    # upper-bound soundness against the exhaustive oracle on SL_2(F_11)
    field = GF(11)
    table = enumerate_group(2, 11)
    t = SLMatrix.diagonal(field, [2, 6])
    cls = table.class_of[table.index_of(t)]
    norms = norm_ball_table(table, (cls,)).norms
    for _ in range(10):
        g = random_sl(field, 2, rng)
        cert = decompose_as_conjugates_of(g, t, rng)
        assert verify_certificate(cert)
        assert cert.length >= norms[table.index_of(g)]


def test_full_certificate_length_bounds_the_exact_norm(rng):
    # same soundness check for the 56(n-1) pipeline, norms taken over the
    # classes of the generating set itself
    field = GF(11)
    table = enumerate_group(2, 11)
    x = elementary(field, 2, 1, 2, 1)
    X = GeneratingSet.of([x])
    norms = norm_ball_table(table, (table.class_of[table.index_of(x)],)).norms
    for _ in range(5):
        g = random_sl(field, 2, rng)
        cert = decompose_full(g, X, rng)
        assert verify_certificate(cert)
        assert cert.length >= norms[table.index_of(g)]


def test_conjugation_equivariance(rng):
    X = GeneratingSet.of([SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])])
    g = SLMatrix(QQ, [[1, 2], [1, 3]])
    cert = decompose_full(g, X, Random(11))
    c = SLMatrix(QQ, [[1, 1], [1, 2]])
    moved = conjugate_certificate(cert, c)
    assert moved.length == cert.length
    assert moved.target == c * g * c.inverse()
    assert verify_certificate(moved)


# -- the two-letter middle level and the smallest-radius ball


def random_regular_borel(field, n, rng):
    """Upper triangular, pairwise distinct diagonal with product 1, random
    entries above it."""
    while True:
        ds = [field.random_nonzero(rng, 5) for _ in range(n - 1)]
        prod = field.one
        for d in ds:
            prod = prod * d
        ds.append(1 / prod)
        if all(ds[i] != ds[j] for i in range(n) for j in range(i + 1, n)):
            rows = [
                [ds[i] if i == j else (field.random_scalar(rng, 2) if j > i else field.zero)
                 for j in range(n)]
                for i in range(n)
            ]
            return SLMatrix(field, rows)


def expected_short_length(g):
    if g.is_identity():
        return 0
    return 4 if is_central(g) else 2


@st.composite
def short_route_cases(draw):
    field = draw(st.sampled_from([QQ, GF(5), GF(7), GF(11), GF(101)]))
    # a regular triangular t needs p > n + 1
    n = draw(st.integers(2, 5 if field.p is None else min(5, field.p - 2)))
    rng = Random(draw(st.integers(0, 2**32)))
    t = random_regular_borel(field, n, rng)
    kind = draw(st.sampled_from(["random", "central", "diagonal", "near-scalar"]))
    if kind == "central":
        # z I with z^n = 1; the identity when no z != 1 exists
        if field.p is None:
            roots = [-1] if n % 2 == 0 else []
        else:
            roots = [z for z in range(2, field.p) if pow(z, n, field.p) == 1]
        z = rng.choice(roots) if roots else 1
        g = SLMatrix.diagonal(field, [z] * n)
    elif kind == "diagonal":
        g = SLMatrix.diagonal(field, [t.rows[i][i] for i in range(n)])
    elif kind == "near-scalar":
        # a transvection: every (x, f) choice leaves a Schur complement of
        # the same kind, the hardest case for the basis search
        g = elementary(field, n, rng.randrange(1, n), n, field.random_nonzero(rng))
    else:
        g = random_sl(field, n, rng, factors=draw(st.integers(1, 3 * n)))
    return g, t, rng


# pinned examples: the basis search is capped at BASIS_ATTEMPTS choices, so
# a fallback is possible in principle, though never seen for p > n + 1
@settings(max_examples=150, deadline=None, derandomize=True)
@given(short_route_cases())
def test_sourour_route_lengths(case):
    g, t, rng = case
    cert = decompose_via_sourour(g, t, rng)
    assert cert.stats["route"] != "fallback"
    assert cert.length == expected_short_length(g)
    assert cert.base == (t,) and cert.bound_claimed == 14
    assert verify_certificate(cert)


def test_sourour_route_falls_back_to_seven_blocks(monkeypatch):
    field = QQ
    t = diag_of_primes(field, 3)
    g = random_sl(field, 3, Random(4), factors=9)
    monkeypatch.setattr(decompose, "_sourour_basis", lambda g, alphas, rng: (None, 7))
    cert = decompose_via_sourour(g, t, Random(8))
    assert cert.stats == {"route": "fallback", "basis_attempts": 7}
    assert cert == decompose_as_conjugates_of(g, t, Random(8))
    assert cert.length > 2 and verify_certificate(cert)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_full_certificate_is_at_most_eight_per_radius(n, field, rng):
    X = GeneratingSet.of([elementary(field, n, 1, 2, 1)])
    for _ in range(3):
        g = random_sl(field, n, rng, factors=2 * n)
        cert = decompose_full(g, X, rng)
        assert cert.stats["route"] == "two-letter"
        assert cert.length <= 8 * cert.stats["radius"] <= 8 * (n - 1)
        assert cert.bound_claimed == 56 * (n - 1)
        assert verify_certificate(cert)
    if n % 2 == 0:
        cert = decompose_full(SLMatrix.diagonal(field, [-1] * n), X, rng)
        assert cert.length <= 16 * cert.stats["radius"] <= 16 * (n - 1)
        assert verify_certificate(cert)


def test_smallest_radius_follows_the_rank_bound():
    # rank(E_12(1) - 1) = 1: radius ceil(floor(n/2) / 2)
    for n, r in [(2, 1), (3, 1), (4, 1), (5, 1), (6, 2), (8, 2), (9, 2), (10, 3)]:
        assert smallest_radius(GeneratingSet.of([elementary(QQ, n, 1, 2, 1)])) == r
    # a rank-3 x - 1 reaches the open cell of SL_6 at radius 1
    x = mat_product([elementary(QQ, 6, 1, 2, 1), elementary(QQ, 6, 3, 4, 1), elementary(QQ, 6, 5, 6, 1)])
    assert smallest_radius(GeneratingSet.of([x])) == 1
    # never above n - 1
    assert smallest_radius(GeneratingSet.of([elementary(QQ, 2, 1, 2, 1)])) == 1


def test_find_regular_jumps_to_n_minus_1_after_misses_at_radius_1(monkeypatch):
    # over Q at n = 6 a ball of one commutator pair of E_12(1) never meets the
    # open cell, so the search must give radius 1 up after a run of misses
    monkeypatch.setattr(decompose, "smallest_radius", lambda X: 1)
    X = GeneratingSet.of([elementary(QQ, 6, 1, 2, 1)])
    t, cert = find_regular_in_ball(X, Random(3))
    assert cert.stats["radius"] == 5
    assert cert.stats["cell_misses"] >= decompose.MISSES_AT_RADIUS_1
    assert cert.length <= 4 * 5
    assert cert.target == t and verify_certificate(cert)


def test_find_regular_starts_at_n_minus_1_when_radius_1_cannot_reach_the_cell():
    X = GeneratingSet.of([elementary(GF(101), 6, 1, 2, 1)])
    assert smallest_radius(X) == 2
    t, cert = find_regular_in_ball(X, Random(3))
    assert cert.stats["radius"] == 5
    assert cert.target == t and verify_certificate(cert)


def test_sourour_lengths_against_exact_norms_on_sl2_11():
    # over the class of diag(2, 6) every non-central element of SL(2, 11) has
    # exact norm <= 2, the two-letter route's length; -I has norm 3, the
    # class's diameter, and the route gives it 4
    field = GF(11)
    table = enumerate_group(2, 11)
    t = SLMatrix.diagonal(field, [2, 6])
    ball = norm_ball_table(table, (table.class_of[table.index_of(t)],))
    assert ball.diameter == 3
    central = {i for i in range(table.order) if is_central(table.matrix(i))}
    assert {ball.norms[i] for i in central} == {0, 3}
    assert max(ball.norms[i] for i in range(table.order) if i not in central) == 2
    rng = Random(110)
    for i in range(table.order):
        g = table.matrix(i)
        cert = decompose_via_sourour(g, t, rng)
        assert cert.length == expected_short_length(g) >= ball.norms[i]
        assert verify_certificate(cert)


def test_require_valid_raises_on_a_wrong_word_or_length():
    X = GeneratingSet.of([SLMatrix.diagonal(QQ, [2, Fraction(1, 2)])])
    g = SLMatrix(QQ, [[1, 2], [1, 3]])
    cert = decompose_full(g, X, Random(5), seed=5)
    assert require_valid(cert) is cert
    with pytest.raises(CertificateMismatch):
        require_valid(replace(cert, bound_claimed=cert.length - 1))
    with pytest.raises(CertificateMismatch):
        require_valid(replace(cert, word=cert.word[1:]))
