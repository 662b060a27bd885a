import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import groupby, product
from operator import mul
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
    big_cell_decompose,
    bruhat_decompose,
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
from slword import bruhat, certificate
from slword.certificate import conjugate_certificate
from slword.rootdata import longest_perm

from reference_kernel import (
    ball_sample_target_by_products,
    conjugate,
    element_of_rank,
    is_scalar_rows,
    level_choices_by_brute_force,
    level_choices_rows,
    rank_rows,
    schur_in_basis,
    sourour_basis_rows,
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


def random_sl_by_elementary_product(field, n, rng, factors=None, bound=2):
    """The reference for random_sl: the same draws, in the same order, built
    as elementary matrices and multiplied out by mat_product."""
    mats = []
    for _ in range(n + 2 if factors is None else factors):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i == j:
            j = i % n + 1
        mats.append(elementary(field, n, i, j, field.random_nonzero(rng, bound)))
    return mat_product(mats)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from([QQ, GF(2), GF(5), GF(101)]),
    st.integers(2, 6),
    st.none() | st.integers(1, 20),
    st.integers(1, 3),
    st.integers(0, 2**32),
)
def test_random_sl_is_the_product_of_its_elementary_draws(field, n, factors, bound, seed):
    rng, ref_rng = Random(seed), Random(seed)
    g = random_sl(field, n, rng, factors, bound)
    assert g == random_sl_by_elementary_product(field, n, ref_rng, factors, bound)
    assert rng.random() == ref_rng.random()  # and it consumed the same draws


def test_random_sl_of_no_factors_is_the_identity():
    for field in (QQ, GF(7)):
        assert random_sl(field, 3, Random(1), factors=0).is_identity()


def random_triangular(field, n, rng, unit):
    """Upper triangular in SL_n: random entries above the diagonal, and a
    diagonal of ones or of random nonzero entries with product 1."""
    diag = [field.one if unit else field.random_nonzero(rng, 3) for _ in range(n - 1)]
    last = field.one
    for d in diag:
        last = last / d
    diag.append(last)
    rows = [[field.random_scalar(rng, 3) if j > i else field.zero for j in range(n)] for i in range(n)]
    for i, d in enumerate(diag):
        rows[i][i] = d
    return SLMatrix(field, rows)


@st.composite
def open_cell_samples(draw):
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(101)]))
    n = draw(st.integers(2, 5))
    rng = Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        # u n_0 b: in the open cell by construction
        return mat_product([random_triangular(field, n, rng, True), longest_element_rep(field, n),
                            random_triangular(field, n, rng, False)])
    return random_sl(field, n, rng, factors=draw(st.integers(0, 3 * n)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(open_cell_samples())
def test_open_cell_from_the_big_cell_factorization(s):
    # find_regular_in_ball reads s = u n_0 b off n_0^-1 s = L D U; the
    # general Bruhat form is the reference
    field, n = s.field, s.n
    n0 = longest_element_rep(field, n)
    bf = bruhat_decompose(s)
    cell = big_cell_decompose(n0.inverse() * s)
    assert (bf.w == longest_perm(n)) == (cell is not None)
    if cell is not None:
        assert bf.u == mat_product([n0, cell.lower, n0.inverse()])
        assert bf.b == cell.diag * cell.upper


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


def test_seven_blocks_refuse_a_wrong_split_under_python_O(subprocess_env):
    # the check on the seven blocks is explicit code, not an assert, so -O
    # keeps it: a split that returns (1, 1) for g != 1 must be refused
    script = (
        "from random import Random\n"
        "from slword import QQ, CertificateMismatch, SLMatrix, decompose, random_sl\n"
        "g = random_sl(QQ, 3, Random(1))\n"
        "one = SLMatrix.identity(QQ, 3)\n"
        "decompose.split_over_big_cell = lambda g, *args: (one, one)\n"
        "try:\n"
        "    decompose.decompose_via_unipotents(g, Random(1))\n"
        "except CertificateMismatch as exc:\n"
        "    print('refused:', exc)\n"
    )
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                       env=subprocess_env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "refused: the seven blocks do not multiply to the target\n"


def test_fourteen_certificate_is_checked_once(rng, monkeypatch):
    # decompose_as_conjugates_of multiplies its word out once, by
    # require_valid, and builds the blocks without the checked entry point
    calls = []
    real = certificate.verify_certificate

    def counting(cert):
        calls.append(cert)
        return real(cert)

    def refuse(*args, **kwargs):
        raise AssertionError("the checked seven-block entry point was called")

    monkeypatch.setattr(certificate, "verify_certificate", counting)
    monkeypatch.setattr(decompose, "decompose_via_unipotents", refuse)
    t = diag_of_primes(QQ, 3)
    g = random_sl(QQ, 3, rng)
    cert = decompose_as_conjugates_of(g, t, rng)
    assert calls == [cert]
    assert cert.length <= 14


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
    moved = conjugate_certificate(cert, c, conjugate(g, c))
    assert moved.length == cert.length
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
        # a transvection, I + rank 1: at pivot 1 every x has an f that
        # leaves a scalar Schur complement, the hard case for the level rule
        g = elementary(field, n, rng.randrange(1, n), n, field.random_nonzero(rng))
    else:
        g = random_sl(field, n, rng, factors=draw(st.integers(1, 3 * n)))
    return g, t, rng


@contextmanager
def seven_blocks_forbidden():
    """Fail if the two-letter route reaches the seven-block route."""

    def refuse(*args, **kwargs):
        raise AssertionError("the certify path reached the seven-block route")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "_seven_block_certificate", refuse)
        mp.setattr(decompose, "split_over_big_cell", refuse)
        mp.setattr(bruhat, "split_over_big_cell", refuse)
        yield


# pinned examples; the level rule always finds a basis, so the length is
# exact and the seven-block route is never reached
@settings(max_examples=150, deadline=None, derandomize=True)
@given(short_route_cases())
def test_sourour_route_lengths(case):
    g, t, _ = case
    with seven_blocks_forbidden():
        cert = decompose_via_sourour(g, t)
    assert cert.length == expected_short_length(g)
    assert cert.base == (t,) and cert.bound_claimed == 14
    assert verify_certificate(cert)


# Sourour's basis on the flat ints against the scalar rows it was built on
@settings(max_examples=150, deadline=None, derandomize=True)
@given(short_route_cases())
def test_flat_sourour_basis_equals_the_scalar_one(case):
    g, t, _ = case
    field, n = g.field, g.n
    if is_central(g):
        g = g * elementary(field, n, 1, 2, -1)
    d, ds = t.entries[:: n + 1], [t.rows[i][i] for i in range(n)]
    flat = decompose._sourour_basis(g, [(d[n - 1 - k], d[k]) for k in range(n)])
    assert flat == sourour_basis_rows(g, [ds[n - 1 - k] / ds[k] for k in range(n)])


def test_two_letter_route_refuses_a_wrong_borel_solve_under_python_O(subprocess_env):
    # nothing in the flat kernels rests on an assert: a solve in the Borel
    # that returns a wrong v is caught by the one exact check, also under -O
    script = (
        "from random import Random\n"
        "from slword import QQ, CertificateMismatch, SLMatrix, decompose, elementary, random_sl\n"
        "g = random_sl(QQ, 3, Random(1))\n"
        "t = SLMatrix(QQ, [[2, 1, 0], [0, 3, 1], [0, 0, '1/6']])\n"
        "real = decompose._conjugate_in_borel\n"
        "decompose._conjugate_in_borel = lambda a, b: real(a, b) * elementary(QQ, 3, 1, 2, 1)\n"
        "try:\n"
        "    decompose.decompose_via_sourour(g, t)\n"
        "except CertificateMismatch as exc:\n"
        "    print('refused:', exc)\n"
    )
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                       env=subprocess_env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "refused: the constructed word does not multiply to the target\n"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_full_certificate_is_at_most_eight_per_radius(n, field, rng):
    with seven_blocks_forbidden():
        _full_certificates_are_at_most_eight_per_radius(n, field, rng)


def _full_certificates_are_at_most_eight_per_radius(n, field, rng):
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


# -- the level rule of Sourour's basis, ``decompose._choices``


def dot(u, v, field):
    return sum(map(mul, u, v), field.zero)


def rule_choice(a, alpha, field):
    """The choice the flat level rule takes for the scalar rows a over F_p,
    checked: every (x, f) it lists up to that one equals the scalar rule's,
    has x, ax independent, f(x) = 1 and f(ax) = alpha, and it is the first
    whose Schur complement, by the reference's change of basis, is not
    scalar (the first of all at size 2)."""
    m = len(a)
    flat = decompose._choices([[e.val for e in row] for row in a], alpha.val, field.p)
    for (xs, fs, fd), want in zip(flat, level_choices_rows(a, alpha, field)):
        x = [field.scalar(v) for v in xs]
        f = [field.scalar(v) / fd for v in fs]
        assert (x, f) == want
        y = [dot(row, x, field) for row in a]
        assert any(x[i] * y[k] != x[k] * y[i] for i in range(m) for k in range(i + 1, m))
        assert dot(f, x, field) == field.one and dot(f, y, field) == alpha
        if m == 2 or not is_scalar_rows(schur_in_basis(a, x, f, field)):
            return x, f
    raise AssertionError(f"the level rule has no choice for {a} at pivot {alpha}")


def diagonal_levels(field, m):
    for d in product(range(1, field.p), repeat=m):
        if len(set(d)) > 1:
            yield [[field.scalar(d[i] if i == j else 0) for j in range(m)] for i in range(m)]


def sparse_vector(field, m, rng):
    # zeros half the time: sparse u, v are the ones a sparse choice can hit
    return [rng.randrange(field.p) if rng.random() < 0.5 else 0 for _ in range(m)]


def scalar_plus_rank_one_levels(field, m, rng, count=150):
    """lambda I + u v^T, invertible and not scalar."""
    p = field.p
    while count:
        lam, u, v = rng.randrange(1, p), sparse_vector(field, m, rng), sparse_vector(field, m, rng)
        if any(u) and any(v) and (lam + sum(map(mul, u, v))) % p:  # det = lam^(m-1) (lam + v.u)
            count -= 1
            yield [[field.scalar((lam if i == j else 0) + u[i] * v[j]) for j in range(m)] for i in range(m)]


def opposite_off_diagonal_levels(field, rng, count=150):
    """3x3, not diagonal, with a_li = -a_lj for i, j, l distinct: no
    e_i + e_j leaves span(e_i, e_j), the case of step 4 in ``_choices``."""
    while count:
        d = [rng.randrange(field.p) for _ in range(3)]
        off = sparse_vector(field, 3, rng)
        rows = [[d[i] if i == j else 0 for j in range(3)] for i in range(3)]
        for l in range(3):
            i, j = (k for k in range(3) if k != l)
            rows[l][i], rows[l][j] = off[l], -off[l]
        a = [[field.scalar(e) for e in row] for row in rows]
        if any(off) and rank_rows(a) == 3:
            count -= 1
            yield a


def test_level_rule_is_total_on_its_hard_families():
    rng = Random(17)
    for field in (GF(5), GF(7)):
        levels = [a for m in (2, 3, 4) for a in diagonal_levels(field, m)]
        levels += [a for m in (3, 4) for a in scalar_plus_rank_one_levels(field, m, rng)]
        levels += list(opposite_off_diagonal_levels(field, rng))
        for a in levels:
            for alpha in range(1, field.p):
                rule_choice(a, field.scalar(alpha), field)


def test_reference_hard_levels_lie_in_the_swept_families():
    # the reference calls a level hard when every x has an f that leaves a
    # scalar complement, so that no x is safe on its own.  (x, f) ->
    # (P x, f P^-1) carries the choices for a onto those for P a P^-1 with the
    # same complement, so over F_5 at m = 3 one matrix per conjugacy class
    # (its rational canonical form) covers every level.  The hard ones are
    # lambda I + rank 1 at alpha = its other eigenvalue, a family swept above
    field, p = GF(5), 5
    forms = [[[0, 0, -c0], [1, 0, -c1], [0, 1, -c2]] for c0, c1, c2 in product(range(p), repeat=3) if c0]
    forms += [[[lam, 0, 0], [0, 0, -lam * mu], [0, 1, lam + mu]]
              for lam in range(1, p) for mu in range(1, p)]
    hard, expected = set(), set()
    for i, form in enumerate(forms):
        a = [[field.scalar(e) for e in row] for row in form]
        trace = sum(form[k][k] for k in range(3))
        for lam in range(1, p):
            if rank_rows([[a[r][c] - field.scalar(lam if r == c else 0) for c in range(3)] for r in range(3)]) == 1:
                expected.add((i, (trace - 2 * lam) % p))
        for alpha in range(1, p):
            choices = level_choices_by_brute_force(a, field.scalar(alpha), field)
            if all(any(c[2] for c in group) for _, group in groupby(choices, key=lambda c: c[0])):
                hard.add((i, alpha))
    assert len(hard) == 16 and hard == expected


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "F101"])
@pytest.mark.parametrize("family", ["a", "b", "c"])
def test_each_level_rule_decides_an_end_to_end_target(field, family, monkeypatch):
    # t's first pivot is d_3 / d_1 = 1/4: a transvection takes a sparse x
    # (a); diag(3, 1, 1/3) has no entry 1/4 and takes x = e_i + e_j (b);
    # diag(1/4, 2, 2) has 1/4 simple and every pair failing, so it takes (c)
    taken = []
    real = decompose._choices

    def spy(a, al, p):
        for choice in real(a, al, p):
            taken.append((len(a), choice))
            yield choice

    monkeypatch.setattr(decompose, "_choices", spy)
    one = field.one
    t = SLMatrix.diagonal(field, [2, 1, one / 2])
    g = {"a": elementary(field, 3, 1, 2, 1),
         "b": SLMatrix.diagonal(field, [3, 1, one / 3]),
         "c": SLMatrix.diagonal(field, [one / 4, 2, 2])}[family]
    cert = decompose_via_sourour(g, t)
    assert cert.length == 2 and verify_certificate(cert)
    x, f, _ = [choice for m, choice in taken if m == 3][-1]  # the top level's last, so its pick
    support = {i for i in range(3) if x[i]}
    assert family == ("a" if len(support) == 1 else "b" if {i for i in range(3) if f[i]} <= support else "c")


def test_smallest_radius_follows_the_rank_bound():
    # rank(E_12(1) - 1) = 1: radius ceil(floor(n/2) / 2)
    for n, r in [(2, 1), (3, 1), (4, 1), (5, 1), (6, 2), (8, 2), (9, 2), (10, 3)]:
        assert smallest_radius(GeneratingSet.of([elementary(QQ, n, 1, 2, 1)])) == r
    # a rank-3 x - 1 reaches the open cell of SL_6 at radius 1
    x = mat_product([elementary(QQ, 6, 1, 2, 1), elementary(QQ, 6, 3, 4, 1), elementary(QQ, 6, 5, 6, 1)])
    assert smallest_radius(GeneratingSet.of([x])) == 1
    # never above n - 1
    assert smallest_radius(GeneratingSet.of([elementary(QQ, 2, 1, 2, 1)])) == 1


@pytest.mark.parametrize("p", [None, 7, 101])
@pytest.mark.parametrize("n", range(2, 7))
def test_ball_sample_target_matches_full_products(p, n):
    # the low-rank target of a ball sample equals the chain of full products
    # for the same draws, over bases of rank 1, n - 1 and n and a central one
    field = QQ if p is None else GF(p)
    rng = Random(10 * n + (p or 0))
    elements = [element_of_rank(field, n, rho, rng) for rho in sorted({1, n - 1, n})]
    X = GeneratingSet.of(elements + [SLMatrix.identity(field, n)])
    for radius in (1, 2, 3):
        for seed in range(4):
            sample = decompose._sample_ball_element(X, Random(seed), radius)
            assert sample.target == ball_sample_target_by_products(X, Random(seed), radius)
            assert sample.length == 2 * radius and verify_certificate(sample)


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
    for i in range(table.order):
        g = table.matrix(i)
        cert = decompose_via_sourour(g, t)
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
