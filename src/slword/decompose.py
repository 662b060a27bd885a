"""End-to-end conjugate-word factorizations in SL_n with verifiable bounds.

The pipeline, bottom to top:

- ``decompose_via_sourour``: the middle level.  Let t be regular upper
  triangular with diagonal d.  By Sourour's factorization theorem (A. R.
  Sourour, Linear and Multilinear Algebra 19 (1986) 141-147) a non-central g
  is S L U S^-1 with L lower triangular of diagonal (d_n, ..., d_1) and U
  upper triangular of diagonal (d_1^-1, ..., d_n^-1).  S is built one basis
  vector at a time: for the current matrix A pick x with x, Ax independent
  and a functional f with f(x) = 1 and f(Ax) = d_{n+1-k} / d_k, change basis
  to (x, ker f) and recurse on the Schur complement, which must stay
  non-scalar while its size is at least 2.  Sparse choices (x = e_j, f on two coordinates) are tried first,
  with backtracking, then seeded random ones.  n_0^-1 L n_0 and U are upper
  triangular with the diagonals of t and t^-1, so each is one conjugate of
  t^{+-1} (``unipotent.diagonalize_in_borel``), and g = (c_1 t c_1^-1)
  (c_2 t^-1 c_2^-1): 2 letters.  A central g != 1 is (g E_12(-1)) E_12(1),
  4 letters.  Sourour's theorem says such an S exists for every
  non-central g; the search is capped at ``BASIS_ATTEMPTS`` choices, and if
  it gives up the route falls back to ``decompose_as_conjugates_of``.  On
  random, transvection and diagonal targets over F_5, F_7 and F_11,
  n = 2..5, it never needed more than 7 choices.

- ``decompose_via_unipotents`` and ``decompose_as_conjugates_of``: the
  paper's route, kept as the fallback and as the tests' reference.  Any g is
  a product of exactly seven conjugates of upper unitriangular matrices:
  split g = h * h' with h^-1 and h' in the big cell, factor both, and regroup
  as g = u_1^-1 * lo * t * u_2 (lo in U-, t diagonal); lo is n_0-conjugated
  into U, and t's 4(n-1) root-group factors are grouped into two lower and
  two upper blocks.  Each unipotent block is two conjugates of t, so at most
  14 letters over {t}; identity blocks are skipped and an upper unitriangular
  target short-circuits to 2.

- ``find_regular_in_ball``: given a normal generating set X, sample products
  of r commutator pairs (2r letters each, so certified ball elements) until
  two of them land in the open Bruhat cell; after conjugating them to the
  forms x * n_0 and n_0 * x_1, t = x * n_0^2 * x_1 is upper triangular with
  a certificate of length at most 4r, and it is retried until its diagonal
  is pairwise distinct.  The radius is 1 when the rank bound of
  ``smallest_radius`` lets a ball of radius 1 reach the open cell, and n - 1
  otherwise or after a fixed run of misses at radius 1.

- ``decompose_full``: t from the ball, g over t by ``decompose_via_sourour``,
  every t^{+-1} letter expanded through t's own certificate: at most
  2 * 4r = 8r letters over X for a non-central g and 16r for a central one,
  so at most 8(n-1) and 16(n-1).  The claimed bound stays 56(n-1), which
  the fallback also meets.

Every returned certificate is checked once, exactly, by ``require_valid``;
the levels it is built from are not re-verified.  With a fixed seed the
whole pipeline is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import mul
from random import Random

from .bruhat import SearchBudgetExceeded, big_cell_decompose, bruhat_decompose, split_over_big_cell
from .certificate import (
    Certificate,
    Letter,
    conjugate_certificate,
    require_valid,
    substitute_certificate,
)
from .fields import Field
from .matrix import (
    SLMatrix,
    is_central,
    is_upper_unitriangular,
    mat_product,
)
from .rootdata import elementary, longest_element_rep, longest_perm
from .torus import torus_factor
from .unipotent import _require_regular_borel, diagonalize_in_borel, unipotent_as_two_conjugates

# consecutive open-cell misses after which the ball search gives up
# radius 1 for radius n - 1
MISSES_AT_RADIUS_1 = 64
# (x, f) choices the basis search may try in all, and seeded random ones it
# may try at each level once the sparse ones are spent
BASIS_ATTEMPTS = 512
RANDOM_PER_LEVEL = 64


@dataclass(frozen=True)
class GeneratingSet:
    """A finite set of SL_n matrices meant to normally generate.

    Scalar matrices are central, normally generate nothing beyond the center,
    and make the samplers spin forever; a set with no noncentral element is
    therefore rejected outright.
    """

    field: Field
    n: int
    elements: tuple[SLMatrix, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("empty generating set")
        for x in self.elements:
            if x.field != self.field or x.n != self.n:
                raise ValueError("generating set mixes fields or dimensions")
        if not self.noncentral_indices:
            raise ValueError("every element is central; the set cannot normally generate SL_n")

    @classmethod
    def of(cls, elements) -> "GeneratingSet":
        elements = tuple(elements)
        if not elements:
            raise ValueError("empty generating set")
        return cls(field=elements[0].field, n=elements[0].n, elements=elements)

    @property
    def noncentral_indices(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.elements) if not is_central(x))


def random_sl(field: Field, n: int, rng: Random, factors: int | None = None, bound: int = 2) -> SLMatrix:
    """Random SL_n element: a product of random elementary matrices."""
    if factors is None:
        factors = n + 2
    mats = []
    for _ in range(factors):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i == j:
            j = i % n + 1
        mats.append(elementary(field, n, i, j, field.random_nonzero(rng, bound)))
    return mat_product(mats)


def random_sl_bounded(field: Field, n: int, rng: Random, bound: int = 10, tries: int = 10_000) -> SLMatrix:
    """Random SL_n element whose entries have height at most ``bound``.

    Over F_p every entry qualifies; over Q this rejection-samples short
    elementary products until the entries stay small.
    """
    for _ in range(tries):
        g = random_sl(field, n, rng, factors=n + 1, bound=1)
        if field.p is not None:
            return g
        ok = all(
            abs(e.numerator) <= bound and e.denominator <= bound
            for row in g.rows
            for e in row
        )
        if ok:
            return g
    raise SearchBudgetExceeded("sampling a height-bounded element", tries)


def decompose_via_unipotents(
    g: SLMatrix, rng: Random, budget: int = 10_000
) -> list[tuple[SLMatrix, SLMatrix]]:
    """Exactly seven pairs (c, u) with u upper unitriangular and
    g = prod of c * u * c^-1 in order."""
    field, n = g.field, g.n
    ident = SLMatrix.identity(field, n)
    if g.is_identity():
        return [(ident, ident)] * 7

    h, hp = split_over_big_cell(g, rng, budget)
    f1 = big_cell_decompose(h.inverse())
    f2 = big_cell_decompose(hp)
    # g = u1^-1 * (t1^-1 (lo1^-1 lo2) t1) * (t1^-1 t2) * u2
    u1i = f1.upper.inverse()
    t1i = f1.diag.inverse()
    lo = mat_product([t1i, f1.lower.inverse(), f2.lower, f1.diag])
    t = t1i * f2.diag
    u2 = f2.upper

    n0 = longest_element_rep(field, n)
    n0i = n0.inverse()

    def into_upper(lower_mat: SLMatrix) -> tuple[SLMatrix, SLMatrix]:
        u = mat_product([n0i, lower_mat, n0])
        assert is_upper_unitriangular(u)
        return (n0, u)

    roots = torus_factor(t)
    r = n - 1
    x_blk = mat_product(roots[:r])          # lower
    u_blk = mat_product(roots[r : 2 * r])   # upper
    v_blk = mat_product(roots[2 * r : 3 * r])  # lower
    w_blk = mat_product(roots[3 * r :])     # upper

    blocks = [
        (ident, u1i),
        into_upper(lo),
        into_upper(x_blk),
        (ident, u_blk),
        into_upper(v_blk),
        (ident, w_blk),
        (ident, u2),
    ]
    for _, u in blocks:
        assert is_upper_unitriangular(u)
    assert mat_product([mat_product([c, u, c.inverse()]) for c, u in blocks]) == g
    return blocks


def _seven_block_certificate(g: SLMatrix, t: SLMatrix, rng: Random, budget: int) -> Certificate:
    """The paper's route over {t}, unchecked: at most 14 letters."""
    if g.is_identity():
        word: tuple[Letter, ...] = ()
    elif is_upper_unitriangular(g):
        word = unipotent_as_two_conjugates(t, g).word
    else:
        letters = []
        for c, u in decompose_via_unipotents(g, rng, budget):
            if u.is_identity():
                continue
            for l in unipotent_as_two_conjugates(t, u).word:
                letters.append(Letter(c * l.conjugator, 0, l.exponent))
        word = tuple(letters)
    return Certificate(field=g.field, n=g.n, target=g, base=(t,), word=word, bound_claimed=14)


def _check_base(g: SLMatrix, t: SLMatrix) -> None:
    _require_regular_borel(t)
    if t.field != g.field or t.n != g.n:
        raise ValueError("dimension/field mismatch between target and base element")


def decompose_as_conjugates_of(
    g: SLMatrix, t: SLMatrix, rng: Random, budget: int = 10_000
) -> Certificate:
    """Certificate of length at most 14 for g over the single base element t
    (upper triangular, pairwise distinct diagonal), by the seven-block route."""
    _check_base(g, t)
    return require_valid(_seven_block_certificate(g, t, rng, budget))


# -- Sourour's construction, on scalar rows (Fraction or Fp)


def _choices(a: list, alpha, field: Field, rng: Random):
    """(x, f) with x, ax independent, f(x) = 1 and f(ax) = alpha: first
    x = e_j with f on at most two coordinates, then seeded random ones."""
    m, one, zero = len(a), field.one, field.zero
    for j in range(m):
        col = [row[j] for row in a]
        if not any(col[:j] + col[j + 1 :]):
            continue  # e_j is an eigenvector
        x = [zero] * m
        x[j] = one
        if col[j] == alpha:
            yield x, x
            continue
        for k in range(m):
            if k != j and col[k]:
                f = list(x)
                f[k] = (alpha - col[j]) / col[k]
                yield x, f
    for _ in range(RANDOM_PER_LEVEL):
        x = [field.random_scalar(rng, 2) for _ in range(m)]
        y = [sum(map(mul, row, x)) for row in a]
        pair = next(((i, k) for i in range(m) for k in range(i + 1, m) if x[i] * y[k] != x[k] * y[i]), None)
        if pair is None:
            continue
        # f random off the pair, then solved on it for f(x) = 1, f(y) = alpha
        i, k = pair
        f = [field.random_scalar(rng, 2) for _ in range(m)]
        f[i] = f[k] = zero
        b1, b2 = 1 - sum(map(mul, f, x)), alpha - sum(map(mul, f, y))
        det = x[i] * y[k] - x[k] * y[i]
        f[i] = (b1 * y[k] - x[k] * b2) / det
        f[k] = (x[i] * b2 - b1 * y[i]) / det
        yield x, f


def _sourour_search(a: list, alphas: list, field: Field, rng: Random, spent: list) -> list | None:
    """Columns of S with det S = 1 and S^-1 a S = L U, where L U has the
    successive pivots alphas; None when the choices, or the attempts, run out.

    For a choice (x, f) with pivot p (the first f_p != 0), the basis is
    (s x, e_i - (f_i / f_p) e_p for i != p) with s = (-1)^p f_p, which makes
    its determinant 1; in it a has (1,1) entry f(ax) = alpha, and the Schur
    complement of that entry is the next level's matrix.
    """
    m, alpha = len(a), alphas[0]
    for x, f in _choices(a, alpha, field, rng):
        if spent[0] == BASIS_ATTEMPTS:
            return None
        spent[0] += 1
        p = next(i for i in range(m) if f[i])
        basis = [x]
        for i in range(m):
            if i != p:
                b = [field.zero] * m
                b[i], b[p] = field.one, -f[i] / f[p]
                basis.append(b)
        # cols[j][i] is entry (i, j) of a in that basis: the coordinates of
        # a b_j are f(a b_j), then (a b_j)_i - f(a b_j) x_i for i != p
        cols = []
        for b in basis:
            y = [sum(map(mul, row, b)) for row in a]
            c0 = sum(map(mul, f, y))
            cols.append([c0] + [y[i] - c0 * x[i] for i in range(m) if i != p])
        schur = [[cols[j][i] - cols[0][i] * cols[j][0] / alpha for j in range(1, m)] for i in range(1, m)]
        if m == 2:
            sub = [[field.one]]
        elif _is_scalar(schur):
            continue
        else:
            sub = _sourour_search(schur, alphas[1:], field, rng, spent)
            if sub is None:
                continue
        s = f[p] if p % 2 == 0 else -f[p]
        # S = [s x | basis[1:]] * diag(1, sub)
        return [[s * v for v in x]] + [
            [sum(basis[1 + k][r] * c[k] for k in range(m - 1)) for r in range(m)] for c in sub
        ]
    return None


def _is_scalar(a: list) -> bool:
    return all(a[i][j] == (a[0][0] if i == j else 0) for i in range(len(a)) for j in range(len(a)))


def _sourour_basis(g: SLMatrix, alphas: list, rng: Random) -> tuple[SLMatrix | None, int]:
    """(S, attempts): S in SL_n with S^-1 g S = L U, L lower and U upper
    triangular, the product of their k-th diagonal entries alphas[k]; S is
    None if the search found none within ``BASIS_ATTEMPTS`` choices."""
    spent = [0]
    cols = _sourour_search([list(r) for r in g.rows], alphas, g.field, rng, spent)
    if cols is None:
        return None, spent[0]
    return SLMatrix(g.field, [[c[i] for c in cols] for i in range(g.n)]), spent[0]


def _two_letter_word(g: SLMatrix, t: SLMatrix, rng: Random) -> tuple[tuple, int]:
    """(word, attempts): g = (c_1 t c_1^-1)(c_2 t^-1 c_2^-1) for a non-central
    g, or an empty word if the basis search failed."""
    field, n = g.field, g.n
    d = [row[i] for i, row in enumerate(t.rows)]
    beta = d[::-1]
    gamma = [1 / x for x in d]
    s, attempts = _sourour_basis(g, [b * c for b, c in zip(beta, gamma)], rng)
    if s is None:
        return (), attempts
    cell = big_cell_decompose(mat_product([s.inverse(), g, s]))
    lower = cell.lower * SLMatrix.diagonal(field, beta)
    upper = SLMatrix.diagonal(field, gamma) * cell.upper
    n0 = longest_element_rep(field, n)
    # n_0^-1 L n_0 has t's diagonal and U has t^-1's, so through the common
    # diagonal: v1 (n_0^-1 L n_0) v1^-1 = vt t vt^-1, v2 U v2^-1 = vt t^-1 vt^-1
    vt, _ = diagonalize_in_borel(t)
    v1, _ = diagonalize_in_borel(mat_product([n0.inverse(), lower, n0]))
    v2, _ = diagonalize_in_borel(upper)
    c1 = mat_product([s, n0, v1.inverse(), vt])
    c2 = mat_product([s, v2.inverse(), vt])
    return (Letter(c1, 0, +1), Letter(c2, 0, -1)), attempts


def _short_certificate(g: SLMatrix, t: SLMatrix, rng: Random, budget: int) -> Certificate:
    """g over {t} by Sourour's construction, unchecked: 0 letters for 1,
    2 for a non-central g, 4 for a central one; the seven-block route when
    the basis search fails.  ``stats`` names the route and the attempts."""
    field, n = g.field, g.n
    if g.is_identity():
        return Certificate(field=field, n=n, target=g, base=(t,), word=(), bound_claimed=14,
                           stats={"route": "identity", "basis_attempts": 0})
    if is_central(g):
        # z = (z E_12(-1)) E_12(1): a non-central element and a unipotent one
        h = g * elementary(field, n, 1, 2, -1)
        word, attempts = _two_letter_word(h, t, rng)
        if word:
            word += unipotent_as_two_conjugates(t, elementary(field, n, 1, 2, 1)).word
        route = "two-letter (central: 4 letters)"
    else:
        word, attempts = _two_letter_word(g, t, rng)
        route = "two-letter"
    if not word:
        fallback = _seven_block_certificate(g, t, rng, budget)
        return replace(fallback, stats={"route": "fallback", "basis_attempts": attempts})
    return Certificate(field=field, n=n, target=g, base=(t,), word=word, bound_claimed=14,
                       stats={"route": route, "basis_attempts": attempts})


def decompose_via_sourour(
    g: SLMatrix, t: SLMatrix, rng: Random, budget: int = 10_000
) -> Certificate:
    """Certificate for g over the single base element t (upper triangular,
    pairwise distinct diagonal): 2 letters for a non-central g, 4 for a
    central g != 1, 0 for 1.  Falls back to the seven-block route (at most
    14 letters) when the basis search fails; the claimed bound is 14."""
    _check_base(g, t)
    return require_valid(_short_certificate(g, t, rng, budget))


# -- the regular element t from a ball of X


def _sample_ball_element(X: GeneratingSet, rng: Random, radius: int) -> Certificate:
    """A random certified element of the 2r-ball: a product of r commutator
    blocks (h x h^-1)(k x^-1 k^-1) with x drawn from the noncentral part of X."""
    field, n = X.field, X.n
    letters = []
    chain = []
    for _ in range(radius):
        idx = rng.choice(X.noncentral_indices)
        x = X.elements[idx]
        h = random_sl(field, n, rng)
        k = random_sl(field, n, rng)
        letters.append(Letter(h, idx, +1))
        letters.append(Letter(k, idx, -1))
        chain.extend([h, x, h.inverse(), k, x.inverse(), k.inverse()])
    return Certificate(
        field=field, n=n, target=mat_product(chain), base=X.elements, word=tuple(letters)
    )


def _rank(rows: list) -> int:
    """Rank of a matrix of field scalars, by Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def smallest_radius(X: GeneratingSet) -> int:
    """The smallest r whose ball of r commutator pairs can meet the open cell.

    With rho = max rank(x - 1) over the noncentral x in X, every s in that
    ball has rank(s - 1) <= 2 r rho.  The lower-left floor(n/2) block of the
    identity is zero, so s can only lie in the open cell, which needs that
    block of s invertible, when 2 r rho >= floor(n/2).  Never above n - 1.
    """
    n = X.n
    rho = max(
        _rank([[e - (i == j) for j, e in enumerate(row)] for i, row in enumerate(X.elements[k].rows)])
        for k in X.noncentral_indices
    )
    return min(n - 1, max(1, -(-(n // 2) // (2 * rho))))


def find_regular_in_ball(
    X: GeneratingSet, rng: Random, budget: int = 10_000
) -> tuple[SLMatrix, Certificate]:
    """A regular upper triangular t with a certificate of length <= 4r over
    X: t = x * n_0^2 * x_1 built from two certified open-cell samples of r
    commutator pairs each.

    The radius r is 1 when ``smallest_radius(X)`` is 1, and n - 1, the
    paper's radius, otherwise: the rank bound is necessary, not sufficient,
    and at F_101 n = 8 the radius-2 ball it allows never met the open cell
    in 200 samples, so a search that climbs from there costs more than one
    at n - 1.  After ``MISSES_AT_RADIUS_1`` consecutive misses at radius 1,
    r jumps to n - 1.  ``budget`` caps the samples drawn; when it
    runs out the error names the stage that spent most of it: samples outside
    the open cell, or open-cell samples whose pair gave a repeated diagonal.

    Over F_p with p <= n + 1 no such t exists: its diagonal would need n
    distinct nonzero residues with product 1, but p <= n leaves too few, and
    p = n + 1 forces all of them, whose product is -1 (Wilson).  Those fields
    raise ``ValueError`` before any sampling.
    """
    field, n = X.field, X.n
    if field.p is not None and field.p <= n + 1:
        raise ValueError(
            f"SL_{n}(F_{field.p}) has no upper triangular element with {n} distinct "
            f"diagonal entries; the regular-element search needs p > {n + 1}"
        )
    r = first = 1 if smallest_radius(X) == 1 else n - 1
    w0 = longest_perm(n)
    attempts = misses = run = rejected = 0
    left = None  # an open-cell sample of the form x * n_0, awaiting its partner
    while attempts < budget:
        attempts += 1
        cert = _sample_ball_element(X, rng, r)
        bf = bruhat_decompose(cert.target)
        if bf.w != w0:
            misses += 1
            run += 1
            if run == MISSES_AT_RADIUS_1:
                r = n - 1
            continue
        run = 0
        if left is None:
            # b (u n_0 b) b^-1 = (b u) n_0
            left = conjugate_certificate(cert, bf.b)
            continue
        # u^-1 (u n_0 b) u = n_0 (b u)
        right = conjugate_certificate(cert, bf.u.inverse())
        t = left.target * right.target
        word = left.word + right.word
        left = None
        diag = t.entries[:: n + 1]  # one common denominator: equal ints, equal entries
        if not all(diag[i] != diag[j] for i in range(n) for j in range(i + 1, n)):
            rejected += 2
            continue
        stats = {"radius": r, "samples": attempts, "cell_misses": misses,
                 "diagonal_retries": rejected // 2}
        return t, Certificate(field=field, n=n, target=t, base=X.elements, word=word,
                              bound_claimed=4 * r, stats=stats)
    radii = f"radius {r}" if r == first else f"radius {first}, then {r}"
    if rejected > attempts - rejected:
        what = (f"sampling a regular element with distinct diagonal at {radii} ({rejected} of "
                f"{attempts} samples went into pairs with a repeated diagonal, {misses} missed "
                f"the open Bruhat cell)")
    else:
        what = (f"sampling the open Bruhat cell at {radii} ({misses} of {attempts} samples "
                f"missed it, {rejected} went into pairs with a repeated diagonal)")
    raise SearchBudgetExceeded(what, attempts)


def decompose_full(
    g: SLMatrix,
    X: GeneratingSet,
    rng: Random,
    budget: int = 10_000,
    seed: int | None = None,
) -> Certificate:
    """Certificate for g over base X: at most 8r letters for a non-central g
    and 16r for a central one, r the radius of t's ball (at most n - 1); the
    claimed bound is the paper route's 56(n-1).  ``stats`` carries the route,
    the radius and the attempts of each search."""
    if g.field != X.field or g.n != X.n:
        raise ValueError("dimension/field mismatch between target and generating set")
    bound = 56 * (g.n - 1)
    if g.is_identity():
        return Certificate(
            field=g.field, n=g.n, target=g, base=X.elements, word=(), seed=seed,
            bound_claimed=bound, stats={"route": "identity"},
        )

    t, t_cert = find_regular_in_ball(X, rng, budget)
    mid = _short_certificate(g, t, rng, budget)
    cert = replace(
        substitute_certificate(mid, t_cert),
        seed=seed,
        bound_claimed=bound,
        stats={**mid.stats, **t_cert.stats},
    )
    return require_valid(cert)
