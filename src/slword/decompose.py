"""End-to-end conjugate-word factorizations in SL_n with verifiable bounds.

The pipeline, bottom to top:

- ``decompose_via_sourour``: the middle level.  Let t be regular upper
  triangular with diagonal d.  By Sourour's factorization theorem (A. R.
  Sourour, Linear and Multilinear Algebra 19 (1986) 141-147) a non-central g
  is S L U S^-1 with L lower triangular of diagonal (d_n, ..., d_1) and U
  upper triangular of diagonal (d_1^-1, ..., d_n^-1).  S is built one basis
  vector at a time: for the current matrix A pick x with x, Ax independent
  and a functional f with f(x) = 1 and f(Ax) = d_{n+1-k} / d_k, change basis
  to (x, ker f) and go on with the Schur complement, which must stay
  non-scalar while its size is at least 2.  The rule, ``_choices``, tries
  x = e_j, then e_i + e_j, with f on at most two coordinates, then one
  choice for a diagonal A.  It always holds a valid choice: the complement
  is the scalar c only if (A - c) ker f <= span(Ax), which for each x fixes
  c and f.  So S is built, with no search, random draw or fallback.
  n_0^-1 L n_0 and U are upper triangular with the diagonals of
  t and t^-1, so each is one unitriangular conjugate of t^{+-1}
  (``unipotent._conjugate_in_borel``), and g = (c_1 t c_1^-1)
  (c_2 t^-1 c_2^-1): 2 letters.  A central g != 1 is (g E_12(-1)) E_12(1),
  4 letters.  All of it runs on the flat ints.

- ``decompose_via_unipotents`` and ``decompose_as_conjugates_of``: the
  paper's route, kept as the tests' reference.  Any g is
  a product of exactly seven conjugates of upper unitriangular matrices:
  split g = h * h' with h' upper unitriangular and h^-1 in the big cell, by
  the fixed row operations of ``bruhat.split_over_big_cell``, factor h^-1,
  and regroup as g = u_1^-1 * lo * t * h' (lo in U-, t diagonal); lo is
  n_0-conjugated into U, and t's 4(n-1) root-group factors are grouped into
  two lower and two upper blocks.  Each unipotent block is two conjugates of
  t, so at most 14 letters over {t}; identity blocks are skipped and an upper
  unitriangular target short-circuits to 2.  The route draws nothing at
  random; ``decompose_via_unipotents`` checks its blocks once and
  ``decompose_as_conjugates_of`` its certificate once.

- ``find_regular_in_ball``: given a normal generating set X, sample products
  of r commutator pairs (2r letters each, so certified ball elements) until
  two samples s land in the open Bruhat cell, read off the big-cell
  factorization of n_0^-1 s; conjugated to the forms x * n_0 and n_0 * x_1,
  they give t = x * n_0^2 * x_1, upper triangular with a certificate of
  length at most 4r, retried until its diagonal is pairwise distinct.  The
  radius is 1 when the rank bound of ``smallest_radius`` lets a ball of
  radius 1 reach the open cell, and n - 1 otherwise or after a fixed run of
  misses at radius 1.  Each sample's letters h x^e h^-1 are low-rank updates
  1 + (h u)(v^T h^-1), from x^e - 1 = u v^T factored once per generating set
  and h^-1 drawn with h: O(n^2 rho) per letter, not two full products.
  The search runs on the flat int kernel end to end and builds no per-entry
  scalar.

- ``decompose_full``: t from the ball, g over t by ``decompose_via_sourour``,
  every t^{+-1} letter expanded through t's own certificate: at most
  2 * 4r = 8r letters over X for a non-central g and 16r for a central one,
  so at most 8(n-1) and 16(n-1).  The claimed bound stays the paper's
  56(n-1).

Every returned certificate is checked once, exactly, by ``require_valid``;
the levels it is built from are not re-verified.  With a fixed seed the
whole pipeline is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from itertools import combinations
from operator import mul
from random import Random

from .bruhat import big_cell_decompose, split_over_big_cell
from .certificate import (
    Certificate,
    CertificateMismatch,
    Letter,
    conjugate_certificate,
    require_valid,
    substitute_certificate,
)
from .fields import Field
from .matrix import (
    SLMatrix,
    _canonical,
    _diagonal,
    _left_quotient,
    _reduced,
    _repeated_diagonal,
    conjugated_factors,
    is_central,
    is_upper_unitriangular,
    low_rank_product,
    mat_product,
    rank_factors,
)
from .rootdata import elementary, longest_element_rep
from .torus import torus_factor
from .unipotent import _conjugate_in_borel, _require_regular_borel, unipotent_as_two_conjugates

# consecutive open-cell misses after which the ball search gives up
# radius 1 for radius n - 1
MISSES_AT_RADIUS_1 = 64


class SearchBudgetExceeded(RuntimeError):
    """A randomized open-condition search ran out of attempts."""

    def __init__(self, what: str, attempts: int):
        super().__init__(f"{what}: no hit in {attempts} attempts (raise the budget or reseed)")
        self.attempts = attempts


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
    # computed once here: the samplers read them on every draw
    noncentral_indices: tuple[int, ...] = dataclass_field(init=False, repr=False, compare=False)
    # noncentral index -> the ``rank_factors`` of x - 1 and x^-1 - 1
    factors: dict = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("empty generating set")
        for x in self.elements:
            if x.field != self.field or x.n != self.n:
                raise ValueError("generating set mixes fields or dimensions")
        noncentral = tuple(i for i, x in enumerate(self.elements) if not is_central(x))
        if not noncentral:
            raise ValueError("every element is central; the set cannot normally generate SL_n")
        object.__setattr__(self, "noncentral_indices", noncentral)
        object.__setattr__(self, "factors", {i: rank_factors(self.elements[i]) for i in noncentral})

    @classmethod
    def of(cls, elements) -> "GeneratingSet":
        elements = tuple(elements)
        if not elements:
            raise ValueError("empty generating set")
        return cls(field=elements[0].field, n=elements[0].n, elements=elements)


def random_sl(field: Field, n: int, rng: Random, factors: int | None = None, bound: int = 2) -> SLMatrix:
    """Random SL_n element: a product of ``factors`` random elementary
    matrices (n + 2 by default, the identity for none), applied as column
    operations on one identity: M E_ij(x) adds x times column i to column j.
    The operations run on the flat ints (residues mod p, or integers over
    denominator 1), so no scalar object is built."""
    return _random_sl_and_inverse(field, n, rng, factors, bound)[0]


def _random_sl_and_inverse(
    field: Field, n: int, rng: Random, factors: int | None = None, bound: int = 2
) -> tuple[SLMatrix, SLMatrix]:
    """``random_sl``'s matrix M and M^-1, from the same draws: the inverse is
    updated alongside by row operations, as (M E_ij(x))^-1 = E_ij(-x) M^-1
    subtracts x times row j from row i.  Elementary operations keep
    determinant 1, so both are wrapped without a check."""
    if factors is None:
        factors = n + 2
    p = field.p
    m = [int(r == c) for r in range(n) for c in range(n)]
    inv = list(m)
    for _ in range(factors):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i == j:
            j = i % n + 1
        x = field.random_nonzero_int(rng, bound)
        ci, cj = i - 1, j - 1  # column i into column j of m
        ri, rj = ci * n, cj * n  # row j out of row i of inv
        for r in range(0, n * n, n):
            m[r + cj] += x * m[r + ci]
        for c in range(n):
            inv[ri + c] -= x * inv[rj + c]
    if p is not None:  # the same ops on integers, reduced once
        m = [e % p for e in m]
        inv = [e % p for e in inv]
    return SLMatrix._wrap(field, n, tuple(m), 1), SLMatrix._wrap(field, n, tuple(inv), 1)


def random_sl_bounded(field: Field, n: int, rng: Random, bound: int = 10, tries: int = 10_000) -> SLMatrix:
    """Random SL_n element whose entries have height at most ``bound``.

    Over F_p every entry qualifies; over Q this rejection-samples short
    elementary products until the entries stay small.
    """
    for _ in range(tries):
        g = random_sl(field, n, rng, factors=n + 1, bound=1)
        # over Q random_sl has denominator 1, so the entries are the ints
        if field.p is not None or max(map(abs, g.entries)) <= bound:
            return g
    raise SearchBudgetExceeded("sampling a height-bounded element", tries)


def _seven_blocks(g: SLMatrix) -> list[tuple[SLMatrix, SLMatrix]]:
    """The seven pairs (c, u) of ``decompose_via_unipotents``, unchecked."""
    field, n = g.field, g.n
    ident = SLMatrix.identity(field, n)
    if g.is_identity():
        return [(ident, ident)] * 7

    h, u2 = split_over_big_cell(g)
    f = big_cell_decompose(h.inverse())
    # h^-1 = lo1 t1 u1, so g = u1^-1 * (t1^-1 lo1^-1 t1) * t1^-1 * u2
    u1i = f.upper.inverse()
    t = f.diag.inverse()
    lo = mat_product([t, f.lower.inverse(), f.diag])

    # t's root factors in four blocks of n - 1: lower, upper, lower, upper;
    # n_0 moves the lower ones, and lo, into U
    roots = torus_factor(t)
    r = n - 1
    n0 = longest_element_rep(field, n)
    n0i = n0.inverse()
    return [
        (ident, u1i),
        (n0, mat_product([n0i, lo, n0])),
        (n0, mat_product([n0i, *roots[:r], n0])),
        (ident, mat_product(roots[r : 2 * r])),
        (n0, mat_product([n0i, *roots[2 * r : 3 * r], n0])),
        (ident, mat_product(roots[3 * r :])),
        (ident, u2),
    ]


def decompose_via_unipotents(
    g: SLMatrix, rng: Random | None = None, budget: int | None = None
) -> list[tuple[SLMatrix, SLMatrix]]:
    """Exactly seven pairs (c, u) with u upper unitriangular and
    g = prod of c * u * c^-1 in order, checked once by explicit code that
    also runs under ``python -O``.  ``rng`` and ``budget`` are ignored."""
    blocks = _seven_blocks(g)
    if not all(is_upper_unitriangular(u) for _, u in blocks):
        raise CertificateMismatch("a seven-block factor is not upper unitriangular")
    if mat_product([mat_product([c, u, c.inverse()]) for c, u in blocks]) != g:
        raise CertificateMismatch("the seven blocks do not multiply to the target")
    return blocks


def _seven_block_certificate(g: SLMatrix, t: SLMatrix) -> Certificate:
    """The paper's route over {t}, unchecked: at most 14 letters."""
    if g.is_identity():
        word: tuple[Letter, ...] = ()
    elif is_upper_unitriangular(g):
        word = unipotent_as_two_conjugates(t, g).word
    else:
        letters = []
        for c, u in _seven_blocks(g):
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
    g: SLMatrix, t: SLMatrix, rng: Random | None = None, budget: int | None = None
) -> Certificate:
    """Certificate of length at most 14 for g over the single base element t
    (upper triangular, pairwise distinct diagonal), by the seven-block route,
    checked once by ``require_valid``.  ``rng`` and ``budget`` are ignored."""
    _check_base(g, t)
    return require_valid(_seven_block_certificate(g, t))


# -- Sourour's construction: a level is int rows A and an int al, with
# a = A / D and alpha = al / D for one D (residues over F_p)


def _choices(a: list, al: int, p: int | None):
    """(x, f, fd) with x, ax independent, f(x) = fd and f(ax) = fd alpha for
    a non-scalar a of size m, so f / fd is the functional, in order:
    (a) x = e_j, no eigenvector; f = e_j* if a_jj = alpha, else
        e_j* + b e_k* for each k with a_kj != 0;
    (b) x = e_i + e_j; f on each coordinate pair where x, ax are independent;
    (c) a diagonal, m >= 3, a_kk = alpha simple: x = e_i + e_k,
        f = e_k* - e_j*, i < j the first indices other than k.

    At m = 2 any choice does, and (a) or (b) has one.  At m >= 3 one leaves
    a non-scalar Schur complement (in characteristic != 2; F_p has a regular
    t only for p >= n + 2):
    1. V = H + span(ax), H = ker f, and the complement is a on H projected
       along ax: it is the scalar c iff (a - c)H <= span(ax).
    2. For each x at most one f fails, none unless span(x, ax) is invariant:
       mod ax, (a - c)v = f(v)(a - c)x = -c f(v)x; at v = ax,
       a^2 x = -c alpha x, so c = det(a on span(x, ax)) / alpha, and c, f
       are fixed by x.
    3. If (ax)_l != 0 for an x = e_i + e_j, l not in {i, j}, (b) gives x
       two f, on {i, l} and {j, l}.
    4. Else a_li = -a_lj for distinct i, j, l: a is diagonal at m >= 4
       (a_li = -a_lj = a_lk = -a_li).  At m = 3, non-diagonal, permute to
       r = a_31 = -a_32 != 0.  (b) works if e_1 + e_2 is no eigenvector, as
       span(e_1, e_2) is not invariant.  Else its eigenvalue a_11 + a_12
       is not 0, and (a) gives e_1 an f on {1, 3}: e_2 is in H, and
       (a - c)e_2, third entry -r, would be -ae_1, so a_12 = -a_11.
    5. Diagonal a: e_i + e_j with a_ii != a_jj has one f, failing only if
       every other a_ll is c = a_ii a_jj / alpha.  If all fail: three
       distinct entries would need a_11^2 = a_22^2 = a_33^2; else a failing
       pair has a_jj = c, say (a pair (i, l) with a_ll = c would else work),
       so a has mu = a_ii once, c elsewhere, and alpha = mu: case (c).
    6. (c) works: (a - c)e_i, (a - c)(e_j + e_k) lie in
       span(a_ii e_i + alpha e_k) only if c = a_ii = alpha != a_ii.
    So no choice is ever undone.  D cancels from every test and every f.
    """
    m = len(a)
    red = int if p is None else (lambda v: v % p)
    diagonal = True
    for j in range(m):
        col = [row[j] for row in a]
        if not any(col[:j] + col[j + 1 :]):
            continue  # e_j is an eigenvector
        diagonal = False
        x = [0] * m
        x[j] = 1
        if col[j] == al:
            yield x, x, 1
            continue
        for k in range(m):
            if k != j and col[k]:
                f = [0] * m
                f[j], f[k] = col[k], red(al - col[j])
                yield x, f, col[k]
    for i, j in combinations(range(m), 2):
        x = [0] * m
        x[i] = x[j] = 1
        y = [red(row[i] + row[j]) for row in a]
        for k, l in combinations(range(m), 2):
            det = red(x[k] * y[l] - x[l] * y[k])
            if det:
                f = [0] * m
                f[k], f[l] = red(y[l] - al * x[l]), red(al * x[k] - y[k])
                yield x, f, det
    d = [a[i][i] for i in range(m)]
    if diagonal and m > 2 and d.count(al) == 1:
        k = d.index(al)
        i, j = [r for r in range(m) if r != k][:2]
        x, f = [0] * m, [0] * m
        x[i] = x[k] = f[k] = 1
        f[j] = red(-1)
        yield x, f, 1


def _sourour_columns(a: list, den: int, alphas: list, p: int | None) -> tuple[list, int]:
    """The columns of S over e, det S = 1 and S^-1 (a / den) S = L U, where
    L U has the successive pivots alphas, int pairs (num, den): the first of
    ``_choices`` that leaves a non-scalar Schur complement (any at size 2),
    then the same one level down.

    For a choice (x, f) with pivot q (the first f_q != 0), the basis is
    (s x, b_i = e_i - (f_i / f_q) e_q for i != q) with s = (-1)^q f_q, which
    makes its determinant 1; in it a has (1,1) entry f(ax) = alpha, and the
    Schur complement of that entry, a B - (a x)(f^T a B) / alpha without row
    q, is the next level's matrix: with y = A x, z_j = f_q A_j - f_j A_q
    for column A_j and w_j = f . z_j, entry (i, j) is
    (al fd z_ji - y_i w_j) / (al fd f_q D).  Levels are reduced by
    ``_reduced``.
    """
    m, (num, dn) = len(a), alphas[0]
    *flat, al, den = _reduced(p, [x * dn for row in a for x in row] + [num * den, den * dn])
    a = [flat[i : i + m] for i in range(0, m * m, m)]
    for x, f, fd in _choices(a, al, p):
        q = next(i for i in range(m) if f[i])
        fq, rest = f[q], [i for i in range(m) if i != q]
        if m == 2:
            sub, e = [[1]], 1
            break
        y = [sum(map(mul, row, x)) for row in a]
        zs = [[fq * row[j] - f[j] * row[q] for row in a] for j in rest]
        ws = [sum(map(mul, f, z)) for z in zs]
        scale = al * fd
        *schur, d = _reduced(p, [scale * z[i] - y[i] * w for i in rest for z, w in zip(zs, ws)]
                             + [scale * fq * den])
        schur = [schur[i : i + m - 1] for i in range(0, len(schur), m - 1)]
        if not _is_scalar(schur):
            sub, e = _sourour_columns(schur, d, alphas[1:], p)
            break
    else:
        raise RuntimeError(f"Sourour's rule found no basis vector at size {m}")
    # S = [s x | B] diag(1, sub) over fd f_q e: s x = (-1)^q (f_q / fd) x,
    # and B c / e is c / e with -(f . c) / (f_q e) put in at q
    cols = [[(fq if q % 2 == 0 else -fq) * fq * e * v for v in x]]
    for c in sub:
        col = [fd * fq * v for v in c]
        col.insert(q, -fd * sum([f[i] * v for i, v in zip(rest, c)]))
        cols.append(col)
    *flat, e = _reduced(p, [v for col in cols for v in col] + [fd * fq * e])
    return [flat[i : i + m] for i in range(0, m * m, m)], e


def _is_scalar(a: list) -> bool:
    c = a[0][0]
    return all(v == (c if i == j else 0) for i, row in enumerate(a) for j, v in enumerate(row))


def _sourour_basis(g: SLMatrix, alphas: list) -> SLMatrix:
    """S in SL_n with S^-1 g S = L U, L lower and U upper triangular, the
    product of their k-th diagonal entries alphas[k] = num / den, an int
    pair, for a non-central g."""
    n, p = g.n, g.field.p
    cols, e = _sourour_columns([list(g.entries[i : i + n]) for i in range(0, n * n, n)], g.den, alphas, p)
    return SLMatrix._wrap(g.field, n, *_canonical(p, [c[i] for i in range(n) for c in cols], e))


def _two_letter_word(g: SLMatrix, t: SLMatrix) -> tuple:
    """g = (c_1 t c_1^-1)(c_2 t^-1 c_2^-1) for a non-central g: with
    S^-1 g S = L U, c_1 = S n_0 v_1 and c_2 = S v_2 for the unitriangular
    v_1 t v_1^-1 = n_0^-1 L n_0 and v_2 t^-1 v_2^-1 = U.  t's diagonal is
    d / den; L has diagonal beta = (d_n, ..., d_1) / den and U has
    gamma = den / (d_1, ..., d_n), each of product det t = 1."""
    field, n = g.field, g.n
    d, den = t.entries[:: n + 1], t.den
    s = _sourour_basis(g, [(d[n - 1 - k], d[k]) for k in range(n)])
    cell = big_cell_decompose(_left_quotient(s, g * s))
    lower = cell.lower * _diagonal(field, [(x, den) for x in d[::-1]])
    upper = _diagonal(field, [(den, x) for x in d]) * cell.upper
    n0 = longest_element_rep(field, n)
    # n_0^-1 L n_0 has t's diagonal and U has t^-1's, so each is one
    # unitriangular conjugate of t or t^-1
    c1 = mat_product([s, n0, _conjugate_in_borel(t, mat_product([n0.inverse(), lower, n0]))])
    c2 = s * _conjugate_in_borel(t.inverse(), upper)
    return Letter(c1, 0, +1), Letter(c2, 0, -1)


def _short_certificate(g: SLMatrix, t: SLMatrix) -> Certificate:
    """g over {t} by Sourour's construction, unchecked: 0 letters for 1,
    2 for a non-central g, 4 for a central one.  ``stats`` names the route."""
    field, n = g.field, g.n
    if g.is_identity():
        word, route = (), "identity"
    elif is_central(g):
        # z = (z E_12(-1)) E_12(1): a non-central element and a unipotent one
        word = (_two_letter_word(g * elementary(field, n, 1, 2, -1), t)
                + unipotent_as_two_conjugates(t, elementary(field, n, 1, 2, 1)).word)
        route = "two-letter (central: 4 letters)"
    else:
        word, route = _two_letter_word(g, t), "two-letter"
    return Certificate(field=field, n=n, target=g, base=(t,), word=word, bound_claimed=14,
                       stats={"route": route})


def decompose_via_sourour(g: SLMatrix, t: SLMatrix) -> Certificate:
    """Certificate for g over the single base element t (upper triangular,
    pairwise distinct diagonal): 2 letters for a non-central g, 4 for a
    central g != 1, 0 for 1; the claimed bound is 14."""
    _check_base(g, t)
    return require_valid(_short_certificate(g, t))


# -- the regular element t from a ball of X


def _sample_ball_element(X: GeneratingSet, rng: Random, radius: int) -> Certificate:
    """A random certified element of the 2r-ball: a product of r commutator
    blocks (h x h^-1)(k x^-1 k^-1) with x drawn from the noncentral part of X;
    each letter is a low-rank update from ``X.factors`` and h^-1."""
    field, n = X.field, X.n
    letters = []
    forms = []
    for _ in range(radius):
        idx = rng.choice(X.noncentral_indices)
        h, h_inv = _random_sl_and_inverse(field, n, rng)
        k, k_inv = _random_sl_and_inverse(field, n, rng)
        letters.append(Letter(h, idx, +1))
        letters.append(Letter(k, idx, -1))
        plus, minus = X.factors[idx]
        forms.append(conjugated_factors(h, plus, h_inv))
        forms.append(conjugated_factors(k, minus, k_inv))
    return Certificate(
        field=field, n=n, target=low_rank_product(field, n, forms), base=X.elements,
        word=tuple(letters),
    )


def smallest_radius(X: GeneratingSet) -> int:
    """The smallest r whose ball of r commutator pairs can meet the open cell.

    With rho = max rank(x - 1) over the noncentral x in X, every s in that
    ball has rank(s - 1) <= 2 r rho.  The lower-left floor(n/2) block of the
    identity is zero, so s can only lie in the open cell, which needs that
    block of s invertible, when 2 r rho >= floor(n/2).  Never above n - 1.
    rho is the column count of the factors of x - 1 in ``X.factors``.
    """
    n = X.n
    rho = max(len(u) for (u, _, _), _ in X.factors.values())
    return min(n - 1, max(1, -(-(n // 2) // (2 * rho))))


def find_regular_in_ball(
    X: GeneratingSet, rng: Random, budget: int = 10_000
) -> tuple[SLMatrix, Certificate]:
    """A regular upper triangular t with a certificate of length <= 4r over
    X: t = x * n_0^2 * x_1 built from two certified open-cell samples of r
    commutator pairs each.

    A sample s is in the open cell B n_0 B = n_0 U- T U exactly when
    ``big_cell_decompose(n_0^-1 s)`` is not None, and its factors L, D, U
    give the unique s = u n_0 b with u = n_0 L n_0^-1 and b = D U.

    Everything here runs on the flat ints and builds no ``Fraction`` or
    ``Fp`` per entry: the conjugators and their inverses come from
    elementary operations, the rank factors of X's elements and of their
    inverses are taken once with X, each sample is a low-rank update per
    letter, n_0 is the signed anti-diagonal and the open-cell test is the
    flat LDU.

    The radius r is 1 when ``smallest_radius(X)`` is 1, and n - 1, the
    paper's radius, otherwise: the rank bound is necessary, not sufficient;
    at n = 8 the radius-2 ball meets the open cell in 1.7% of samples over
    F_101 and 0.5% over Q, against 60-75% at n - 1.  After
    ``MISSES_AT_RADIUS_1`` straight misses at radius 1, r jumps to n - 1.
    ``budget`` caps the samples drawn; when it runs out the error names the
    stage that used most of it: samples outside the open cell, or open-cell
    samples whose pair gave a repeated diagonal.

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
    n0 = longest_element_rep(field, n)
    n0i = n0.inverse()
    attempts = misses = run = rejected = 0
    left = None  # an open-cell sample of the form x * n_0, awaiting its partner
    while attempts < budget:
        attempts += 1
        cert = _sample_ball_element(X, rng, r)
        cell = big_cell_decompose(n0i * cert.target)
        if cell is None:
            misses += 1
            run += 1
            if run == MISSES_AT_RADIUS_1:
                r = n - 1
            continue
        run = 0
        b = cell.diag * cell.upper
        if left is None:  # b (u n_0 b) b^-1 = b n_0 L
            left = conjugate_certificate(cert, b, mat_product([b, n0, cell.lower]))
            continue
        # u^-1 (u n_0 b) u = n_0 b n_0 L n_0^-1, u^-1 = n_0 L^-1 n_0^-1
        right = conjugate_certificate(cert, mat_product([n0, cell.lower.inverse(), n0i]),
                                      mat_product([n0, b, n0, cell.lower, n0i]))
        t = left.target * right.target
        word = left.word + right.word
        left = None
        if _repeated_diagonal(t) is not None:
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
    mid = _short_certificate(g, t)
    cert = replace(
        substitute_certificate(mid, t_cert),
        seed=seed,
        bound_claimed=bound,
        stats={**mid.stats, **t_cert.stats},
    )
    return require_valid(cert)
