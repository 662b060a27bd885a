"""Bruhat and big-cell decompositions in SL_n, plus the open-cell splitting
of the seven-block route.

Big cell: g lies in U- T U exactly when all leading principal minors of g are
nonzero, and then g = lower * diag * upper uniquely (LDU elimination without
pivoting; a zero pivot at step k is the same thing as a vanishing k-th minor).

Bruhat: every g is u * w_rep * b with u upper unitriangular, w a permutation
and b upper triangular.  The permutation is forced by g; u is canonicalized by
requiring u[i][j] = 0 whenever i < j and w^-1(i) < w^-1(j), which the
elimination below produces automatically.  The representative of w is the
pinned one from :mod:`slword.rootdata`, so all sign bookkeeping lands in b.

``split_over_big_cell`` writes g = h * h' with h' and h^-1 in U- T U.  Such a
splitting always exists over an infinite field because the valid h' form a
dense open set.  Its random candidates are built by shape, the torus part
as one diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .fields import Field
from .matrix import SLMatrix, _lowest_terms, is_upper_triangular, mat_product
from .rootdata import elementary, weyl_representative


class SearchBudgetExceeded(RuntimeError):
    """A randomized open-condition search ran out of attempts."""

    def __init__(self, what: str, attempts: int):
        super().__init__(f"{what}: no hit in {attempts} attempts (raise the budget or reseed)")
        self.attempts = attempts


@dataclass(frozen=True)
class BigCellForm:
    """g = lower * diag * upper with the shapes the names promise."""

    lower: SLMatrix  # lower unitriangular
    diag: SLMatrix   # diagonal
    upper: SLMatrix  # upper unitriangular


@dataclass(frozen=True)
class BruhatForm:
    """g = u * w_rep * b; w is a 0-based permutation tuple, w_rep its pinned
    SL_n representative, u the canonical unipotent coset representative."""

    u: SLMatrix
    w: tuple[int, ...]
    w_rep: SLMatrix
    b: SLMatrix


def big_cell_decompose(g: SLMatrix) -> BigCellForm | None:
    """LDU factorization, or None if g is outside the big cell.

    None is a normal outcome (it happens exactly when some leading principal
    minor vanishes), not an error.

    Elimination without pivoting on the flat ints: on residues over F_p, and
    over Q fraction-free (Bareiss) on the integer numerators A of g = A / den.
    With M_k the entries at stage k and Delta_k = M_{k-1}(k-1, k-1) the k-th
    leading minor of A (Delta_0 = 1), L_ik = M_k(i, k) / M_k(k, k),
    U_kj = M_k(k, j) / M_k(k, k) and D_k = M_k(k, k) / (Delta_k den).  L and U
    are unitriangular and the pivots multiply to det g = 1, so the factors
    are wrapped without a determinant check.

    Unlike the determinant and the inverse, the LDU keeps a kernel for each
    field: a Bareiss LDU on the residues, reduced at the end, measured
    1.4-1.7 times slower per call over F_p than elimination mod p.
    """
    field, n, p = g.field, g.n, g.field.p
    m = [list(g.entries[i : i + n]) for i in range(0, n * n, n)]
    factors = _ldu_mod(m, n, p) if p is not None else _ldu_q(m, n, g.den)
    if factors is None:
        return None
    lower, diag, upper = (SLMatrix._wrap(field, n, *f) for f in factors)
    return BigCellForm(lower=lower, diag=diag, upper=upper)


def _ldu_mod(m: list, n: int, p: int) -> tuple | None:
    """(entries, den) of L, D and U over F_p for the rows m, or None."""
    lower = [int(i == j) for i in range(n) for j in range(n)]
    upper = list(lower)
    diag = [0] * (n * n)
    for k in range(n):
        prow = m[k]
        piv = prow[k]
        if not piv:
            return None
        inv = pow(piv, -1, p)
        diag[k * (n + 1)] = piv
        for j in range(k + 1, n):
            upper[k * n + j] = prow[j] * inv % p
        for i in range(k + 1, n):
            row = m[i]
            f = row[k] * inv % p
            if f:
                lower[i * n + k] = f
                m[i] = [(x - f * y) % p for x, y in zip(row, prow)]
    return (tuple(lower), 1), (tuple(diag), 1), (tuple(upper), 1)


def _ldu_q(m: list, n: int, den: int) -> tuple | None:
    """(entries, den) of L, D and U over Q for g = m / den, or None; every
    entry is first a pair (num, den) of Bareiss quantities."""
    lower = [(int(i == j), 1) for i in range(n) for j in range(n)]
    upper = list(lower)
    diag = [(0, 1)] * (n * n)
    prev = 1
    for k in range(n):
        prow = m[k]
        piv = prow[k]
        if not piv:
            return None
        diag[k * (n + 1)] = (piv, prev * den)
        for j in range(k + 1, n):
            upper[k * n + j] = (prow[j], piv)
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            lower[i * n + k] = (f, piv)
            m[i] = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
        prev = piv
    return _lowest_terms(lower), _lowest_terms(diag), _lowest_terms(upper)


def in_big_cell(g: SLMatrix) -> bool:
    return big_cell_decompose(g) is not None


def bruhat_decompose(g: SLMatrix) -> BruhatForm:
    """Bruhat factorization g = u * w_rep * b; total on SL_n.

    Scan columns left to right; in each column the bottom-most entry in a row
    not yet used as a pivot survives and names w, and everything above it in
    unused rows is cleared by adding multiples of the pivot row (an upper
    unitriangular row operation).  The cleared matrix is w_rep * b.
    """
    field, n = g.field, g.n
    m = [list(r) for r in g.rows]
    one, zero = field.one, field.zero
    u = [[one if i == j else zero for j in range(n)] for i in range(n)]
    w = [0] * n
    used = [False] * n
    for j in range(n):
        pivot_row = max(i for i in range(n) if not used[i] and m[i][j])
        w[j] = pivot_row
        used[pivot_row] = True
        piv = m[pivot_row][j]
        for i in range(pivot_row):
            if not used[i] and m[i][j]:
                f = m[i][j] / piv
                # left-multiply by E_{i,pivot_row}(-f); accumulate the inverse in u
                m[i] = [x - f * y for x, y in zip(m[i], m[pivot_row])]
                for r in range(n):
                    u[r][pivot_row] = u[r][pivot_row] + f * u[r][i]
    w = tuple(w)
    w_rep = weyl_representative(field, w)
    b = mat_product([w_rep.inverse(), SLMatrix(field, m)])
    assert is_upper_triangular(b)
    return BruhatForm(u=SLMatrix(field, u), w=w, w_rep=w_rep, b=b)


def _random_big_cell_element(field: Field, n: int, rng: Random, bound: int) -> SLMatrix:
    """A random element of U- T U, built by shape so membership is free."""
    one, zero = field.one, field.zero
    lower = [[one if i == j else zero for j in range(n)] for i in range(n)]
    upper = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = field.random_scalar(rng, bound)
            upper[j][i] = field.random_scalar(rng, bound)
    # the coroot product c_1(a_1) ... c_{n-1}(a_{n-1}) = diag(a_1, a_2/a_1, ..., 1/a_{n-1})
    a = [one] + [field.random_nonzero(rng, bound) for _ in range(n - 1)] + [one]
    t = SLMatrix.diagonal(field, [a[k + 1] / a[k] for k in range(n)])
    return mat_product([SLMatrix(field, lower), t, SLMatrix(field, upper)])


def split_over_big_cell(g: SLMatrix, rng: Random, budget: int = 10_000) -> tuple[SLMatrix, SLMatrix]:
    """Write g = h * h' with h' and h^-1 both in the big cell U- T U.

    Candidates for h' are drawn from U- T U with entries of slowly growing
    height, interleaved with the deterministic family h' = E_12(m); the
    identity is tried first, which succeeds whenever g^-1 is already in the
    big cell.  Each success is verified exactly before returning.
    """
    field, n = g.field, g.n
    g_inv = g.inverse()
    for attempt in range(budget):
        if attempt == 0:
            hp = SLMatrix.identity(field, n)
        elif attempt % 8 == 1:
            hp = elementary(field, n, 1, 2, (attempt // 8) + 1)
        else:
            hp = _random_big_cell_element(field, n, rng, 2 + attempt // 500)
        h_inv = hp * g_inv
        if in_big_cell(h_inv):
            h = h_inv.inverse()
            assert in_big_cell(hp) and h * hp == g
            return h, hp
    raise SearchBudgetExceeded("splitting over the big cell", budget)
