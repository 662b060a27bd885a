"""Bruhat and big-cell decompositions in SL_n, plus the big-cell splitting
of the seven-block route.

Big cell: g lies in U- T U exactly when all leading principal minors of g are
nonzero, and then g = lower * diag * upper uniquely (LDU elimination without
pivoting; a zero pivot at step k is the same thing as a vanishing k-th minor).

Bruhat: every g is u * w_rep * b with u upper unitriangular, w a permutation
and b upper triangular.  The permutation is forced by g; u is canonicalized by
requiring u[i][j] = 0 whenever i < j and w^-1(i) < w^-1(j), which the
elimination below produces automatically.  The representative of w is the
pinned one from :mod:`slword.rootdata`, so all sign bookkeeping lands in b.

``split_over_big_cell`` writes g = h * h' with h' upper unitriangular and
h^-1 in U- T U, over every field: a fixed row-operation construction, proved
in its docstring, with no search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import (
    SLMatrix,
    _det_int,
    _identity_entries,
    _lowest_terms,
    is_upper_triangular,
    mat_product,
)
from .rootdata import weyl_representative


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


def split_over_big_cell(g: SLMatrix) -> tuple[SLMatrix, SLMatrix]:
    """Write g = h * h' with h' upper unitriangular (so in U- T U) and h^-1
    in the big cell U- T U, over every field.

    A row-operation form of the unitriangular factorizations of Vavilov,
    Smolensky and Sury (Unitriangular factorizations of Chevalley groups,
    2011).  With a = g^-1, the rows of h^-1 = h' a are built top down: row
    k < n is a_k if the k-th leading minor is then nonzero, else a_k + a_j
    for the first j > k that makes it nonzero; row n is a_n, and the n-th
    minor is det g^-1 = 1.  So h' is I plus a 1 at each such (k, j).

    A j always exists.  Let H be the span of the first k - 1 rows cut to k
    columns; it has dimension k - 1 by the previous step.  Those rows and
    a_k, ..., a_n come from a by unitriangular row operations, so their cuts
    span k-space, and some a_j with j >= k lies outside H.  If a_k lies in
    H, then a_k + a_j lies outside it.

    The minors are ``_det_int`` on the flat ints: the numerators of g^-1
    over Q (scaled by den^k != 0) and the residues over F_p, reduced.
    """
    field, n, p = g.field, g.n, g.field.p
    a = g.inverse().entries
    rows = [a[i : i + n] for i in range(0, n * n, n)]
    hp = list(_identity_entries(n))
    done = []  # the rows of h' a chosen so far
    for k in range(n - 1):
        for j in range(k, n):
            row = rows[k] if j == k else [x + y for x, y in zip(rows[k], rows[j])]
            minor = _det_int(tuple([x for r in done + [row] for x in r[: k + 1]]), k + 1)
            if minor % p if p is not None else minor:
                break
        if j != k:
            hp[k * n + j] = 1
        done.append(row)
    hp = SLMatrix._wrap(field, n, tuple(hp), 1)
    return g * hp.inverse(), hp
