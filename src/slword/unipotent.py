"""Writing upper unitriangular matrices as exactly two conjugates of a
regular triangular element.

Throughout, t is upper triangular with pairwise distinct diagonal entries
(so t is regular semisimple with all eigenvalues in the base field).  Every
conjugation inside the Borel reduces to one solve, ``_conjugate_in_borel(a,
b)``: the upper unitriangular v with v a v^-1 = b, for upper triangular a and
b with the same pairwise distinct diagonal.  v a = b v, entry (i, j), is the
graded recurrence

    v_ij (a_jj - a_ii)  =  sum_{i<k<=j} b_ik v_kj  -  sum_{i<=k<j} v_ik a_kj,

solvable in increasing j - i since the right side only uses entries of v
closer to the diagonal.  v is unique, because the centralizer of a regular a
meets the unitriangular group only in 1.

With D = diag(t), any unipotent u is (c_1 t c_1^-1)(c_2 t^-1 c_2^-1) for
c_1 = solve(t, u D) and c_2 = solve(t, D).  The solve is not taken on faith:
every certificate is re-multiplied, and the tests compare it with two
reference recurrences.
"""

from __future__ import annotations

from .certificate import Certificate, Letter
from .matrix import (
    SLMatrix,
    _entry_strings,
    _repeated_diagonal,
    is_diagonal,
    is_upper_triangular,
    is_upper_unitriangular,
)


def _require_regular_borel(t: SLMatrix):
    if not is_upper_triangular(t):
        raise ValueError("expected an upper triangular matrix")
    pair = _repeated_diagonal(t)
    if pair is not None:
        i, j = pair
        raise ValueError(
            f"diagonal entries {_entry_strings(t)[i * (t.n + 1)]} at positions {i + 1} and {j + 1} coincide"
        )


def _conjugate_in_borel(a: SLMatrix, b: SLMatrix) -> SLMatrix:
    """The unique upper unitriangular v with v a v^-1 = b, for upper
    triangular a and b with the same pairwise distinct diagonal (unchecked)."""
    field, n, arows, brows = a.field, a.n, a.rows, b.rows
    one, zero = field.one, field.zero
    v = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for off in range(1, n):
        for i in range(n - off):
            j = i + off
            acc = zero
            for k in range(i + 1, j + 1):
                if brows[i][k] and v[k][j]:
                    acc = acc + brows[i][k] * v[k][j]
            for k in range(i, j):
                if v[i][k] and arows[k][j]:
                    acc = acc - v[i][k] * arows[k][j]
            v[i][j] = acc / (arows[j][j] - arows[i][i])
    return SLMatrix(field, v)


def solve_twisted_conjugation(d: SLMatrix, u: SLMatrix) -> SLMatrix:
    """The unique upper unitriangular v with v d v^-1 d^-1 = u, that is
    v d v^-1 = u d.

    d must be diagonal with pairwise distinct entries; if two entries repeat
    the map is not invertible and a ValueError is raised.
    """
    if not is_diagonal(d):
        raise ValueError("expected a diagonal matrix")
    _require_regular_borel(d)
    if not is_upper_unitriangular(u):
        raise ValueError("expected an upper unitriangular matrix")
    return _conjugate_in_borel(d, u * d)


def unipotent_as_two_conjugates(t: SLMatrix, u: SLMatrix) -> Certificate:
    """Length-2 certificate [(c_1, t, +1), (c_2, t, -1)] whose product is u:
    c_1 t c_1^-1 = u D and c_2 t c_2^-1 = D for D = diag(t)."""
    _require_regular_borel(t)
    d = SLMatrix.diagonal(t.field, [row[i] for i, row in enumerate(t.rows)])
    if not is_upper_unitriangular(u):
        raise ValueError("expected an upper unitriangular matrix")
    c1, c2 = _conjugate_in_borel(t, u * d), _conjugate_in_borel(t, d)
    return Certificate(
        field=t.field,
        n=t.n,
        target=u,
        base=(t,),
        word=(Letter(c1, 0, +1), Letter(c2, 0, -1)),
    )
