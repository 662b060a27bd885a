"""Writing upper unitriangular matrices as exactly two conjugates of a
regular triangular element.

Throughout, t is upper triangular with pairwise distinct diagonal entries
(so t is regular semisimple with all eigenvalues in the base field).  The
key map is f(v) = v t v^-1 t^-1, a bijection of the upper unitriangular
group; inverting it expresses any unipotent u as (c_1 t c_1^-1)(c_2 t^-1 c_2^-1).

For diagonal t = diag(t_1, ..., t_n), f(v) = u unwinds to v d = u d v, which
entrywise is the graded recurrence

    v_ij (t_j - t_i)  =  u_ij t_j  +  sum_{i<k<j} u_ik t_k v_kj,

solvable in increasing j - i since the right side only uses entries closer to
the diagonal.  The recurrence is not taken on faith: the round-trip property
f(solve(d, u)) == u is asserted by the tests for every case they touch.

A non-diagonal t is first conjugated to its diagonal by an upper
unitriangular v_0 (same graded-elimination idea, denominators t_i - t_j), and
v_0 is absorbed into the certificate's conjugators.
"""

from __future__ import annotations

from .certificate import Certificate, Letter
from .matrix import SLMatrix, is_diagonal, is_upper_triangular, is_upper_unitriangular, mat_product


def _require_regular_borel(t: SLMatrix):
    if not is_upper_triangular(t):
        raise ValueError("expected an upper triangular matrix")
    rows = t.rows
    diag = [rows[i][i] for i in range(t.n)]
    for i in range(t.n):
        for j in range(i + 1, t.n):
            if diag[i] == diag[j]:
                raise ValueError(
                    f"diagonal entries {t.field.format(diag[i])} at positions {i + 1} and {j + 1} coincide"
                )
    return diag


def diagonalize_in_borel(t: SLMatrix) -> tuple[SLMatrix, SLMatrix]:
    """(v, d) with v t v^-1 = d: v upper unitriangular, d = diag(t).

    Solved entrywise in increasing superdiagonal order from v t = d v, which
    gives v_ij = (sum_{i<=k<j} v_ik t_kj) / (t_ii - t_jj).
    """
    diag = _require_regular_borel(t)
    field, n, trows = t.field, t.n, t.rows
    one, zero = field.one, field.zero
    v = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for off in range(1, n):
        for i in range(n - off):
            j = i + off
            acc = zero
            for k in range(i, j):
                if v[i][k] and trows[k][j]:
                    acc = acc + v[i][k] * trows[k][j]
            v[i][j] = acc / (diag[i] - diag[j])
    vm = SLMatrix(field, v)
    d = SLMatrix.diagonal(field, diag)
    return vm, d


def solve_twisted_conjugation(d: SLMatrix, u: SLMatrix) -> SLMatrix:
    """The unique upper unitriangular v with v d v^-1 d^-1 = u.

    d must be diagonal with pairwise distinct entries; if two entries repeat
    the map is not invertible and a ValueError is raised.
    """
    if not is_diagonal(d):
        raise ValueError("expected a diagonal matrix")
    diag = _require_regular_borel(d)
    if not is_upper_unitriangular(u):
        raise ValueError("expected an upper unitriangular matrix")
    field, n, urows = d.field, d.n, u.rows
    one, zero = field.one, field.zero
    v = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for off in range(1, n):
        for i in range(n - off):
            j = i + off
            acc = urows[i][j] * diag[j]
            for k in range(i + 1, j):
                if urows[i][k] and v[k][j]:
                    acc = acc + urows[i][k] * diag[k] * v[k][j]
            v[i][j] = acc / (diag[j] - diag[i])
    return SLMatrix(field, v)


def unipotent_as_two_conjugates(t: SLMatrix, u: SLMatrix) -> Certificate:
    """Length-2 certificate [(c_1, t, +1), (c_2, t, -1)] whose product is u.

    Built as u = (w t w^-1) t^-1 pulled back through the diagonalization of t:
    with v_0 t v_0^-1 = d and f(v) = u twisted-solved against d, the
    conjugators are c_1 = v v_0 and c_2 = v_0.
    """
    v0, d = diagonalize_in_borel(t)
    v = solve_twisted_conjugation(d, u)
    c1 = v * v0
    c2 = v0
    return Certificate(
        field=t.field,
        n=t.n,
        target=u,
        base=(t,),
        word=(Letter(c1, 0, +1), Letter(c2, 0, -1)),
    )
