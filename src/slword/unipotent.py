"""Writing upper unitriangular matrices as exactly two conjugates of a
regular triangular element.

Throughout, t is upper triangular with pairwise distinct diagonal entries
(so t is regular semisimple with all eigenvalues in the base field).  Every
conjugation inside the Borel reduces to one solve, ``_conjugate_in_borel(a,
b)``: the upper unitriangular v with v a v^-1 = b, for upper triangular a and
b with the same pairwise distinct diagonal.  v a = b v, entry (i, j), is the
graded recurrence

    v_ij (a_jj - a_ii)  =  sum_{i<k<=j} b_ik v_kj  -  sum_{i<=k<j} v_ik a_kj,

solvable column by column, each bottom up, since the right side only uses
entries of v in earlier columns or lower in the same one.  v is unique,
because the centralizer of a regular a meets the unitriangular group only
in 1.

With D = diag(t), any unipotent u is (c_1 t c_1^-1)(c_2 t^-1 c_2^-1) for
c_1 = solve(t, u D) and c_2 = solve(t, D).  The solve is not taken on faith:
every certificate is re-multiplied, and the tests compare it with the
scalar solve and two reference recurrences.
"""

from __future__ import annotations

from .certificate import Certificate, Letter
from .matrix import (
    SLMatrix,
    _canonical,
    _diagonal,
    _entry_strings,
    _identity_entries,
    _reduced,
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
    triangular a and b with the same pairwise distinct diagonal (unchecked).

    Column j is filled bottom up by the recurrence above, times da db, on
    the flat ints, with v over one denominator e: the column is over e c, c
    the product of its divisors so far, then the rest of v is scaled by c
    and all of it ``_reduced``.
    """
    n, A, B, da, db = a.n, a.entries, b.entries, a.den, b.den
    v, e = list(_identity_entries(n)), 1
    for j in range(1, n):
        ajj, c = A[j * n + j], 1
        for i in range(j - 1, -1, -1):
            r = i * n
            acc = da * sum([B[r + k] * v[k * n + j] for k in range(i + 1, j + 1)])
            acc -= c * db * sum([v[r + k] * A[k * n + j] for k in range(i, j)])
            delta = db * (ajj - A[r + i])
            for k in range(i + 1, j + 1):
                v[k * n + j] *= delta
            v[r + j] = acc
            c *= delta
        *v, e = _reduced(a.field.p, [x if k % n == j else x * c for k, x in enumerate(v)] + [e * c])
    return SLMatrix._wrap(a.field, n, *_canonical(a.field.p, v, e))


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
    d = _diagonal(t.field, [(x, t.den) for x in t.entries[:: t.n + 1]])
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
