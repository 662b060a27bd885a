"""Factoring diagonal determinant-one matrices into root-group elements.

The engine is the SL_2 identity

    E_12(-x) E_21(x^-1 - 1) E_12(1) E_21(x - 1)  =  diag(x, x^-1),

valid for any nonzero x (``sl2_coroot_factor`` returns the four parameters).
Inverting it and substituting x -> x^-1 gives the lower-first companion

    E_21(1 - x^-1) E_12(-1) E_21(1 - x) E_12(x^-1)  =  diag(x, x^-1),

which is the form the block ordering below needs.

``torus_factor`` writes any diagonal t in SL_n as an ordered product of
exactly 4(n-1) matrices, each lying in a single root group U_{+-alpha_i} (one
off-diagonal entry at (i, i+1) or (i+1, i)):

    t  =  x_r ... x_1  u_r ... u_1  v_1 ... v_r  w_1 ... w_r,

with x_i, v_i lower and u_i, w_i upper.  Writing t = c_1 ... c_r as a product
of coroots (coordinates a_i = d_1 ... d_i) and s_i = c_1 ... c_{i-1}, the
slots are the lower-first SL_2 factors for a_i embedded at rows (i, i+1),
with x_i and u_i conjugated by s_i.  Conjugating by the diagonal s_i only
rescales the off-diagonal entry, so every slot stays in its root group, and
the interleaved blocks recombine because U_{alpha_i} commutes with
U_{-alpha_j} for i != j.  The ordering is not taken on faith: the tests
multiply everything back out.

Slots for a_i = 1 are identity matrices, so factoring the identity yields 4r
identity factors.
"""

from __future__ import annotations

from .matrix import SLMatrix, conjugate, is_diagonal, mat_product
from .rootdata import coroot, elementary


def sl2_coroot_factor(x) -> tuple:
    """Parameters (a, b, c, d) with E_12(a) E_21(b) E_12(c) E_21(d) = diag(x, x^-1)."""
    if not x:
        raise ValueError("coroot parameter must be nonzero")
    one = x ** 0  # 1 in the same field as x
    return (-x, x ** -1 - one, one, x - one)


def coroot_coordinates(t: SLMatrix) -> tuple:
    """Coordinates (a_1, ..., a_{n-1}) with t = coroot(1, a_1) ... coroot(n-1, a_{n-1}).

    Forced: entry j of the coroot product is a_j / a_{j-1}, so a_i is the
    product of the first i diagonal entries.
    """
    if not is_diagonal(t):
        raise ValueError("coroot coordinates need a diagonal matrix")
    rows = t.rows
    coords = []
    acc = t.field.one
    for i in range(t.n - 1):
        acc = acc * rows[i][i]
        coords.append(acc)
    return tuple(coords)


def torus_factor(t: SLMatrix) -> list[SLMatrix]:
    """Ordered list of 4(n-1) single-root-group matrices whose product is t."""
    if not is_diagonal(t):
        raise ValueError("torus factorization needs a diagonal matrix")
    field, n = t.field, t.n
    coords = coroot_coordinates(t)
    ident = SLMatrix.identity(field, n)
    xs, us, vs, ws = [], [], [], []
    s = ident
    for i in range(1, n):
        a = coords[i - 1]
        if a == field.one:
            x_slot = u_slot = v_slot = w_slot = ident
        else:
            ainv = a ** -1
            x_slot = elementary(field, n, i + 1, i, 1 - ainv)
            u_slot = elementary(field, n, i, i + 1, -field.one)
            v_slot = elementary(field, n, i + 1, i, 1 - a)
            w_slot = elementary(field, n, i, i + 1, ainv)
        xs.append(conjugate(x_slot, s))
        us.append(conjugate(u_slot, s))
        vs.append(v_slot)
        ws.append(w_slot)
        s = s * coroot(field, n, i, a)
    return xs[::-1] + us[::-1] + vs + ws
