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
of coroots (coordinates a_i = d_1 ... d_i, a_0 = 1), the slots are the
lower-first SL_2 factors for a_i embedded at rows (i, i+1), with x_i and u_i
conjugated by s_i = c_1 ... c_{i-1}.  s_i is diagonal with entries a_{i-1}^-1
and 1 at i and i+1, so conjugating by it only rescales the off-diagonal
entry, and the slots are written down rescaled:

    x_i = E_{i+1,i}((1 - a_i^-1) a_{i-1}),   u_i = E_{i,i+1}(-a_{i-1}^-1),
    v_i = E_{i+1,i}(1 - a_i),                 w_i = E_{i,i+1}(a_i^-1).

Every slot stays in its root group, and the interleaved blocks recombine
because U_{alpha_i} commutes with U_{-alpha_j} for i != j.  The ordering is
not taken on faith: the tests multiply everything back out, and compare the
slots with the conjugated ones.

Slots for a_i = 1 are identity matrices, so factoring the identity yields 4r
identity factors.
"""

from __future__ import annotations

from .matrix import SLMatrix, is_diagonal
from .rootdata import elementary


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
    slots = []
    prev = field.one  # a_{i-1}
    for i in range(1, n):
        a = coords[i - 1]
        if a == field.one:
            slots.append((ident,) * 4)
        else:
            ainv = a ** -1
            slots.append((
                elementary(field, n, i + 1, i, (1 - ainv) * prev),
                elementary(field, n, i, i + 1, -1 / prev),
                elementary(field, n, i + 1, i, 1 - a),
                elementary(field, n, i, i + 1, ainv),
            ))
        prev = a
    xs, us, vs, ws = zip(*slots)
    return list(xs[::-1] + us[::-1] + vs + ws)
