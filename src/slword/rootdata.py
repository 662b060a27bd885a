"""Root groups and Weyl representatives for SL_n in its standard
split form (diagonal torus T, upper triangular Borel B, upper/lower
unitriangular U and U-).

Conventions, pinned once so certificates are reproducible:

- Indices are 1-based as in the usual E_ij notation: ``elementary(F, n, 1, 2, x)``
  is I + x at entry (1,2).  The simple roots are the pairs (i, i+1) for
  i = 1..n-1, so rank r = n-1.
- The representative of the simple reflection s_i is the identity with the
  2x2 block [[0,1],[-1,0]] at rows/columns (i, i+1); it lies in SL_n and
  squares to the coroot value -1.
- The representative of an arbitrary permutation w is the product of simple
  reflection representatives along a reduced word of w; by Tits' lemma it
  does not depend on the word, and ``weyl_representative`` builds it in
  closed form, column j being (-1)^#{k > j : w(k) < w(j)} e_{w(j)}.
  ``longest_element_rep`` is that representative for the order-reversing
  permutation, the signed anti-diagonal; conjugation by it swaps U and U-.

Permutations are tuples ``w`` of length n over 0..n-1 with ``w[j]`` the image
of column j (0-based internally, despite the 1-based matrix-entry indexing).
"""

from __future__ import annotations

from .fields import Field
from .matrix import SLMatrix, _flat_entries


def elementary(field: Field, n: int, i: int, j: int, x) -> SLMatrix:
    """E_ij(x) = I + x at entry (i, j), 1-based, i != j, on the flat ints."""
    if i == j:
        raise ValueError("elementary matrix needs i != j")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices ({i},{j}) out of range for n={n}")
    (e,), den = _flat_entries(field, [x])
    entries = [0] * (n * n)
    entries[:: n + 1] = [den] * n
    entries[(i - 1) * n + j - 1] = e
    return SLMatrix._wrap(field, n, tuple(entries), den)


def longest_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n - 1, -1, -1))


def weyl_representative(field: Field, w: tuple[int, ...]) -> SLMatrix:
    """The pinned SL_n representative of the permutation w: the signed
    permutation matrix whose column j is (-1)^#{k > j : w(k) < w(j)} e_{w(j)},
    of determinant sign(w) (-1)^inv(w) = 1."""
    n = len(w)
    if sorted(w) != list(range(n)):
        raise ValueError(f"{w} is not a permutation of 0..{n - 1}")
    minus_one = -1 if field.p is None else field.p - 1
    entries = [0] * (n * n)
    for j, i in enumerate(w):
        inversions = sum(1 for k in range(j + 1, n) if w[k] < i)
        entries[i * n + j] = minus_one if inversions % 2 else 1
    return SLMatrix._wrap(field, n, tuple(entries), 1)


def longest_element_rep(field: Field, n: int) -> SLMatrix:
    """Representative of the longest Weyl element, the signed anti-diagonal
    with entry (i, n+1-i) equal to (-1)^(i+1), 1-based; it swaps U and U- by
    conjugation, and its square is diagonal with entries +-1."""
    return weyl_representative(field, longest_perm(n))


def standard_generators(field: Field, n: int) -> list[SLMatrix]:
    """E_{i,i+1}(1) and E_{i+1,i}(1) for i = 1..n-1; they generate SL_n(F_p)
    and, as a normal set, SL_n over any field."""
    gens = []
    for i in range(1, n):
        gens.append(elementary(field, n, i, i + 1, 1))
        gens.append(elementary(field, n, i + 1, i, 1))
    return gens
