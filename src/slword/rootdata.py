"""Root groups, coroots and Weyl representatives for SL_n in its standard
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
  reflection representatives along the lexicographically smallest reduced
  word of w (greedy smallest descent).  ``longest_element_rep`` is that
  representative for the order-reversing permutation, the signed
  anti-diagonal; conjugation by it swaps U and U-.

Permutations are tuples ``w`` of length n over 0..n-1 with ``w[j]`` the image
of column j (0-based internally, despite the 1-based matrix-entry indexing).
"""

from __future__ import annotations

from .fields import Field
from .matrix import SLMatrix, mat_product


def elementary(field: Field, n: int, i: int, j: int, x) -> SLMatrix:
    """E_ij(x) = I + x at entry (i, j), 1-based, i != j."""
    if i == j:
        raise ValueError("elementary matrix needs i != j")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices ({i},{j}) out of range for n={n}")
    one, zero = field.one, field.zero
    rows = [[one if r == c else zero for c in range(n)] for r in range(n)]
    rows[i - 1][j - 1] = field.scalar(x)
    return SLMatrix(field, rows)


def coroot(field: Field, n: int, i: int, a) -> SLMatrix:
    """diag(1, .., a, a^-1, .., 1) with a at position i, 1 <= i <= n-1."""
    if not (1 <= i <= n - 1):
        raise ValueError(f"coroot index {i} out of range for n={n}")
    av = field.scalar(a)
    if not av:
        raise ValueError("coroot parameter must be nonzero")
    entries = [field.one] * n
    entries[i - 1] = av
    entries[i] = 1 / av
    return SLMatrix.diagonal(field, entries)


def simple_reflection_rep(field: Field, n: int, i: int) -> SLMatrix:
    """Representative of s_i: the [[0,1],[-1,0]] block at rows/cols (i, i+1)."""
    if not (1 <= i <= n - 1):
        raise ValueError(f"reflection index {i} out of range for n={n}")
    one, zero = field.one, field.zero
    rows = [[one if r == c else zero for c in range(n)] for r in range(n)]
    rows[i - 1][i - 1] = zero
    rows[i - 1][i] = one
    rows[i][i - 1] = -one
    rows[i][i] = zero
    return SLMatrix(field, rows)


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def longest_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n - 1, -1, -1))


def inverse_perm(w: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(w)
    for j, i in enumerate(w):
        inv[i] = j
    return tuple(inv)


def reduced_word(w: tuple[int, ...]) -> list[int]:
    """Lexicographically smallest reduced word for w, 1-based indices.

    Greedy: repeatedly pick the smallest i with a left descent, i.e. with
    value i appearing to the right of value i+1, and strip s_i off the left.
    Yields the word (i_1, ..., i_N) with w = s_{i_1} ... s_{i_N}.
    """
    w = list(w)
    n = len(w)
    pos = [0] * n
    for j, v in enumerate(w):
        pos[v] = j
    word = []
    while True:
        i = next((i for i in range(n - 1) if pos[i] > pos[i + 1]), None)
        if i is None:
            return word
        word.append(i + 1)
        # strip s_i on the left: swap the values i and i+1 in one-line form
        w[pos[i]], w[pos[i + 1]] = w[pos[i + 1]], w[pos[i]]
        pos[i], pos[i + 1] = pos[i + 1], pos[i]


def weyl_representative(field: Field, w: tuple[int, ...]) -> SLMatrix:
    """The pinned SL_n representative of the permutation w."""
    n = len(w)
    word = reduced_word(w)
    if not word:
        return SLMatrix.identity(field, n)
    return mat_product([simple_reflection_rep(field, n, i) for i in word])


def longest_element_rep(field: Field, n: int) -> SLMatrix:
    """Representative of the longest Weyl element; swaps U and U- by
    conjugation, and its square is diagonal with entries +-1.

    It is the pinned ``weyl_representative(field, longest_perm(n))``, built
    directly as the signed anti-diagonal: entry (i, n+1-i) is (-1)^(i+1),
    1-based, which has determinant 1.
    """
    minus_one = -1 if field.p is None else field.p - 1
    entries = [0] * (n * n)
    for i in range(n):
        entries[i * n + n - 1 - i] = minus_one if i % 2 else 1
    return SLMatrix._wrap(field, n, tuple(entries), 1)


def standard_generators(field: Field, n: int) -> list[SLMatrix]:
    """E_{i,i+1}(1) and E_{i+1,i}(1) for i = 1..n-1; they generate SL_n(F_p)
    and, as a normal set, SL_n over any field."""
    gens = []
    for i in range(1, n):
        gens.append(elementary(field, n, i, i + 1, 1))
        gens.append(elementary(field, n, i + 1, i, 1))
    return gens
