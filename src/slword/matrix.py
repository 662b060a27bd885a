"""Exact determinant-one matrices and the operations the rest of the package
builds on.

An :class:`SLMatrix` is an immutable n-by-n matrix with determinant exactly
1.  The determinant is checked once, where a matrix is built from entries
(``SLMatrix(field, rows)``, ``SLMatrix.diagonal`` and every JSON matrix).
Products, inverses and the identity are built from checked matrices by the
int kernels below and inherit determinant 1 without a second check, so a
value that exists is a group element.

Representation: the n*n entries are plain ints, row-major in one flat tuple
``entries``, over one positive common denominator ``den``; entry (i, j) is
``entries[i*n + j] / den``.

- Over F_p the entries are residues in ``[0, p)`` and ``den`` is 1.
- Over Q ``den`` is the least common denominator of the entries, so
  ``gcd(den, *entries) == 1``; every product is reduced by that gcd.

Both forms are canonical, so two matrices are equal exactly when their
(field, n, entries, den) are, and zero and equality tests on entries are int
tests.  No per-entry scalar objects are built: products accumulate row times
column sums (reduced mod p, or over the product of the denominators); inverses
and determinants use Gauss-Jordan and Gaussian elimination mod p, and
fraction-free (Bareiss) elimination on the integer numerators over Q.
``mat_product`` carries a whole chain through these kernels and builds one
matrix at the end.  The F_p kernels are shared with :mod:`slword.oracle`.

Code that needs field scalars (``Fraction`` or :class:`~slword.fields.Fp`)
reads them through :attr:`SLMatrix.rows`, which builds them on each access.

JSON encoding of a matrix is ``{"n": int, "field": {...}, "entries": [[str]]}``
with entries formatted canonically on output and parsed loosely on input.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .fields import Field, Fp, Scalar


class SLMatrix:
    """Square matrix over an exact field with determinant 1."""

    __slots__ = ("field", "n", "entries", "den")

    def __init__(self, field: Field, rows: Sequence[Sequence]):
        n = len(rows)
        if n < 2:
            raise ValueError(f"dimension must be >= 2, got {n}")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        vals = [field.scalar(e) for row in rows for e in row]
        if field.p is None:
            den = lcm(*(v.denominator for v in vals))
            entries = tuple(v.numerator * (den // v.denominator) for v in vals)
        else:
            den = 1
            entries = tuple(v.val for v in vals)
        d = _det_scalar(field, n, entries, den)
        if d != field.one:
            raise ValueError(f"determinant must be 1, got {field.format(d)}")
        self.field, self.n, self.entries, self.den = field, n, entries, den

    @classmethod
    def _wrap(cls, field: Field, n: int, entries: tuple, den: int) -> "SLMatrix":
        # entries/den must be canonical and of determinant 1: the identity, or
        # a product or inverse of checked matrices, which the kernels compute
        # exactly (tests/test_kernel.py pins them against the scalar reference)
        out = cls.__new__(cls)
        out.field, out.n, out.entries, out.den = field, n, entries, den
        return out

    @classmethod
    def identity(cls, field: Field, n: int) -> "SLMatrix":
        return cls._wrap(field, n, _identity_entries(n), 1)

    @classmethod
    def diagonal(cls, field: Field, entries: Sequence) -> "SLMatrix":
        es = [field.scalar(e) for e in entries]
        zero = field.zero
        return cls(field, [[es[i] if i == j else zero for j in range(len(es))] for i in range(len(es))])

    @property
    def rows(self) -> tuple:
        """The entries as field scalars, one tuple per row; built on each access."""
        n = self.n
        if self.field.p is None:
            den = self.den
            vals = [Fraction(e, den) for e in self.entries]
        else:
            p = self.field.p
            vals = [Fp(e, p) for e in self.entries]
        return tuple(tuple(vals[i : i + n]) for i in range(0, n * n, n))

    def __mul__(self, other: "SLMatrix") -> "SLMatrix":
        self._check_compatible(other)
        return SLMatrix._wrap(
            self.field,
            self.n,
            *_product(self.field.p, self.n, self.entries, self.den, other.entries, other.den),
        )

    def inverse(self) -> "SLMatrix":
        n, p = self.n, self.field.p
        if p is not None:
            return SLMatrix._wrap(self.field, n, _inverse_mod(self.entries, n, p), 1)
        return SLMatrix._wrap(self.field, n, *_inverse_q(self.entries, self.den, n))

    def __pow__(self, k: int) -> "SLMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        acc = SLMatrix.identity(self.field, self.n)
        square = self
        while k:
            if k & 1:
                acc = acc * square
            k >>= 1
            if k:
                square = square * square
        return acc

    def is_identity(self) -> bool:
        return self.den == 1 and self.entries == _identity_entries(self.n)

    def _check_compatible(self, other: "SLMatrix"):
        if self.field != other.field or self.n != other.n:
            raise ValueError("dimension/field mismatch")

    def __eq__(self, other):
        if not isinstance(other, SLMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.n == other.n
            and self.den == other.den
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field.p, self.n, self.den, self.entries))

    def __repr__(self):
        n, body = self.n, _entry_strings(self)
        rows = ", ".join("[" + ", ".join(body[i : i + n]) + "]" for i in range(0, n * n, n))
        return f"SLMatrix({self.field!r}, [{rows}])"


# flat int kernels: a matrix is a row-major tuple of n*n ints


def _identity_entries(n: int) -> tuple:
    return tuple(int(i == j) for i in range(n) for j in range(n))


def _mul_int(a: tuple, b: tuple, n: int) -> tuple:
    cols = list(zip(*[b[i : i + n] for i in range(0, n * n, n)]))
    return tuple([sum(map(mul, a[i : i + n], col)) for i in range(0, n * n, n) for col in cols])


def _mul_mod(a: tuple, b: tuple, n: int, p: int) -> tuple:
    """a * b over F_p; unrolled for n = 2 and 3, where the oracle's searches
    spend their time."""
    if n == 2:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return (
            (a0 * b0 + a1 * b2) % p,
            (a0 * b1 + a1 * b3) % p,
            (a2 * b0 + a3 * b2) % p,
            (a2 * b1 + a3 * b3) % p,
        )
    if n == 3:
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
        return (
            (a0 * b0 + a1 * b3 + a2 * b6) % p,
            (a0 * b1 + a1 * b4 + a2 * b7) % p,
            (a0 * b2 + a1 * b5 + a2 * b8) % p,
            (a3 * b0 + a4 * b3 + a5 * b6) % p,
            (a3 * b1 + a4 * b4 + a5 * b7) % p,
            (a3 * b2 + a4 * b5 + a5 * b8) % p,
            (a6 * b0 + a7 * b3 + a8 * b6) % p,
            (a6 * b1 + a7 * b4 + a8 * b7) % p,
            (a6 * b2 + a7 * b5 + a8 * b8) % p,
        )
    return tuple([x % p for x in _mul_int(a, b, n)])


def _product(p: int | None, n: int, a: tuple, da: int, b: tuple, db: int) -> tuple[tuple, int]:
    """(entries, den) of the product of (a, da) and (b, db); p is None over Q."""
    if p is not None:
        return _mul_mod(a, b, n, p), 1
    c = _mul_int(a, b, n)
    d = da * db
    if d != 1:
        g = gcd(d, *c)
        if g != 1:
            c = tuple([x // g for x in c])
            d //= g
    return c, d


def _det_mod(a: tuple, n: int, p: int) -> int:
    """Determinant over F_p by Gaussian elimination, as a residue."""
    m = [list(a[i : i + n]) for i in range(0, n * n, n)]
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        prow = m[c]
        det = det * prow[c] % p
        f = pow(prow[c], -1, p)
        for r in range(c + 1, n):
            row = m[r]
            if row[c] % p:
                g = row[c] * f % p
                m[r] = [(x - g * y) % p for x, y in zip(row, prow)]
    return det % p


def _inverse_mod(a: tuple, n: int, p: int) -> tuple:
    """Inverse over F_p by Gauss-Jordan elimination; a must be invertible."""
    m = [list(a[i : i + n]) for i in range(0, n * n, n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] % p)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            inv[c], inv[piv] = inv[piv], inv[c]
        f = pow(m[c][c], -1, p)
        m[c] = [x * f % p for x in m[c]]
        inv[c] = [x * f % p for x in inv[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
                inv[r] = [(x - f * y) % p for x, y in zip(inv[r], inv[c])]
    return tuple([x for row in inv for x in row])


def _det_int(a: tuple, n: int) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination:
    every division is exact, so entries stay minors of a."""
    m = [list(a[i : i + n]) for i in range(0, n * n, n)]
    sign, prev = 1, 1
    for c in range(n - 1):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        prow = m[c]
        pv = prow[c]
        for r in range(c + 1, n):
            row = m[r]
            f = row[c]
            m[r] = [(pv * x - f * y) // prev for x, y in zip(row, prow)]
        prev = pv
    return sign * m[n - 1][n - 1]


def _inverse_q(a: tuple, den: int, n: int) -> tuple[tuple, int]:
    """(entries, den) of the inverse of a / den over Q.

    Fraction-free Gauss-Jordan on [a | I] ends with [d*I | d*a^-1] for one
    integer pivot d, every division along the way exact; then
    (a / den)^-1 = den * (d*a^-1) / d, reduced to lowest terms.
    """
    m = [list(a[i * n : (i + 1) * n]) + [int(i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c])
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
        prow = m[c]
        pv = prow[c]
        for r in range(n):
            if r != c:
                row = m[r]
                f = row[c]
                m[r] = [(pv * x - f * y) // prev for x, y in zip(row, prow)]
        prev = pv
    if prev < 0:
        den, prev = -den, -prev
    entries = [x * den for row in m for x in row[n:]]
    g = gcd(prev, *entries)
    return tuple([x // g for x in entries]), prev // g


def _det_scalar(field: Field, n: int, entries: tuple, den: int) -> Scalar:
    if field.p is None:
        return Fraction(_det_int(entries, n), den**n)
    return Fp(_det_mod(entries, n, field.p), field.p)


def mat_product(mats: Iterable[SLMatrix]) -> SLMatrix:
    """Product of a nonempty sequence of matrices, left to right.

    The chain is accumulated on flat ints and only the final result is built
    as a matrix; a product of determinant-1 matrices needs no determinant
    check.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("empty product")
    first = mats[0]
    field, n, p = first.field, first.n, first.field.p
    acc, den = first.entries, first.den
    for m in mats[1:]:
        first._check_compatible(m)
        acc, den = _product(p, n, acc, den, m.entries, m.den)
    return SLMatrix._wrap(field, n, acc, den)


def conjugate(g: SLMatrix, c: SLMatrix) -> SLMatrix:
    """c g c^-1."""
    return mat_product([c, g, c.inverse()])


def commutator(g: SLMatrix, h: SLMatrix) -> SLMatrix:
    """g h g^-1 h^-1."""
    return mat_product([g, h, g.inverse(), h.inverse()])


# shape predicates, on the flat entries: an entry is zero iff its int is 0,
# and equals 1 iff its int equals den


def is_diagonal(g: SLMatrix) -> bool:
    n = g.n
    return not any(e for k, e in enumerate(g.entries) if k % (n + 1))


def is_upper_triangular(g: SLMatrix) -> bool:
    n, es = g.n, g.entries
    return not any(es[i * n + j] for i in range(n) for j in range(i))


def is_lower_triangular(g: SLMatrix) -> bool:
    n, es = g.n, g.entries
    return not any(es[i * n + j] for i in range(n) for j in range(i + 1, n))


def is_upper_unitriangular(g: SLMatrix) -> bool:
    return is_upper_triangular(g) and all(e == g.den for e in g.entries[:: g.n + 1])


def is_lower_unitriangular(g: SLMatrix) -> bool:
    return is_lower_triangular(g) and all(e == g.den for e in g.entries[:: g.n + 1])


def is_central(g: SLMatrix) -> bool:
    """True iff g is a scalar matrix (the center of SL_n)."""
    diag = g.entries[:: g.n + 1]
    return is_diagonal(g) and all(e == diag[0] for e in diag)


def leading_principal_minors(g: SLMatrix) -> list:
    """Determinants of the leading k-by-k blocks, k = 1..n, as field scalars.

    Computed by direct elimination on each block, independently of any
    factorization routine, so it can serve as a cross-check.
    """
    n, es = g.n, g.entries
    return [
        _det_scalar(g.field, k, tuple(es[i * n + j] for i in range(k) for j in range(k)), g.den)
        for k in range(1, n + 1)
    ]


# JSON encoding

def _entry_strings(g: SLMatrix) -> list[str]:
    """Canonical strings of the flat entries, as ``Field.format`` writes the
    same values: residues in decimal, rationals as ``num`` or ``num/den`` in
    lowest terms."""
    if g.field.p is not None:
        return [str(e) for e in g.entries]
    den, out = g.den, []
    for e in g.entries:
        c = gcd(e, den)
        out.append(str(e // c) if c == den else f"{e // c}/{den // c}")
    return out


def matrix_to_json(g: SLMatrix) -> dict:
    n, strs = g.n, _entry_strings(g)
    return {
        "n": n,
        "field": g.field.to_json(),
        "entries": [strs[i : i + n] for i in range(0, n * n, n)],
    }


def matrix_from_json(d: dict) -> SLMatrix:
    try:
        field = Field.from_json(d["field"])
        n = int(d["n"])
        entries = d["entries"]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise ValueError("matrix JSON entries must be a list of rows")
    if len(entries) != n or any(len(r) != n for r in entries):
        raise ValueError(f"matrix JSON claims n={n} but entries are {len(entries)} rows")
    return SLMatrix(field, [[str(e) for e in row] for row in entries])
