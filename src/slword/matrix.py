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
column sums (reduced mod p, or over the product of the denominators).  The
determinant and the solve a^-1 b each have one elimination for both fields,
on integers: fraction-free (Bareiss) elimination on the numerators over Q and
on the residues over F_p, whose integer result is then reduced mod p; the
inverse is the solve against I.  ``mat_product`` carries a whole chain
through these kernels and builds one matrix at the end.  The F_p kernels are
shared with :mod:`slword.oracle`.

A product of conjugates c x^e c^-1 is formed as low-rank updates instead:
``rank_factors`` writes x^e - 1 = u v^T / d with rho = rank(x - 1) columns,
checked against x - 1, and each letter is 1 + (c u)(v^T c^-1) / d,
multiplied in at O(n^2 rho).

Code that needs field scalars (``Fraction`` or :class:`~slword.fields.Fp`)
reads them through :attr:`SLMatrix.rows`, which builds them on each access.

JSON encoding of a matrix is ``{"n": int, "field": {...}, "entries": [[str]]}``
with entries formatted canonically on output and parsed loosely on input,
straight to the flat ints (``Field.parse_ints``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .fields import Field, Fp, Scalar, json_int


class SLMatrix:
    """Square matrix over an exact field with determinant 1."""

    __slots__ = ("field", "n", "entries", "den")

    def __init__(self, field: Field, rows: Sequence[Sequence]):
        n = len(rows)
        if n < 2:
            raise ValueError(f"dimension must be >= 2, got {n}")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        entries, den = _flat_entries(field, [e for row in rows for e in row])
        d = _det_scalar(field, n, entries, den)
        if d != field.one:
            raise ValueError(f"determinant must be 1, got {field.format(d)}")
        self.field, self.n, self.entries, self.den = field, n, entries, den

    @classmethod
    def _wrap(cls, field: Field, n: int, entries: tuple, den: int) -> "SLMatrix":
        # entries/den must be canonical and of determinant 1 by construction:
        # the identity, a product or inverse of checked matrices, a matrix
        # made from one by elementary row or column operations, a factor of an
        # LDU factorization, or the signed anti-diagonal n_0; the kernels
        # compute them exactly (tests/test_kernel.py pins them against the
        # scalar reference)
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


def _flat_entries(field: Field, vals: list) -> tuple[tuple, int]:
    """Canonical (entries, den) of values read as ``Field.scalar`` reads
    them.  Strings (as ``Field.parse`` reads them) and ints become ints
    directly, without a scalar object; Fractions and residues are read off."""
    p = field.p
    pairs = []
    for v in vals:
        if isinstance(v, str):
            pairs.append(field.parse_ints(v))
        elif isinstance(v, int):
            pairs.append((v, 1))
        else:
            x = field.scalar(v)
            pairs.append((x.val, 1) if p is not None else (x.numerator, x.denominator))
    if p is not None:
        return tuple([a % p for a, _ in pairs]), 1
    return _lowest_terms(pairs)


def _lowest_terms(pairs: list) -> tuple[tuple, int]:
    """Canonical (entries, den) of the rationals a / b, b != 0, of ``pairs``:
    over the lcm of the raw denominators, then reduced by gcd(den, *entries),
    which leaves den the lcm of the reduced denominators."""
    den = lcm(*[b for _, b in pairs])
    entries = [a * (den // b) for a, b in pairs]
    g = gcd(den, *entries)
    return tuple([x // g for x in entries]), den // g


def _identity_entries(n: int) -> tuple:
    es = [0] * (n * n)
    es[:: n + 1] = [1] * n
    return tuple(es)


def _rows(es: Sequence, n: int) -> list:
    """The flat row-major ``es`` cut into rows of length n."""
    return [es[i : i + n] for i in range(0, len(es), n)]


def _mul_int(a: tuple, b: tuple, n: int) -> tuple:
    return tuple(_mul_rect(_rows(a, n), list(zip(*_rows(b, n)))))


def _mul_rect(rows: list, cols: list) -> list:
    """The flat row-major product of the matrix with ``rows`` and the
    matrix with ``cols``; ``_rows(_mul_rect(cols, rows), n)`` is M * col
    for each column, M the matrix with the n ``rows``."""
    return [sum(map(mul, row, col)) for row in rows for col in cols]


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


def _solve_int(a: Sequence, b: Sequence, n: int, k: int) -> tuple[list, int]:
    """(d*a^-1 b as flat n-by-k ints, d) for an invertible n-by-n integer
    matrix a and an n-by-k integer matrix b, both flat and row-major.

    Fraction-free Gauss-Jordan on [a | b] ends with [d*I | d*a^-1 b] for one
    integer pivot d = +-det a, every division along the way exact; each row
    drops a column once it is eliminated.
    """
    m = [list(a[i * n : (i + 1) * n]) + list(b[i * k : (i + 1) * k]) for i in range(n)]
    prev = 1
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][0])
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
        prow = m[c]
        pv = prow[0]
        rest = prow[1:]
        for r in range(n):
            if r != c:
                row = m[r]
                f = row[0]
                if f:
                    m[r] = [(pv * x - f * y) // prev for x, y in zip(row[1:], rest)]
                else:
                    m[r] = [pv * x // prev for x in row[1:]]
        m[c] = rest
        prev = pv
    return [x for row in m for x in row], prev


def _inverse_q(a: tuple, den: int, n: int) -> tuple[tuple, int]:
    """(entries, den) of the inverse of a / den over Q:
    (a / den)^-1 = den * (d*a^-1) / d, reduced to lowest terms."""
    entries, d = _solve_int(a, _identity_entries(n), n, n)
    if d < 0:
        den, d = -den, -d
    entries = [x * den for x in entries]
    g = gcd(d, *entries)
    return tuple([x // g for x in entries]), d // g


def _inverse_mod(a: tuple, n: int, p: int) -> tuple:
    """Inverse over F_p of the residues a, invertible mod p: the integer
    inverse, reduced.  d = +-det a is nonzero mod p, so a unit."""
    entries, d = _solve_int(a, _identity_entries(n), n, n)
    f = pow(d, -1, p)
    return tuple([x * f % p for x in entries])


def _det_scalar(field: Field, n: int, entries: tuple, den: int) -> Scalar:
    if field.p is None:
        return Fraction(_det_int(entries, n), den**n)
    return Fp(_det_int(entries, n), field.p)


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


# low-rank letters; u, v, a and b are lists of rho columns of n ints


def _rank_factor(m: Sequence, n: int, p: int | None) -> tuple[list, list, int]:
    """(u, v, l) with the n-by-n int matrix m = u v^T / l over Q (p None), or
    m = u v^T mod p with l = 1; u and v have rho = rank m columns.

    Gauss-Jordan that scales rows only by nonzero ints (residues stay reduced
    mod p, as the rank mod p is not the rank over Z; integer rows are divided
    by their content) ends with rows R_k, pivot r_k in column j_k and 0 in
    the other pivot columns.  Row i of m is then sum_k (m_{i j_k} / r_k) R_k:
    u_k is column j_k of m and v_k = R_k l / r_k, l = lcm(r_k).
    """
    rows = [list(row) if p is None else [x % p for x in row] for row in _rows(m, n)]
    cols = list(zip(*rows))
    pivots = []  # the j_k; rows[:rho] end up as the R_k
    for c in range(n):
        k = len(pivots)
        piv = next((i for i in range(k, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        prow = rows[k]
        pv = prow[c]
        if p is not None and pv != 1:
            f = pow(pv, -1, p)
            prow = rows[k] = [x * f % p for x in prow]
            pv = 1
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != k:
                if p is not None:
                    rows[i] = [(x - f * y) % p for x, y in zip(row, prow)]
                else:
                    row = [pv * x - f * y for x, y in zip(row, prow)]
                    g = gcd(*row)
                    rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    basis = rows[: len(pivots)]
    l = lcm(*[row[c] for row, c in zip(basis, pivots)])
    v = [[x * (l // row[c]) for x in row] for row, c in zip(basis, pivots)]
    return [list(cols[c]) for c in pivots], v, l


def _solve_transposed(c: SLMatrix, v: list) -> tuple[list, int]:
    """(z, det) with c^-T v = den_c z / det for c = C / den_c, from one
    solve of C^T z = v."""
    n, rho = c.n, len(v)
    ct = [y for i in range(n) for y in c.entries[i::n]]
    z, det = _solve_int(ct, [vk[i] for i in range(n) for vk in v], n, rho)
    return [z[k::rho] for k in range(rho)], det


def _normalized(p: int | None, a: list, b: list, den: int) -> tuple[list, list, int]:
    """a b^T / den as residues with den = 1 over F_p; over Q with den > 0
    and a, b divided by their common factors with den."""
    if p is not None:
        f = pow(den, -1, p)
        return [[s % p for s in col] for col in a], [[s * f % p for s in col] for col in b], 1
    if den < 0:
        den, b = -den, [[-s for s in col] for col in b]
    g = gcd(den, *[s for col in a for s in col])
    if g > 1:
        a, den = [[s // g for s in col] for col in a], den // g
    g = gcd(den, *[s for col in b for s in col])
    if g > 1:
        b, den = [[s // g for s in col] for col in b], den // g
    return a, b, den


def rank_factors(x: SLMatrix) -> tuple[tuple, tuple]:
    """(u, v, d) with x - 1 = u v^T / d and (u, v', d') with x^-1 - 1 =
    u v'^T / d', u and v with rho = rank(x - 1) columns and d > 0.

    The factors of x - 1 are checked against x entry by entry, by explicit
    code that also runs under ``python -O``; x^-1 - 1 = -(x - 1) x^-1 takes
    v' = -x^-T v from one solve with rho right-hand sides.
    """
    n, p = x.n, x.field.p
    m = list(x.entries)  # den (x - 1)
    for i in range(0, n * n, n + 1):
        m[i] -= x.den
    u, v, l = _rank_factor(m, n, p)
    got = [0] * (n * n)
    for uk, vk in zip(u, v):
        got = [s + a * b for s, (a, b) in zip(got, product(uk, vk))]
    want = [l * s for s in m]
    if p is not None:
        got, want = [s % p for s in got], [s % p for s in want]
    if got != want:
        raise ArithmeticError("the rank factors do not reproduce x - 1")
    z, det = _solve_transposed(x, v)  # x^-T v = den z / det; den cancels
    return _normalized(p, u, v, l * x.den), _normalized(p, u, [[-s for s in col] for col in z], l * det)


def conjugated_factors(c: SLMatrix, factors: tuple, c_inv: SLMatrix | None = None) -> tuple[list, list, int]:
    """(a, b, den) with c x^e c^-1 - 1 = a b^T / den for the ``rank_factors``
    (u, v, d) of x^e - 1: a = c u, and b^T = v^T c^-1 read off ``c_inv`` or,
    without it, from one solve of c^T z = v with rho right-hand sides."""
    u, v, d = factors
    n = c.n
    a = _rows(_mul_rect(u, _rows(c.entries, n)), n)
    if c_inv is None:
        b, det = _solve_transposed(c, v)  # den_c cancels against a's
        return _normalized(c.field.p, a, b, d * det)
    ci = c_inv.entries  # the rows of c^-T are the columns of c^-1
    b = _rows(_mul_rect(v, [ci[j::n] for j in range(n)]), n)
    return _normalized(c.field.p, a, b, d * c.den * c_inv.den)


def low_rank_product(field: Field, n: int, forms: Iterable[tuple]) -> SLMatrix:
    """The product, left to right, of 1 + a b^T / den over the ``forms`` of
    ``conjugated_factors``: P becomes P + (P a) b^T / den, O(n^2 rho) per
    form.  Each form is a conjugate of a determinant-1 matrix, so the
    product needs no determinant check."""
    p = field.p
    acc, den = _identity_entries(n), 1
    for a, b, d in forms:
        rows = _rows(acc, n)
        pa = _rows(_mul_rect(a, rows), n)
        new = []
        for i, row in enumerate(rows):
            if d != 1:
                row = [x * d for x in row]
            for pak, bk in zip(pa, b):
                s = pak[i]
                if s:
                    row = [x + s * y for x, y in zip(row, bk)]
            new.extend(row)
        if p is not None:
            acc = tuple([x % p for x in new])
        elif den * d != 1:
            den *= d
            g = gcd(den, *new)
            acc = tuple([x // g for x in new]) if g > 1 else tuple(new)
            den //= g
        else:
            acc = tuple(new)
    return SLMatrix._wrap(field, n, acc, den)


# shape predicates, on the flat entries: an entry is zero iff its int is 0,
# and equals 1 iff its int equals den


def is_diagonal(g: SLMatrix) -> bool:
    n = g.n
    return not any(e for k, e in enumerate(g.entries) if k % (n + 1))


def is_upper_triangular(g: SLMatrix) -> bool:
    n, es = g.n, g.entries
    return not any(es[i * n + j] for i in range(n) for j in range(i))


def is_upper_unitriangular(g: SLMatrix) -> bool:
    return is_upper_triangular(g) and all(e == g.den for e in g.entries[:: g.n + 1])


def _repeated_diagonal(g: SLMatrix) -> tuple[int, int] | None:
    """The first positions i < j of equal diagonal entries, or None."""
    n, diag = g.n, g.entries[:: g.n + 1]
    return next(((i, j) for i in range(n) for j in range(i + 1, n) if diag[i] == diag[j]), None)


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
        n = json_int(d["n"], "matrix n")
        entries = d["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise ValueError("matrix JSON entries must be a list of rows")
    if len(entries) != n or any(len(r) != n for r in entries):
        raise ValueError(f"matrix JSON claims n={n} but entries are {len(entries)} rows")
    return SLMatrix(field, [[str(e) for e in row] for row in entries])
