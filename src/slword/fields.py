"""Exact scalar arithmetic over the rationals and over prime fields.

Two scalar representations are used at the package's edges: ``fractions.Fraction``
for rational values and :class:`Fp` for residues modulo a prime.  Both are
canonical by construction (lowest terms with positive denominator; residue in
``[0, p)``), so scalar equality is value equality.  No floating point appears
anywhere.  Matrices do not hold these objects: :mod:`slword.matrix` stores
plain ints (residues, or integer numerators over one common denominator) and
builds scalars only when code asks for them.

A :class:`Field` value tags which of the two worlds a computation lives in and
provides construction, parsing and formatting of scalars.  Arithmetic itself
goes through the ordinary operators; mixing residues of different primes, or
residues with rationals, raises ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Union


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Fp:
    """Residue modulo a prime ``p``, kept in the canonical range ``[0, p)``.

    Arithmetic mixes freely with ints (which are reduced mod p).  Equality
    with an int compares the canonical residue with the int as it is, so
    ``Fp(3, 5) == 3`` but ``Fp(3, 5) != 8``, in agreement with the hash.
    ``x ** -1`` is the multiplicative inverse; dividing by zero raises
    ``ZeroDivisionError`` just as ``Fraction`` does.
    """

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise TypeError(f"mixed prime fields F_{self.p} and F_{other.p}")
            return other.val
        if isinstance(other, int):
            return other % self.p
        if isinstance(other, Fraction):
            raise TypeError(f"cannot mix F_{self.p} residues with rationals")
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(v - self.val, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.val * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(self.val * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if self.val == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(v * pow(self.val, -1, self.p), self.p)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0 and self.val == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return Fp(pow(self.val, k, self.p), self.p)

    def __neg__(self):
        return Fp(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other
        return NotImplemented

    def __hash__(self):
        # Collides across different p by design; never key dicts on mixed
        # residues and ints anyway.
        return hash(self.val)

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"Fp({self.val}, {self.p})"

    def __str__(self):
        return str(self.val)


Scalar = Union[Fraction, Fp]


@dataclass(frozen=True)
class Field:
    """The rationals (``p is None``) or the prime field F_p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else Fp(0, self.p)

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else Fp(1, self.p)

    def scalar(self, v) -> Scalar:
        """Coerce ``v`` (int, str, Fraction or Fp) to a canonical scalar."""
        if self.p is None:
            if type(v) is Fraction:  # already canonical and immutable
                return v
            if isinstance(v, Fp):
                raise TypeError("residue given where a rational was expected")
            if isinstance(v, str):
                return self.parse(v)
            return Fraction(v)
        if isinstance(v, Fp):
            if v.p != self.p:
                raise TypeError(f"residue mod {v.p} given in F_{self.p}")
            return v
        if isinstance(v, str):
            return self.parse(v)
        if isinstance(v, int):
            return Fp(v, self.p)
        if isinstance(v, Fraction):
            raise TypeError("rational given where a residue was expected")
        raise TypeError(f"cannot make a scalar from {v!r}")

    def parse(self, s: str) -> Scalar:
        """Parse a scalar from a string, accepting non-canonical input.

        Rationals are ``"num/den"`` or ``"int"`` with arbitrary signs and no
        reduction required; residues are decimal strings, reduced mod p.
        Malformed strings, including a zero denominator, raise ``ValueError``.
        """
        s = s.strip()
        if self.p is None:
            if "/" in s:
                num, den = s.split("/", 1)
                if int(den) == 0:
                    raise ValueError(f"zero denominator in {s!r}")
                return Fraction(int(num), int(den))
            return Fraction(int(s))
        return Fp(int(s), self.p)

    def format(self, x: Scalar) -> str:
        """Canonical string form, inverse to :meth:`parse`."""
        if self.p is None:
            if x.denominator == 1:
                return str(x.numerator)
            return f"{x.numerator}/{x.denominator}"
        return str(x.val)

    def random_scalar(self, rng: Random, bound: int = 3) -> Scalar:
        if self.p is None:
            return Fraction(rng.randint(-bound, bound))
        return Fp(rng.randrange(self.p), self.p)

    def random_nonzero(self, rng: Random, bound: int = 3) -> Scalar:
        if self.p is None:
            v = rng.randint(1, bound)
            return Fraction(v if rng.random() < 0.5 else -v)
        return Fp(rng.randrange(1, self.p), self.p)

    def to_json(self) -> dict:
        if self.p is None:
            return {"kind": "Q"}
        return {"kind": "Fp", "p": self.p}

    @classmethod
    def from_json(cls, d: dict) -> "Field":
        if not isinstance(d, dict):
            raise ValueError(f"field must be a JSON object, got {d!r}")
        kind = d.get("kind")
        if kind == "Q":
            return QQ
        if kind == "Fp":
            return cls(int(d["p"]))
        raise ValueError(f"unknown field kind {kind!r}")

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field(None)


def GF(p: int) -> Field:
    """The prime field F_p (``p`` must be prime)."""
    return Field(p)
