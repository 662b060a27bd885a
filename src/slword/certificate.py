"""Factorization certificates: verifiable witnesses that a target matrix is a
product of a stated number of conjugates of base elements.

A certificate holds a target g, a base list (x_0, ..., x_m) and a word of
letters (c, k, e) with e in {+1, -1}; it asserts

    g  =  prod over letters, in order, of  c * x_k^e * c^-1.

``verify_certificate`` recomputes the word's product and compares it exactly
with the target.  Each letter is a low-rank update 1 + (c u)(v^T c^-1): u and
v factor x^e - 1 and come from the base matrix itself, checked against it,
and v^T c^-1 from one exact solve against c, so no conjugator is inverted.
Only the certificate's matrices enter, in exact arithmetic, so the check
places no trust whatsoever in whoever produced the certificate.  The word
length is then a proven upper bound for the conjugate-word norm of g with
respect to the base.  ``require_valid`` is the same check as an explicit
guard that raises, so it also holds under ``python -O``.

JSON layout (bit-exact after canonicalization):

    {"field": {...}, "n": int, "target": matrix, "base": [matrix],
     "word": [{"conjugator": matrix, "base": int, "exponent": +-1}],
     "meta": {"length": int, "seed": int|null, "bound_claimed": int|null}}
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

from .fields import Field, json_int
from .matrix import (
    SLMatrix,
    conjugated_factors,
    low_rank_product,
    mat_product,
    matrix_from_json,
    matrix_to_json,
    rank_factors,
)


@dataclass(frozen=True)
class Letter:
    conjugator: SLMatrix
    base_index: int
    exponent: int  # +1 or -1


@dataclass(frozen=True)
class Certificate:
    field: Field
    n: int
    target: SLMatrix
    base: tuple[SLMatrix, ...]
    word: tuple[Letter, ...]
    seed: int | None = None
    bound_claimed: int | None = None
    # deterministic counters of the searches that built the certificate; not
    # part of the JSON or of equality
    stats: dict | None = dataclass_field(default=None, compare=False, repr=False)

    @property
    def length(self) -> int:
        return len(self.word)


def _check_well_formed(cert: Certificate):
    mats = [cert.target, *cert.base] + [l.conjugator for l in cert.word]
    for m in mats:
        if m.field != cert.field or m.n != cert.n:
            raise ValueError("certificate mixes fields or dimensions")
    if not cert.base:
        raise ValueError("certificate needs at least one base element")
    for l in cert.word:
        if not 0 <= l.base_index < len(cert.base):
            raise ValueError(f"letter refers to base element {l.base_index} of {len(cert.base)}")
        if l.exponent not in (+1, -1):
            raise ValueError(f"letter exponent must be +-1, got {l.exponent}")


def evaluate_certificate(cert: Certificate) -> SLMatrix:
    """The exact product of the word, independent of the target; each base
    element is factored once by ``rank_factors``."""
    _check_well_formed(cert)
    factors = {}

    def forms():
        for l in cert.word:
            k = l.base_index
            if k not in factors:
                factors[k] = rank_factors(cert.base[k])
            yield conjugated_factors(l.conjugator, factors[k][0 if l.exponent == 1 else 1])

    return low_rank_product(cert.field, cert.n, forms())


def verify_certificate(cert: Certificate) -> bool:
    """True iff the word's exact product equals the target.

    Malformed certificates (bad indices, mixed fields, exponents outside
    {+1,-1}) raise ValueError rather than returning False.
    """
    return evaluate_certificate(cert) == cert.target


class CertificateMismatch(RuntimeError):
    """A certificate whose word does not multiply to its target, or whose
    length exceeds the bound it claims."""


def require_valid(cert: Certificate) -> Certificate:
    """Return ``cert`` after one exact check of its identity and its claimed
    bound; raise ``CertificateMismatch`` otherwise."""
    if not verify_certificate(cert):
        raise CertificateMismatch("the constructed word does not multiply to the target")
    if cert.bound_claimed is not None and cert.length > cert.bound_claimed:
        raise CertificateMismatch(
            f"the constructed word has length {cert.length}, over its bound {cert.bound_claimed}"
        )
    return cert


def substitute_certificate(outer: Certificate, inner: Certificate) -> Certificate:
    """Certificate for outer's target over inner's base.

    ``outer`` must be written over the single base element ``inner.target``.
    Each letter c t^e c^-1 of ``outer`` becomes inner's word with every
    conjugator multiplied by c on the left, reversed with flipped exponents
    when e = -1.  The length is the product of the two lengths.
    """
    if outer.base != (inner.target,):
        raise ValueError("the outer certificate must be over the inner certificate's target")
    letters = []
    for l in outer.word:
        if l.exponent == +1:
            for il in inner.word:
                letters.append(Letter(l.conjugator * il.conjugator, il.base_index, il.exponent))
        else:
            # t^-1 reverses t's word and flips every exponent
            for il in reversed(inner.word):
                letters.append(Letter(l.conjugator * il.conjugator, il.base_index, -il.exponent))
    return Certificate(
        field=outer.field, n=outer.n, target=outer.target, base=inner.base, word=tuple(letters)
    )


def conjugate_certificate(cert: Certificate, c: SLMatrix) -> Certificate:
    """Certificate for c * target * c^-1 over the same base, letter by letter.

    Conjugation only rewrites the conjugators, so the length is unchanged;
    word norms are conjugation-invariant and so are their witnesses.
    """
    return replace(
        cert,
        target=mat_product([c, cert.target, c.inverse()]),
        word=tuple(Letter(c * l.conjugator, l.base_index, l.exponent) for l in cert.word),
    )


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "field": cert.field.to_json(),
        "n": cert.n,
        "target": matrix_to_json(cert.target),
        "base": [matrix_to_json(b) for b in cert.base],
        "word": [
            {
                "conjugator": matrix_to_json(l.conjugator),
                "base": l.base_index,
                "exponent": l.exponent,
            }
            for l in cert.word
        ],
        "meta": {
            "length": cert.length,
            "seed": cert.seed,
            "bound_claimed": cert.bound_claimed,
        },
    }


def certificate_from_json(d: dict) -> Certificate:
    try:
        field = Field.from_json(d["field"])
        n = json_int(d["n"], "certificate n")
        target = matrix_from_json(d["target"])
        base = tuple(matrix_from_json(b) for b in d["base"])
        word = tuple(
            Letter(matrix_from_json(l["conjugator"]), json_int(l["base"], "letter base"),
                   json_int(l["exponent"], "letter exponent"))
            for l in d["word"]
        )
        meta = d.get("meta", {})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed certificate JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"certificate meta must be a JSON object, not {type(meta).__name__}")
    cert = Certificate(
        field=field,
        n=n,
        target=target,
        base=base,
        word=word,
        seed=meta.get("seed"),
        bound_claimed=meta.get("bound_claimed"),
    )
    _check_well_formed(cert)
    return cert
