"""Independent checks of what `slword` emits, written without importing it.

A certificate is checked against its documented flat JSON layout

    {"field": {...}, "n": int, "target": matrix, "base": [matrix],
     "word": [{"conjugator": matrix, "base": int, "exponent": +-1}],
     "meta": {"length": int, "seed": int|null, "bound_claimed": int|null}}

by multiplying the word out from scratch: plain `Fraction` entries over Q and
ints mod p over F_p, with inverses by Gauss-Jordan elimination.  Nothing the
program computed is reused, so a certificate that passes is a true identity.

Oracle reports are checked against answers frozen in this file.  They were
recorded once and cross-checked against the independent fixed-point
recomputation in `slword.oracle.norms_by_fixed_point` (see
`record_oracle.py`); they are facts about the groups, so every correct
implementation reproduces them.
"""

from __future__ import annotations

import json
from fractions import Fraction


class CheckFailed(Exception):
    """An output that is not what the benchmark's own check expects."""


# ---------------------------------------------------------------- scalars

def parse_field(d) -> int | None:
    """None for Q, the prime p for F_p."""
    if not isinstance(d, dict):
        raise CheckFailed(f"field must be an object, got {d!r}")
    if d.get("kind") == "Q":
        return None
    if d.get("kind") == "Fp" and isinstance(d.get("p"), int) and d["p"] > 1:
        return d["p"]
    raise CheckFailed(f"unknown field {d!r}")


def field_json(p: int | None) -> dict:
    return {"kind": "Q"} if p is None else {"kind": "Fp", "p": p}


def cli_field(p: int | None) -> str:
    return "Q" if p is None else f"Fp:{p}"


def format_entry(x, p: int | None) -> str:
    """Canonical entry string, as the documented matrix layout prints it."""
    if p is not None:
        return str(x % p)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _parse_entry(s, p: int | None):
    if not isinstance(s, str):
        raise CheckFailed(f"matrix entry must be a string, got {s!r}")
    try:
        return Fraction(s) if p is None else int(s) % p
    except (ValueError, ZeroDivisionError) as exc:
        raise CheckFailed(f"bad matrix entry {s!r}: {exc}") from None


def parse_matrix(d, p: int | None, n: int) -> list[list]:
    if not isinstance(d, dict) or d.get("n") != n or parse_field(d.get("field")) != p:
        raise CheckFailed("matrix does not match the certificate's field and size")
    rows = d.get("entries")
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise CheckFailed(f"matrix entries are not {n} by {n}")
    return [[_parse_entry(e, p) for e in r] for r in rows]


def matrix_json(rows, p: int | None) -> dict:
    return {
        "n": len(rows),
        "field": field_json(p),
        "entries": [[format_entry(e, p) for e in r] for r in rows],
    }


# ---------------------------------------------------------------- matrices

def _identity(n: int) -> list[list]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mul(a, b, p: int | None):
    cols = list(zip(*b))
    if p is None:
        return [[sum(x * y for x, y in zip(row, col) if x and y) for col in cols] for row in a]
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def _inverse(a, p: int | None):
    n = len(a)
    m = [list(r) for r in a]
    inv = _identity(n)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise CheckFailed("singular matrix in certificate")
        m[col], m[piv] = m[piv], m[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = 1 / m[col][col] if p is None else pow(m[col][col], -1, p)
        m[col] = [x * f for x in m[col]]
        inv[col] = [x * f for x in inv[col]]
        if p is not None:
            m[col] = [x % p for x in m[col]]
            inv[col] = [x % p for x in inv[col]]
        for r in range(n):
            f = m[r][col]
            if r == col or not f:
                continue
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
            if p is not None:
                m[r] = [x % p for x in m[r]]
                inv[r] = [x % p for x in inv[r]]
    return inv


def entry_bits(rows) -> int:
    """Largest numerator or denominator bit length among the entries."""
    return max(
        max(Fraction(e).numerator.bit_length(), Fraction(e).denominator.bit_length())
        for r in rows
        for e in r
    )


# ---------------------------------------------------------------- certificates

def check_certificate(doc, field: int | None, n: int, target: list[list]) -> dict:
    """Multiply a certificate out exactly and compare it with `target`.

    Returns the certificate's letter count and the largest entry bit length
    among its conjugators; raises CheckFailed on any mismatch.
    """
    if not isinstance(doc, dict):
        raise CheckFailed("certificate is not a JSON object")
    if parse_field(doc.get("field")) != field or doc.get("n") != n:
        raise CheckFailed("certificate field or size differs from the request")
    if parse_matrix(doc.get("target"), field, n) != target:
        raise CheckFailed("certificate target differs from the generated input")
    base_docs, word = doc.get("base"), doc.get("word")
    if not isinstance(base_docs, list) or not base_docs or not isinstance(word, list):
        raise CheckFailed("certificate needs a nonempty base and a word list")
    meta = doc.get("meta")
    if not isinstance(meta, dict) or meta.get("length") != len(word):
        raise CheckFailed("meta.length differs from the word length")
    bound = meta.get("bound_claimed")
    if not isinstance(bound, int) or len(word) > bound:
        raise CheckFailed(f"length {len(word)} exceeds the claimed bound {bound}")

    base = [parse_matrix(b, field, n) for b in base_docs]
    base_inv: dict[int, list] = {}
    product = _identity(n)
    bits = 0
    for letter in word:
        if not isinstance(letter, dict):
            raise CheckFailed("letter is not a JSON object")
        k, e = letter.get("base"), letter.get("exponent")
        if not isinstance(k, int) or not 0 <= k < len(base) or e not in (1, -1):
            raise CheckFailed(f"bad letter base {k!r} or exponent {e!r}")
        c = parse_matrix(letter.get("conjugator"), field, n)
        bits = max(bits, entry_bits(c))
        if e == 1:
            x = base[k]
        else:
            if k not in base_inv:
                base_inv[k] = _inverse(base[k], field)
            x = base_inv[k]
        product = _mul(_mul(_mul(product, c, field), x, field), _inverse(c, field), field)
    if product != target:
        raise CheckFailed("the word does not multiply to the target")
    return {"letters": len(word), "entry_bits": bits}


def check_certificate_file(path, field: int | None, n: int, target: list[list]) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read certificate {path}: {exc}") from None
    return check_certificate(doc, field, n, target)


# ---------------------------------------------------------------- oracle

# delta of SL(n, p) and delta_k for k = 1 .. number of classes
FROZEN_DELTA = {
    (2, 5): {"order": 120, "delta": 5, "delta_k": [5] * 9},
    (3, 2): {"order": 168, "delta": 3, "delta_k": [3] * 6},
}

# SL(2, 11): class sizes, and the diameter of every single class that
# generates (the two central classes do not generate)
FROZEN_SL2_11 = {
    "order": 1320,
    "class_sizes": sorted([1, 1] + [60] * 4 + [110] * 5 + [132] * 4),
    "single_class_diameter": 3,
}


def check_oracle_delta(doc, n: int, p: int) -> None:
    want = FROZEN_DELTA[(n, p)]
    if not isinstance(doc, dict):
        raise CheckFailed("oracle report is not a JSON object")
    for key in ("order", "delta", "delta_k"):
        if doc.get(key) != want[key]:
            raise CheckFailed(f"SL({n},{p}) {key} is {doc.get(key)!r}, expected {want[key]!r}")


def check_oracle_diameter(doc, class_id: int) -> None:
    """A single-class diameter report for SL(2, 11)."""
    want = FROZEN_SL2_11
    if not isinstance(doc, dict) or doc.get("order") != want["order"]:
        raise CheckFailed("SL(2,11) report has the wrong group order")
    classes = doc.get("classes")
    if not isinstance(classes, list) or sorted(
        c.get("size") for c in classes if isinstance(c, dict)
    ) != want["class_sizes"]:
        raise CheckFailed("SL(2,11) report has the wrong class sizes")
    results = doc.get("results")
    if not isinstance(results, list) or len(results) != 1 or not isinstance(results[0], dict):
        raise CheckFailed("diameter report needs exactly one result")
    (res,) = results
    if res.get("classSet") != [class_id]:
        raise CheckFailed(f"diameter report is for {res.get('classSet')!r}, asked {class_id}")
    central = classes[class_id].get("size") == 1
    expected = (False, None) if central else (True, want["single_class_diameter"])
    got = (res.get("generates"), res.get("diameter"))
    if got != expected:
        raise CheckFailed(f"class {class_id} of SL(2,11) gave {got!r}, expected {expected!r}")
