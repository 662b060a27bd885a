"""Batch command-line interface.

Machine-readable JSON goes to stdout, human summaries to stderr, so output
can be piped straight into other tools.  All randomness is driven by --seed
(falling back to the SLWORD_SEED environment variable, then 0), and a fixed
seed reproduces byte-identical output.

Exit codes: 0 success, 1 certificate verification mismatch (from ``verify``,
or from ``certify`` when the certificate it built fails its own final
check), 2 search budget exhausted, 3 invalid input, 4 group-size cap
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from random import Random

from .bruhat import SearchBudgetExceeded, big_cell_decompose, bruhat_decompose
from .certificate import (
    CertificateMismatch,
    certificate_from_json,
    certificate_to_json,
    evaluate_certificate,
)
from .decompose import GeneratingSet, decompose_full, decompose_via_sourour
from .fields import Field, GF, QQ
from .matrix import matrix_from_json, matrix_to_json
from .oracle import (
    FINITE_FIELD_NOTE,
    GroupSizeCapExceeded,
    delta,
    enumerate_group,
    norm_ball_table,
    normally_generates,
    transvection_diameter,
)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_json(path: str):
    with open(path) as f:
        return json.load(f)


def _parse_field(s: str) -> Field:
    if s == "Q":
        return QQ
    if s.startswith("Fp:"):
        return GF(int(s.split(":", 1)[1]))
    raise ValueError(f"field must be Q or Fp:<p>, got {s!r}")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SLWORD_SEED")
    return int(env) if env else 0


def cmd_certify(args) -> int:
    field = _parse_field(args.field)
    target = matrix_from_json(_load_json(args.target))
    if target.field != field or target.n != args.n:
        raise ValueError("--field/--n do not match the target matrix")
    seed = _resolve_seed(args)
    rng = Random(seed)
    if args.generator:
        t = matrix_from_json(_load_json(args.generator))
        cert = replace(decompose_via_sourour(target, t, rng, args.budget), seed=seed, bound_claimed=14)
    else:
        raw = _load_json(args.genset)
        mats = raw["matrices"] if isinstance(raw, dict) else raw
        if not isinstance(mats, list):
            raise ValueError(f"--genset must hold a JSON list of matrices, not {type(mats).__name__}")
        X = GeneratingSet.of(matrix_from_json(m) for m in mats)
        cert = decompose_full(target, X, rng, args.budget, seed=seed)
    out = _dumps(certificate_to_json(cert))
    if args.out:
        with open(args.out, "w") as f:
            f.write(out)
    sys.stdout.write(out)
    print(
        f"certificate length {cert.length} (claimed bound {cert.bound_claimed}); "
        + _describe_searches(cert.stats),
        file=sys.stderr,
    )
    return 0


def _describe_searches(stats: dict) -> str:
    """The route and the attempts of each search, for the stderr summary."""
    parts = [f"route {stats['route']}"]
    if "radius" in stats:
        parts.append(
            f"t at radius {stats['radius']} after {stats['samples']} samples "
            f"({stats['cell_misses']} outside the open cell, "
            f"{stats['diagonal_retries']} pairs with a repeated diagonal)"
        )
    if "basis_attempts" in stats:
        parts.append(f"basis search {stats['basis_attempts']} attempts")
    return "; ".join(parts)


def cmd_verify(args) -> int:
    cert = certificate_from_json(_load_json(args.certificate))
    product = evaluate_certificate(cert)
    if product == cert.target:
        print(f"OK: length {cert.length} word multiplies to the target", file=sys.stderr)
        return 0
    sys.stdout.write(_dumps({"recomputed_product": matrix_to_json(product)}))
    print("MISMATCH: word product differs from the target", file=sys.stderr)
    return 1


def cmd_bruhat(args) -> int:
    g = matrix_from_json(_load_json(args.matrix))
    bf = bruhat_decompose(g)
    cell = big_cell_decompose(g)
    report = {
        "n": g.n,
        "field": g.field.to_json(),
        "bruhat": {
            "u": matrix_to_json(bf.u),
            "w": [i + 1 for i in bf.w],
            "w_rep": matrix_to_json(bf.w_rep),
            "b": matrix_to_json(bf.b),
        },
        "big_cell": None
        if cell is None
        else {
            "lower": matrix_to_json(cell.lower),
            "diag": matrix_to_json(cell.diag),
            "upper": matrix_to_json(cell.upper),
        },
    }
    sys.stdout.write(_dumps(report))
    return 0


def _classes_summary(table) -> list[dict]:
    return [
        {
            "index": i,
            "size": len(cls),
            "representative": matrix_to_json(table.matrix(cls[0])),
        }
        for i, cls in enumerate(table.classes)
    ]


def cmd_oracle(args) -> int:
    table = enumerate_group(args.n, args.p, args.cap)
    base = {
        "group": f"SL({args.n},{args.p})",
        "order": table.order,
        "classes": _classes_summary(table),
        "note": FINITE_FIELD_NOTE,
    }
    if args.action == "diameter":
        if args.classes:
            class_ids = tuple(int(c) for c in args.classes.split(","))
        else:
            class_ids = tuple(range(len(table.classes)))
        if normally_generates(table, class_ids):
            diam = norm_ball_table(table, class_ids).diameter
        else:
            diam = None
        report = dict(
            base,
            results=[{"classSet": list(class_ids), "generates": diam is not None, "diameter": diam}],
            delta=None,
            delta_k=None,
        )
    elif args.action == "delta":
        rep = delta(table, max_classes=args.max_classes, subset_cap=args.subset_cap)
        report = dict(
            base,
            results=[
                {"classSet": list(r.class_ids), "generates": r.generates, "diameter": r.diameter}
                for r in rep.results
            ],
            delta=rep.delta,
            delta_k=rep.delta_k,
            witnesses=[list(w) for w in rep.witnesses],
        )
    else:  # transvection
        report = transvection_diameter(args.n, args.p, args.cap)
    sys.stdout.write(_dumps(report))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slword",
        description="exact conjugate-word factorizations and word-norm diameters in SL_n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="factor a target as a word of conjugates, emitting a certificate")
    c.add_argument("--field", required=True, help="Q or Fp:<p>")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--target", required=True, help="matrix JSON file")
    mode = c.add_mutually_exclusive_group(required=True)
    mode.add_argument("--generator", help="matrix JSON file: regular upper triangular t (bound 14)")
    mode.add_argument("--genset", help="JSON file with a list of matrices (bound 56(n-1))")
    c.add_argument("--seed", type=int, default=None, help="default: $SLWORD_SEED or 0")
    c.add_argument("--budget", type=int, default=10_000)
    c.add_argument("--out", help="also write the certificate JSON here")
    c.set_defaults(func=cmd_certify)

    v = sub.add_parser("verify", help="re-multiply a certificate and check it against its target")
    v.add_argument("certificate", help="certificate JSON file")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bruhat", help="Bruhat and big-cell decompositions of a matrix")
    b.add_argument("--matrix", required=True, help="matrix JSON file")
    b.set_defaults(func=cmd_bruhat)

    o = sub.add_parser("oracle", help="exhaustive word-norm computations on small SL_n(F_p)")
    o.add_argument("action", choices=["diameter", "delta", "transvection"])
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--p", type=int, required=True)
    o.add_argument("--classes", help="comma-separated class indices (diameter; default all)")
    o.add_argument("--max-classes", type=int, default=None, help="report delta_k up to this k")
    o.add_argument("--cap", type=int, default=10**6, help="largest group order to enumerate")
    o.add_argument("--subset-cap", type=int, default=2**20, help="largest class-subset count for delta")
    o.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CertificateMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroupSizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
