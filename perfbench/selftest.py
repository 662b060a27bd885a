"""Self-tests for the benchmark's own checks and input generator.

    python3 perfbench/selftest.py

Exits 0 when every test passes.  Each test tampers with a real output of
`slword` and requires the independent check to reject it, so a check that
accepts anything cannot go unnoticed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from check import (  # noqa: E402
    CheckFailed,
    check_certificate,
    check_oracle_delta,
    check_oracle_diameter,
    matrix_json,
)
from run import check_records, execute  # noqa: E402
import spans  # noqa: E402
from workloads import Request, build_rounds, random_target  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench-work", "selftest")


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise RuntimeError(f"self-test failed: {what}")


def rejected(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def cli(argv: list[str]) -> tuple[int, str]:
    from slword.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def test_generator_matches_random_sl() -> None:
    from slword import GF, QQ, matrix_to_json, random_sl

    for p, field in ((None, QQ), (101, GF(101))):
        for n in (3, 5, 8):
            for s in range(5):
                ours = matrix_json(random_target(p, n, Random(s), factors=2 * n), p)
                theirs = matrix_to_json(random_sl(field, n, Random(s), factors=2 * n))
                expect(ours == theirs, f"target generator differs from random_sl for p={p} n={n} seed={s}")


def _certificate(p: int | None, n: int) -> tuple[dict, list[list]]:
    plan = build_rounds("certify-q" if p is None else "certify-fp", 7, os.path.join(WORK, f"p{p}"), 0, 1)
    req = next(r for r in plan[0] if r.kind == "certify" and r.check["n"] == n)
    rc, _ = cli(req.argv)
    expect(rc == 0, "certify failed")
    with open(req.check["cert"]) as f:
        return json.load(f), req.check["target"]


def test_certificate_tampering() -> None:
    for p, n in ((None, 3), (101, 5)):
        doc, target = _certificate(p, n)
        info = check_certificate(doc, p, n, target)
        expect(info["letters"] == len(doc["word"]) > 0, "valid certificate rejected")

        flipped = copy.deepcopy(doc)
        flipped["word"][len(doc["word"]) // 2]["exponent"] *= -1
        expect(rejected(check_certificate, flipped, p, n, target), "flipped exponent accepted")

        changed = copy.deepcopy(doc)
        entries = changed["word"][0]["conjugator"]["entries"]
        entries[0][0] = str(int(entries[0][0].split("/")[0]) + 1)
        expect(rejected(check_certificate, changed, p, n, target), "changed conjugator entry accepted")

        other = [row[:] for row in target]
        other[0][1] += 1
        expect(rejected(check_certificate, doc, p, n, other), "certificate for another target accepted")

        too_long = copy.deepcopy(doc)
        too_long["meta"]["bound_claimed"] = len(doc["word"]) - 1
        expect(rejected(check_certificate, too_long, p, n, target), "length above the bound accepted")


def test_oracle_answers() -> None:
    rc, text = cli(["oracle", "diameter", "--n", "2", "--p", "11", "--classes", "1"])
    doc = json.loads(text)
    expect(rc == 0 and not rejected(check_oracle_diameter, doc, 1), "true SL(2,11) diameter rejected")
    wrong = copy.deepcopy(doc)
    wrong["results"][0]["diameter"] = 4
    expect(rejected(check_oracle_diameter, wrong, 1), "wrong SL(2,11) diameter accepted")

    rc, text = cli(["oracle", "delta", "--n", "3", "--p", "2"])
    doc = json.loads(text)
    expect(rc == 0 and not rejected(check_oracle_delta, doc, 3, 2), "true SL(3,2) delta rejected")
    wrong = dict(doc, delta=2)
    expect(rejected(check_oracle_delta, wrong, 3, 2), "wrong SL(3,2) delta accepted")


def test_failed_requests_are_counted() -> None:
    from slword.cli import main

    plan = build_rounds("certify-q", 3, os.path.join(WORK, "records"), 0, 1)
    certify, verify = plan[0][0], plan[0][1]
    records = [execute(main, certify, None, 0), execute(main, verify, None, 1)]
    check_records(records)
    expect(all(r["ok"] for r in records), "valid requests marked failed")

    with open(certify.check["cert"]) as f:
        doc = json.load(f)
    doc["word"][0]["exponent"] *= -1
    with open(certify.check["cert"], "w") as f:
        json.dump(doc, f)
    check_records(records)
    expect(not records[0]["ok"] and not records[1]["ok"], "tampered certificate not counted as failed")

    wrong = [execute(main, Request("oracle_diameter", ["oracle", "diameter", "--n", "2", "--p", "11",
                                                     "--classes", "2"], {"class": 3}), None, 0)]
    check_records(wrong)
    expect(not wrong[0]["ok"], "answer to another class accepted")


def test_tracer_counts_every_construction() -> None:
    from slword import QQ
    from slword.matrix import SLMatrix
    from slword.rootdata import elementary

    plain = SLMatrix.__dict__["_wrap"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        a = elementary(QQ, 3, 1, 2, 1)
        built = tracer.counts["matrix.construct.calls"]
        a * a  # built through the classmethod _wrap, not __init__
        a.inverse()
        expect(tracer.counts["matrix.construct.calls"] == built + 2, "_wrap constructions not counted")
    finally:
        tracer.uninstall()
    expect(SLMatrix.__dict__["_wrap"] is plain, "_wrap not restored after tracing")
    expect(not tracer.missing, f"names missing from the program: {sorted(tracer.missing)}")


def test_tracer_reports_missing_names() -> None:
    saved = spans.SPANNED_FUNCTIONS
    spans.SPANNED_FUNCTIONS = saved + [("oracle.gone", "slword.oracle", "no_such_function")]
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        spans.SPANNED_FUNCTIONS = saved
    expect(tracer.missing == {"slword.oracle.no_such_function"}, "a renamed function was not reported")

    tracer = spans.Tracer()
    spans._result_counts("oracle.delta", (), object(), tracer.counts, tracer.missing)
    expect("oracle.delta.subsets" in tracer.missing, "an unreadable result was not reported")


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        for t in tests:
            t()
            print(f"ok   {t.__name__}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
