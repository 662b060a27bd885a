"""Closed-loop benchmark of the `slword` command line.

    python3 perfbench/run.py --workload certify-q --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  One process, one thread, one client: each
request goes in-process through `slword.cli.main(argv)` (stdout and stderr
captured, the exit code is the outcome), and the next request is sent only
when the previous one has finished.  Rounds of the workload's request mix
(see workloads.py) run until `--seconds` have passed; the round in flight
finishes.  Rounds beyond those written at set-up are written with the clock
paused.

Times are reported in seconds of a reference machine (refclock.py): while
the benchmark measures, a timer samples the machine's speed every 50 ms by
timing a small fixed unit of reference work, and times are scaled by the
mean speed sampled while they ran, so that the shared machine's changes of
speed do not read as changes of the program.  The sampler's own time is
left out of every measurement.

After the timed loop every output is checked by the benchmark's own code
(check.py): every certificate is multiplied out exactly, every oracle answer
is compared with frozen values.  A request whose exit code is not 0, that
raises, or whose output fails the check counts as failed.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs the loop for
half the time with spans installed (spans.py), then replays the same
requests untraced; it reports the per-layer metrics, the per-command numbers
of the untraced replay and the tracing overhead (traced minus untraced time).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run (interpreter, optimize
flag, nproc, seed, SHA-256 of every certificate) and, when tracing, the
spans are written under .perfbench-work/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback

from check import CheckFailed, check_certificate_file, check_oracle_delta, check_oracle_diameter
import refclock
from refclock import mark, now, to_reference
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, build_rounds, planned_rounds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
SETUP_REPEATS = 21


def _spec() -> tuple[list[str], list[str], dict[str, str]]:
    """Metric names (end to end, per layer) and units from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]], units


def _import_cli():
    """A fresh import of the program from this checkout's src/."""
    for name in [m for m in sys.modules if m == "slword" or m.startswith("slword.")]:
        del sys.modules[name]
    cli = importlib.import_module("slword.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"slword was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, seconds: float, rundir: str):
    """Import the program and write the planned inputs, SETUP_REPEATS times.

    Returns the median set-up time in reference seconds, the CLI entry
    point, the rounds of the last repeat and a function that writes further
    rounds next to them.
    """
    times = []
    since = mark()
    for k in range(SETUP_REPEATS):
        workdir = os.path.join(rundir, f"inputs{k}")
        t0 = now()
        cli = _import_cli()
        plan = build_rounds(workload, seed, workdir, 0, planned_rounds(workload, seconds))
        times.append(now() - t0)
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(workdir)

    def more(first: int):
        return build_rounds(workload, seed, workdir, first, len(plan))

    return to_reference(statistics.median(times), since), cli.main, plan, more


def execute(main, req, tracer: Tracer | None, index: int) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    t0 = now()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = main(req.argv)
            else:
                rc = tracer.request(index, "cli." + req.kind, main, req.argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # any escape from main is a failed request, not a crash
        error = traceback.format_exc(limit=4)
    seconds = now() - t0
    text = out.getvalue()
    return {
        "req": req,
        "seconds": seconds,
        "rc": rc,
        "error": error or (err.getvalue()[-400:] if rc != 0 else None),
        "stdout_bytes": len(text),  # JSON output is ASCII
        # certificates are read back from their --out file instead
        "stdout": None if req.kind == "certify" else text,
    }


def run_rounds(main, plan, seconds: float, more, tracer: Tracer | None = None):
    """Closed loop over whole rounds until `seconds` have passed.  When `plan`
    runs out, `more(len(plan))` extends it with the clock paused."""
    records = []
    t0 = now()
    r = 0
    while r == 0 or now() - t0 < seconds:
        if r == len(plan):
            pause = now()
            plan.extend(more(len(plan)))
            t0 += now() - pause
        for req in plan[r]:
            records.append(execute(main, req, tracer, len(records)))
        r += 1
    return records


def _wall(records) -> float:
    return sum(r["seconds"] for r in records)


def check_records(records) -> None:
    """Independent check of every output; sets rec['ok'] and the figures."""
    passed = set()  # certificate files that passed the check
    for rec in records:
        req = rec["req"]
        rec["ok"] = False
        if rec["rc"] != 0:
            continue
        try:
            if req.kind == "certify":
                info = req.check
                rec.update(check_certificate_file(info["cert"], info["field"], info["n"], info["target"]))
                with open(info["cert"], "rb") as f:
                    rec["sha256"] = hashlib.sha256(f.read()).hexdigest()
                passed.add(info["cert"])
            elif req.kind == "verify":
                if req.check["cert"] not in passed:
                    raise CheckFailed("verify accepted a certificate that failed the check")
            elif req.kind == "oracle_delta":
                check_oracle_delta(json.loads(rec["stdout"]), req.check["n"], req.check["p"])
            else:
                check_oracle_diameter(json.loads(rec["stdout"]), req.check["class"])
        except (CheckFailed, ValueError) as exc:
            rec["error"] = f"check failed: {exc}"
            continue
        rec["ok"] = True


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def end_to_end(records, ref_s: float, setup_s: float, peak_rss_mb: float) -> dict:
    produced = [r["stdout_bytes"] / 1000 for r in records if r["req"].kind != "verify"]
    return {
        "setup_s": setup_s,
        "requests_per_ref_s": len(records) / ref_s,
        "output_kb_mean": _mean(produced),
        "peak_rss_mb": peak_rss_mb,
    }


def per_command(records) -> dict:
    """The command-level numbers a user sees, zero where a command is absent."""
    out = {}
    for kind in ("certify", "verify"):
        ts = [r["seconds"] for r in records if r["req"].kind == kind]
        out[f"cli.{kind}.calls"] = len(ts)
        out[f"cli.{kind}.per_s"] = len(ts) / sum(ts) if ts else 0.0
        out[f"cli.{kind}.p50_s"] = _median(ts)
    for kind in ("oracle_delta", "oracle_diameter"):
        out[f"cli.{kind}.s"] = sum(r["seconds"] for r in records if r["req"].kind == kind)
    out["cli.failed_ratio"] = sum(1 for r in records if not r["ok"]) / len(records)
    certs = [r for r in records if r["req"].kind == "certify" and r["ok"]]
    out["certificate.kb_mean"] = _mean([r["stdout_bytes"] / 1000 for r in certs])
    out["certificate.letters_mean"] = _mean([r["letters"] for r in certs])
    out["certificate.entry_bits_p50"] = _median([r["entry_bits"] for r in certs])
    return out


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "optimize": sys.flags.optimize,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _request_log(records) -> list[dict]:
    keys = ("seconds", "rc", "ok", "error", "stdout_bytes", "sha256",
            "letters", "entry_bits")
    return [
        {"kind": r["req"].kind, "argv": r["req"].argv, **{k: r[k] for k in keys if k in r}}
        for r in records
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    end_to_end_names, per_layer_names, units = _spec()

    if sys.flags.optimize:
        print("error: run without -O; the program's own asserts are part of what is measured", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    refclock.start()
    try:
        return run(args, end_to_end_names, per_layer_names, units)
    finally:
        refclock.stop()


def run(args, end_to_end_names, per_layer_names, units) -> int:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = os.path.join(WORK, f"{tag}-{os.getpid()}")  # inputs; removed at the end
    os.makedirs(rundir)
    try:
        setup_s, cli_main, plan, more = setup(args.workload, args.seed, args.seconds, rundir)
    except ImportError as exc:
        shutil.rmtree(rundir)
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    record = {"environment": environment(args), "setup_s": setup_s}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            m0 = mark()
            traced = run_rounds(cli_main, plan, args.seconds / 2, more, tracer)
            m1 = mark()
        finally:
            tracer.uninstall()
        if tracer.missing:
            shutil.rmtree(rundir, ignore_errors=True)
            print(f"error: cannot trace {', '.join(sorted(tracer.missing))}: "
                  "the program no longer has them; update perfbench/spans.py", file=sys.stderr)
            return 2
        # the same requests again, untraced
        again = [req for rnd in plan[: len(traced) // len(plan[0])] for req in rnd]
        m2 = mark()
        records = [execute(cli_main, req, None, i) for i, req in enumerate(again)]
        untraced_ref = to_reference(_wall(records), m2)
        traced_ref = to_reference(_wall(traced), m0, m1)
        check_records(traced)
        check_records(records)
        for a, b in zip(traced, records):
            if a.get("sha256") != b.get("sha256"):
                b["ok"], b["error"] = False, "output differs between the traced and the untraced run"
        metrics = layer_metrics(tracer)
        metrics.update(per_command(records))
        elapsed = _wall(records)
        metrics["trace.overhead_s"] = traced_ref - untraced_ref
        metrics["trace.overhead_pct"] = 100 * (traced_ref - untraced_ref) / untraced_ref
        with open(os.path.join(WORK, tag + "-spans.json"), "w") as f:
            json.dump(tracer.dump(), f)
    else:
        m0 = mark()
        records = run_rounds(cli_main, plan, args.seconds, more)
        ref_s = to_reference(_wall(records), m0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_records(records)
        metrics = end_to_end(records, ref_s, setup_s, peak_rss_mb)
        elapsed = _wall(records)
        record["requests_per_wall_s"] = len(records) / elapsed
        for k, v in per_command(records).items():  # printed for reading, not reported
            print(f"{k:<36} {v:>14.6g} {units[k]}")
        print(f"{'requests_per_wall_s (not scaled)':<36} {len(records) / elapsed:>14.6g} 1/s")
    record["speed_samples"] = refclock.samples()

    checked = records + traced if args.trace else records
    failed = sum(1 for r in checked if not r["ok"])
    for r in checked:
        if not r["ok"]:
            print(f"FAILED {r['req'].kind} {' '.join(r['req'].argv)}: {r['error']}", file=sys.stderr)
    record.update(elapsed_s=elapsed, metrics=metrics, requests=_request_log(records))
    with open(os.path.join(WORK, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    shutil.rmtree(rundir, ignore_errors=True)

    if sorted(metrics) != sorted(per_layer_names if args.trace else end_to_end_names):
        print("error: the metrics differ from those BENCHMARK.json lists", file=sys.stderr)
        return 2
    for k, v in metrics.items():
        print(f"{k:<36} {v:>14.6g} {units[k]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
