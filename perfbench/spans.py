"""Span tracing installed from outside the program.

`Tracer.install` wraps public functions of `slword` on every module name that
binds them (for example `slword.decompose.verify_certificate` as well as
`slword.certificate.verify_certificate`), so calls between modules are seen
without touching the program's source.  Spans record name, start, end, parent
span and request; they stay in memory until the run writes them out.  A few
hot methods are only counted.  A name the program no longer has, or a result
the counters cannot read, is reported as missing rather than counted as 0.

`layer_metrics` turns the spans into the per-layer numbers.  `.s` is the
inclusive time of a span name, `.self_s` its time minus the time of its
child spans.  Span times leave out the speed sampler's time (refclock.py).
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from refclock import now

# (span name, defining module, function)
SPANNED_FUNCTIONS = [
    ("certificate.verify", "slword.certificate", "verify_certificate"),
    ("certificate.evaluate", "slword.certificate", "evaluate_certificate"),
    ("certificate.conjugate", "slword.certificate", "conjugate_certificate"),
    ("certificate.to_json", "slword.certificate", "certificate_to_json"),
    ("certificate.from_json", "slword.certificate", "certificate_from_json"),
    ("matrix.mat_product", "slword.matrix", "mat_product"),
    ("matrix.from_json", "slword.matrix", "matrix_from_json"),
    ("decompose.full", "slword.decompose", "decompose_full"),
    ("decompose.find_regular", "slword.decompose", "find_regular_in_ball"),
    ("decompose.as_conjugates_of", "slword.decompose", "decompose_as_conjugates_of"),
    ("decompose.via_unipotents", "slword.decompose", "decompose_via_unipotents"),
    ("bruhat.bruhat_decompose", "slword.bruhat", "bruhat_decompose"),
    ("bruhat.split", "slword.bruhat", "split_over_big_cell"),
    ("bruhat.in_big_cell", "slword.bruhat", "in_big_cell"),
    ("bruhat.big_cell_decompose", "slword.bruhat", "big_cell_decompose"),
    ("torus.factor", "slword.torus", "torus_factor"),
    ("unipotent.two_conjugates", "slword.unipotent", "unipotent_as_two_conjugates"),
    ("oracle.enumerate_group", "slword.oracle", "enumerate_group"),
    ("oracle.delta", "slword.oracle", "delta"),
    ("oracle.normally_generates", "slword.oracle", "normally_generates"),
    ("oracle.norm_ball_table", "slword.oracle", "norm_ball_table"),
]

# (span or counter name, class module, class, method, counted only); every
# SLMatrix is built by __init__ or by the classmethod _wrap (products,
# inverses), and both re-check the determinant
TRACED_METHODS = [
    ("matrix.inverse", "slword.matrix", "SLMatrix", "inverse", False),
    ("matrix.mul", "slword.matrix", "SLMatrix", "__mul__", True),
    ("matrix.construct", "slword.matrix", "SLMatrix", "__init__", True),
    ("matrix.construct", "slword.matrix", "SLMatrix", "_wrap", True),
]

# the request span the benchmark opens around each `slword.cli.main` call
REQUEST_SPANS = ["cli.certify", "cli.verify", "cli.oracle_delta", "cli.oracle_diameter"]

_NAME, _PARENT, _START, _END, _REQUEST, _OK = range(6)


def _result_counts(name, args, result, counts, missing):
    # read defensively: a counter must never break the call it observes
    if name == "certificate.verify":
        if args and hasattr(args[0], "word"):
            counts["certificate.verify.letters"] += len(args[0].word)
        else:
            missing.add("certificate.verify.letters")
    elif name == "oracle.delta":
        if hasattr(result, "results"):
            counts["oracle.delta.subsets"] += len(result.results)
        else:
            missing.add("oracle.delta.subsets")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._request = -1
        self._patches: list[tuple] = []
        self.missing: set[str] = set()  # names that could not be bound or read

    # -- recording

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, now(), 0.0, self._request, True]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[_END] = now()
        self._stack.pop()

    def request(self, index: int, name: str, fn, *args):
        """Run one request under its own root span."""
        self._request = index
        rec = self._open(name)
        try:
            return fn(*args)
        except BaseException:
            rec[_OK] = False
            raise
        finally:
            self._close(rec)

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[_OK] = False
                raise
            finally:
                tracer._close(rec)
            _result_counts(name, args, result, tracer.counts, tracer.missing)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation

    def install(self) -> None:
        """Wrap every listed function and method.  Those the program does not
        have are added to `missing`, so their metrics are not read as 0."""
        modules = [m for k, m in sys.modules.items() if k == "slword" or k.startswith("slword.")]
        for name, home, attr in SPANNED_FUNCTIONS:
            orig = getattr(sys.modules.get(home), attr, None)
            if orig is None:
                self.missing.add(f"{home}.{attr}")
                continue
            wrapper = self._span_wrapper(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for name, home, cls_name, method, counted in TRACED_METHODS:
            cls = getattr(sys.modules.get(home), cls_name, None)
            orig = vars(cls).get(method) if isinstance(cls, type) else None
            if orig is None:
                self.missing.add(f"{home}.{cls_name}.{method}")
                continue
            wrap = self._count_wrapper if counted else self._span_wrapper
            if isinstance(orig, classmethod):  # counted through the class or an instance
                wrapped = classmethod(wrap(name, orig.__func__))
            else:
                wrapped = wrap(name, orig)
            self._patches.append((cls, method, orig))
            setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- reporting

    def dump(self) -> dict:
        return {
            "fields": ["name", "parent", "start", "end", "request", "ok"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }


def _count(spans, name: str, under: str | None = None, ok_only: bool = False) -> int:
    """Spans called `name`, optionally only those that returned normally or
    that ran inside a span called `under`."""
    n = 0
    for rec in spans:
        if rec[_NAME] != name or (ok_only and not rec[_OK]):
            continue
        parent = rec[_PARENT]
        while under is not None and parent >= 0 and spans[parent][_NAME] != under:
            parent = spans[parent][_PARENT]
        n += under is None or parent >= 0
    return n


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters."""
    spans = tracer.spans
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for rec in spans:
        d = rec[_END] - rec[_START]
        total[rec[_NAME]] += d
        self_time[rec[_NAME]] += d
        calls[rec[_NAME]] += 1
        if rec[_PARENT] >= 0:
            self_time[spans[rec[_PARENT]][_NAME]] -= d

    out: dict[str, float] = {}
    for name, _, _ in SPANNED_FUNCTIONS:
        out[name + ".s"] = total[name]
        out[name + ".self_s"] = self_time[name]
    for name, _, _, _, counted in TRACED_METHODS:
        if not counted:
            out[name + ".s"] = total[name]
            out[name + ".self_s"] = self_time[name]
            out[name + ".calls"] = calls[name]
    for name in REQUEST_SPANS:
        out[name + ".self_s"] = self_time[name]
    out["matrix.mat_product.calls"] = calls["matrix.mat_product"]
    out["matrix.mul.calls"] = tracer.counts["matrix.mul.calls"]
    out["matrix.construct.calls"] = tracer.counts["matrix.construct.calls"]
    out["certificate.verify.calls"] = calls["certificate.verify"]
    out["certificate.verify.letters"] = tracer.counts["certificate.verify.letters"]
    out["oracle.delta.subsets"] = tracer.counts["oracle.delta.subsets"]
    # the pipeline's word expansion is what decompose_full does itself
    out["decompose.expand.s"] = self_time["decompose.full"]

    # regular-element search: Bruhat samples tried, open-cell hits (each is
    # conjugated into shape once), pairs formed beyond one per success
    found = _count(spans, "decompose.find_regular", ok_only=True)
    tries = _count(spans, "bruhat.bruhat_decompose", under="decompose.find_regular")
    hits = _count(spans, "certificate.conjugate", under="decompose.find_regular")
    out["decompose.find_regular.attempts"] = tries
    out["decompose.find_regular.hit_ratio"] = hits / tries if tries else 0.0
    out["decompose.find_regular.diag_retries"] = hits // 2 - found

    # big-cell splitting: membership tests made, calls that succeeded
    splits = _count(spans, "bruhat.split", ok_only=True)
    tests = _count(spans, "bruhat.in_big_cell", under="bruhat.split")
    out["bruhat.split.attempts"] = tests
    out["bruhat.split.hit_ratio"] = splits / tests if tests else 0.0
    return out
