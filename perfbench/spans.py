"""In-memory span recorder and the wrappers that feed it.

The program is not edited: :func:`install` replaces public functions and
methods of the ``repro`` modules with timing wrappers, at every place
the function object is bound (several modules bind ``eliminate_all``
and friends at import time, so patching the defining module alone would
miss their calls).

A span is ``(id, name, start, end, parent id, group)``; spans of one
program or job share a *group*.  Self time (a span's duration minus the
time its children cover) is aggregated per name as spans close, so a
long traced run keeps per-name totals without holding every span; the
first :data:`KEEP_SPANS` spans are also kept for the Chrome trace file.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

#: spans kept verbatim for the trace file (aggregates cover all spans)
KEEP_SPANS = 50_000


class Recorder:
    """Thread-aware span recorder.  Each thread keeps its own open-span
    stack, span list and aggregates; :meth:`aggregates` merges them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.origin = clock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: List[Dict] = []
        self._lock = threading.Lock()

    # -- per-thread state ------------------------------------------------
    def _state(self) -> Dict:
        st = getattr(self._local, "st", None)
        if st is None:
            st = {
                "tid": threading.get_ident(),
                "stack": [],  # [id, name, start, child_time]
                "group": "",
                "spans": [],
                "agg": {},  # name -> [calls, total_s, self_s]
                "counts": {},
            }
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def set_group(self, group: str) -> str:
        """Tag spans opened from now on (this thread) with *group*;
        returns the previous group."""
        st = self._state()
        prev, st["group"] = st["group"], str(group)
        return prev

    def count(self, name: str, n: int = 1) -> None:
        counts = self._state()["counts"]
        counts[name] = counts.get(name, 0) + n

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> None:
        st = self._state()
        st["stack"].append([next(self._ids), name, self.clock(), 0.0])

    def close(self) -> None:
        end = self.clock()
        st = self._state()
        stack = st["stack"]
        sid, name, start, child = stack.pop()
        dur = end - start
        parent = 0
        if stack:
            stack[-1][3] += dur
            parent = stack[-1][0]
        agg = st["agg"].get(name)
        if agg is None:
            agg = st["agg"][name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if len(st["spans"]) < KEEP_SPANS:
            st["spans"].append((sid, name, start, end, parent, st["group"]))

    def wrap(self, name: str, fn: Callable, group_of: Optional[Callable] = None) -> Callable:
        """*fn* recording one span per call; *group_of(args)*, when given,
        names the group for the call's whole subtree."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            prev = self.set_group(group_of(args)) if group_of else None
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
                if group_of:
                    self.set_group(prev)

        return wrapper

    # -- results -----------------------------------------------------------
    def aggregates(self) -> Dict[str, Dict[str, float]]:
        """name -> {calls, total_s, self_s} over every thread."""
        out: Dict[str, Dict[str, float]] = {}
        for st in self._threads:
            for name, (calls, total, self_s) in st["agg"].items():
                a = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                a["calls"] += calls
                a["total_s"] += total
                a["self_s"] += self_s
        return out

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for st in self._threads:
            for name, n in st["counts"].items():
                out[name] = out.get(name, 0) + n
        return out

    def chrome_events(self, pid: int = 0) -> List[Dict]:
        """The kept spans as Chrome trace-event ``X`` records."""
        events = []
        for st in self._threads:
            for sid, name, start, end, parent, group in st["spans"]:
                events.append(
                    {
                        "name": name,
                        "ph": "X",
                        "ts": round((start - self.origin) * 1e6, 3),
                        "dur": round((end - start) * 1e6, 3),
                        "pid": pid,
                        "tid": st["tid"],
                        "args": {"id": sid, "parent": parent, "group": group},
                    }
                )
        return events

    def dump(self, path: str, pid: int = 0, extra: Optional[Dict] = None) -> None:
        """Write the Chrome trace (plus aggregates and counts) once."""
        doc = {
            "traceEvents": self.chrome_events(pid),
            "displayTimeUnit": "ms",
            "perfbench": {
                "aggregates": self.aggregates(),
                "counts": self.counts(),
                **(extra or {}),
            },
        }
        with open(path, "w") as f:
            json.dump(doc, f)


# ----------------------------------------------------------------------
# wrapper installation
# ----------------------------------------------------------------------
#: (span name, module, attribute path) per layer.  An attribute path
#: ``Class.method`` wraps a method on the class.
FUNCTIONS = {
    "lang": [("lang.parse", "repro.lang.parser", "parse_program")],
    "linalg": [
        ("linalg.fm.eliminate", "repro.linalg.fourier_motzkin", "eliminate"),
        ("linalg.fm.eliminate_all", "repro.linalg.fourier_motzkin", "eliminate_all"),
        ("linalg.fm.is_feasible", "repro.linalg.feasibility", "is_feasible"),
    ],
    "predicates": [
        ("predicates.oracle.is_unsat", "repro.predicates.oracle", "is_unsat"),
        ("predicates.oracle.implies", "repro.predicates.oracle", "implies"),
        ("predicates.oracle.equivalent", "repro.predicates.oracle", "equivalent"),
        ("predicates.oracle.conjunct_unsat", "repro.predicates.oracle", "conjunct_unsat"),
    ],
    "regions": [
        ("regions.ops.subtract_region", "repro.regions.subtract", "subtract_region"),
        ("regions.ops.subtract_summary", "repro.regions.subtract", "subtract_summary"),
        ("regions.ops.union", "repro.regions.summary", "SummarySet.union"),
        ("regions.ops.subtract", "repro.regions.summary", "SummarySet.subtract"),
        ("regions.ops.project_vars", "repro.regions.project", "project_vars"),
        ("regions.ops.project_over_loop", "repro.regions.project", "project_over_loop"),
        ("regions.ops.must_project_over_loop", "repro.regions.project", "must_project_over_loop"),
        ("regions.ops.reshape", "repro.regions.reshape", "translate_summary_set"),
    ],
    "pipeline": [
        ("pipeline.run", "repro.pipeline", "run_pipeline"),
        ("pipeline.batch", "repro.pipeline", "run_pipeline_batch"),
    ],
    "runtime": [("runtime.elpd", "repro.runtime.elpd", "run_oracle")],
    "service": [
        ("service.submit", "repro.service.queue", "JobQueue.submit"),
        ("service.claim", "repro.service.queue", "JobQueue.claim_chunk"),
        ("service.execute", "repro.service.jobs", "execute_job"),
        ("service.analyze", "repro.service.jobs", "run_analyze"),
        ("service.receipt", "repro.service.receipts", "build_receipt"),
        ("service.receipt", "repro.service.receipts", "analyze_inputs"),
        ("service.finish", "repro.service.queue", "JobQueue.finish"),
    ],
    "perf": [
        ("perf.snapshot", "repro.perf.counters", "snapshot"),
        ("perf.snapshot", "repro.perf.counters", "snapshot_delta"),
    ],
}

#: the layers each traced entry point loads (and so may wrap)
LAYERS = {
    "analyze": ("lang", "passes", "linalg", "predicates", "regions", "pipeline"),
    "elpd": ("lang", "runtime"),
    "farm": ("lang", "passes", "linalg", "predicates", "regions", "pipeline", "runtime"),
    "serve": (
        "lang", "passes", "linalg", "predicates", "regions", "pipeline",
        "service", "perf", "cache",
    ),
}


def _rebind(orig: Callable, new: Callable) -> None:
    """Point every ``repro`` module global bound to *orig* at *new*."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _group_of_program(args) -> str:
    return getattr(args[0], "main", "") if args else ""


def _group_of_job(args) -> str:
    return getattr(args[0], "id", "") if args else ""


_GROUPS = {
    "pipeline.run": _group_of_program,
    "service.execute": _group_of_job,
}


def _cover_eliminate_all(rec: Recorder, fn: Callable) -> Callable:
    """Count the calls that reach the ``fm.eliminate_all`` memo: the
    kernel returns early, before the memo, when no variable to drop
    occurs in the system."""

    @functools.wraps(fn)
    def eliminate_all(system, variables):
        variables = tuple(variables)
        live = system.variables()
        if any(v in live for v in variables):
            rec.count("cover.fm.eliminate_all")
        return fn(system, variables)

    return eliminate_all


def _count_steps(rec: Recorder, fn: Callable) -> Callable:
    """Tally the interpreter steps of each ELPD run."""

    @functools.wraps(fn)
    def run_oracle(*args, **kwargs):
        report = fn(*args, **kwargs)
        rec.count("runtime.steps", report.steps)
        return report

    return run_oracle


#: span name -> extra inner wrapper that tallies counts for that call
_COVER = {
    "linalg.fm.eliminate_all": _cover_eliminate_all,
    "runtime.elpd": _count_steps,
}

#: coverage check: (what, wrapped tally, program memo whose lookups must
#: equal it).  A tally is a span name (its call count) or a count name.
COVERAGE = (
    ("eliminate_all", "cover.fm.eliminate_all", "fm.eliminate_all"),
    ("is_feasible", "linalg.fm.is_feasible", "feasibility.is_feasible"),
    ("conjunct_unsat", "predicates.oracle.conjunct_unsat", "pred.oracle.conjunct"),
)


def coverage(rec: Recorder, before: Dict, after: Dict) -> List[Dict]:
    """Compare wrapped call counts with the program's own memo lookups
    (hits + misses) between two ``perf.snapshot()`` results.  Valid only
    for a serial, single-threaded traced stretch."""
    aggs, counts = rec.aggregates(), rec.counts()
    rows = []
    for what, tally, memo in COVERAGE:
        wrapped = counts.get(tally, aggs.get(tally, {}).get("calls", 0))

        def lookups(snap):
            c = snap["caches"].get(memo, {})
            return c.get("hits", 0) + c.get("misses", 0)

        program = lookups(after) - lookups(before)
        rows.append({"kernel": what, "wrapped": int(wrapped), "program": int(program),
                     "ok": int(wrapped) == int(program)})
    return rows


def install(rec: Recorder, layers: Iterable[str]) -> List[str]:
    """Wrap the public functions of *layers*; returns the span names."""
    import importlib

    installed = []
    layers = tuple(layers)
    for layer in layers:
        if layer == "passes":
            from repro.pipeline.passes import analysis_passes

            for p in analysis_passes():
                cls = type(p)
                if "run" in vars(cls):
                    name = f"pass.{cls.name}"
                    cls.run = rec.wrap(name, cls.run)
                    installed.append(name)
            continue
        if layer == "cache":
            _install_cache_counter(rec)
            continue
        for span_name, modname, path in FUNCTIONS[layer]:
            mod = importlib.import_module(modname)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, rec.wrap(span_name, getattr(cls, meth)))
            else:
                orig = getattr(mod, path)
                inner = _COVER[span_name](rec, orig) if span_name in _COVER else orig
                _rebind(orig, rec.wrap(span_name, inner, _GROUPS.get(span_name)))
            installed.append(span_name)
    return installed


def _install_cache_counter(rec: Recorder) -> None:
    """Count program-level cache lookups and hits (the benchmark's own
    tally, safe under threads, unlike the program's counters)."""
    from repro.service.cache import SummaryCache

    orig = SummaryCache.load

    @functools.wraps(orig)
    def load(self, key, kind):
        payload = orig(self, key, kind)
        if kind == "program":
            rec.count("cache.program_lookups")
            if payload is not None:
                rec.count("cache.program_hits")
        return payload

    SummaryCache.load = load


# ----------------------------------------------------------------------
# per-layer table
# ----------------------------------------------------------------------
#: per-layer metric -> span-name prefix whose self time it sums
LAYER_SPANS = {
    "lang.parse_ms": "lang.parse",
    "pass.scalarprop_ms": "pass.scalarprop",
    "pass.frontend_ms": "pass.frontend",
    "pass.screen_ms": "pass.screen",
    "pass.summarize_ms": "pass.summarize",
    "pass.decide_ms": "pass.decide",
    "pass.enclose_ms": "pass.enclose",
    "pass.plan_ms": "pass.plan",
    "linalg.fm_ms": "linalg.fm.",
    "predicates.oracle_ms": "predicates.oracle.",
    "regions.ops_ms": "regions.ops.",
    "pipeline.self_ms": "pipeline.",
    "runtime.elpd_ms": "runtime.elpd",
    "service.submit_ms": "service.submit",
    "service.claim_ms": "service.claim",
    "service.execute_ms": "service.execute",
    "service.analyze_ms": "service.analyze",
    "service.receipt_ms": "service.receipt",
    "service.finish_ms": "service.finish",
    "perf.snapshot_ms": "perf.snapshot",
}


def layer_table(aggs: Dict[str, Dict[str, float]], per: int) -> Dict[str, Dict[str, float]]:
    """metric -> {self_ms per unit of work, calls} for every layer that
    recorded a span; *per* is the number of programs, jobs or commands
    the trace covers."""
    out = {}
    for metric, prefix in LAYER_SPANS.items():
        hit = [a for n, a in aggs.items() if n == prefix or (prefix.endswith(".") and n.startswith(prefix))]
        if not hit:
            continue
        self_s = sum(a["self_s"] for a in hit)
        out[metric] = {
            "value": 1000.0 * self_s / max(per, 1),
            "calls": sum(a["calls"] for a in hit),
        }
    return out


def snapshot_metrics(before: Dict, after: Dict, per: int) -> Dict[str, float]:
    """Per-layer figures from the program's own counters between two
    ``perf.snapshot()`` results of a serial run (the counters lose
    updates under threads, so never use this across concurrent jobs).
    Counts are per unit of work (*per* programs or commands)."""
    def counter(name):
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    def lookups(name):
        a, b = after["caches"].get(name, {}), before["caches"].get(name, {})
        hits = a.get("hits", 0) - b.get("hits", 0)
        return hits, hits + a.get("misses", 0) - b.get("misses", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    tiers = [counter(f"pred.oracle.tier{i}") for i in range(3)]
    fm_hits, fm_all = lookups("fm.eliminate_all")
    af_hits, af_all = lookups("affine.intern")
    vec, fallback = counter("rt.vec_loop"), counter("rt.vec_fallback")
    indep, unknown = counter("screen.independent"), counter("screen.unknown")
    per = max(per, 1)
    return {
        "total_ops": (after["total_ops"] - before["total_ops"]) / per,
        "fm.pair_combine": counter("fm.pair_combine") / per,
        "pred.oracle.tier2_share": ratio(tiers[2], sum(tiers)),
        "fm.eliminate_all.hit_rate": ratio(fm_hits, fm_all),
        "affine.intern.hit_rate": ratio(af_hits, af_all),
        "screen.hit_ratio": ratio(indep, indep + unknown),
        "runtime.vec_ratio": ratio(vec, vec + fallback),
    }
