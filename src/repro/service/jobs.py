"""Job execution core: one queued job in, one response + receipt out.

This is the single code path every front end funnels through — the
JSON-lines loop (``serve --stdio``), the HTTP front door (``serve
--http``) and the worker fleet all call :func:`execute_job`.  Two job
kinds exist:

``analyze``
    The body is exactly today's JSON-lines request object (``source`` /
    ``file``, ``options``, ``budget``, ``report``, echoed ``id``); the
    response is byte-identical to the pre-queue server's.  The analysis
    runs under the job's budget in the *calling thread's* budget scope
    (budgets are thread-local, so a fleet runs many budgeted jobs
    concurrently without cross-metering), degrades soundly on
    exhaustion, and shares the process-wide summary cache.

``experiment``
    The body names a paper table/figure (``which`` ∈ fig1 / tab1 / tab2
    / tab3 / figs / figo) plus an optional per-job ``jobs`` fan-out; the
    response carries the formatted text the CLI would print.

:func:`execute_job` never raises: a bad request becomes an ``"ok":
false`` response (and a *failed* receipt) — one poisoned job never
takes down a worker.  Every execution produces a receipt
(:mod:`repro.service.receipts`) recording inputs, knobs, budgets,
degradation and cost.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Dict, Optional, Tuple

from repro import perf
from repro.service import receipts
from repro.service.budgets import Budget, budget_scope

for _name in (
    "job.analyze",
    "job.experiment",
    "job.done",
    "job.failed",
    "job.degraded",
    "job.receipt",
):
    perf.declare(_name)

#: experiment ids an ``experiment`` job may name (module resolved lazily)
EXPERIMENTS = ("fig1", "tab1", "tab2", "tab3", "figs", "figo")

_ANALYZE_MODULES = (
    "repro.lang.parser",
    "repro.partests.driver",
    "repro.pipeline.passes",
    "repro.arraydf.screen",
    "repro.ir.scalarprop",
    "repro.ir.dataflow",
    "repro.linalg.packed",
    "repro.predicates.oracle",
    "repro.service.cache",
    "repro.codegen.report",
)

#: every module a job of each kind reaches through a function-level
#: import.  Two threads importing one import cycle at once can each be
#: handed the other's half-initialized module (an ImportError in the
#: middle of a job), so the first job of a kind loads them all under
#: one lock; later jobs import nothing new.
PRELOAD = {
    "analyze": _ANALYZE_MODULES,
    "experiment": _ANALYZE_MODULES
    + (
        "repro.experiments.fig1_examples",
        "repro.experiments.fig_overhead",
        "repro.experiments.fig_speedups",
        "repro.experiments.table1_loops",
        "repro.experiments.table2_programs",
        "repro.experiments.table3_categories",
        "repro.runtime.bytecode",
        "repro.suites.extra",
        "repro.suites.nas",
        "repro.suites.perfect",
        "repro.suites.specfp",
    ),
}
_preloaded: set = set()
_preload_lock = threading.Lock()


def preload(kind: str) -> None:
    """Import everything a *kind* job needs, once per process."""
    if kind in _preloaded:
        return
    with _preload_lock:
        if kind not in _preloaded:
            for name in PRELOAD[kind]:
                importlib.import_module(name)
            _preloaded.add(kind)


def _options_named(name: str):
    from repro.arraydf.options import AnalysisOptions

    if name == "base":
        return AnalysisOptions.base()
    if name == "predicated":
        return AnalysisOptions.predicated()
    raise ValueError(f"unknown options {name!r} (use 'predicated' or 'base')")


def _experiment_module(which: str):
    from repro.experiments import (
        fig1_examples,
        fig_overhead,
        fig_speedups,
        table1_loops,
        table2_programs,
        table3_categories,
    )

    return {
        "fig1": fig1_examples,
        "tab1": table1_loops,
        "tab2": table2_programs,
        "tab3": table3_categories,
        "figs": fig_speedups,
        "figo": fig_overhead,
    }[which]


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------
def run_analyze(body: Dict) -> Tuple[Dict, Dict]:
    """Run one analysis request; returns ``(response, extras)``.

    The response dict is the pinned JSON-lines wire format (see
    :mod:`repro.service.server`); *extras* carries what the receipt
    needs beyond the response (parsed program, options, budget, trips).
    """
    rid = body.get("id")
    extras: Dict = {
        "options_name": None,
        "opts": None,
        "program": None,
        "budget": None,
        "trips": {},
        "degraded": False,
    }
    try:
        preload("analyze")
        source = body.get("source")
        if source is None:
            path = body.get("file")
            if path is None:
                raise ValueError("request needs 'source' or 'file'")
            with open(path) as f:
                source = f.read()
        options_name = body.get("options", "predicated")
        opts = _options_named(options_name)
        extras["options_name"], extras["opts"] = options_name, opts
        budget = Budget.from_dict(body.get("budget"))
        extras["budget"] = budget

        from repro.lang.parser import parse_program
        from repro.partests.driver import ParallelizationDriver
        from repro.service.cache import default_cache

        program = parse_program(source)
        extras["program"] = program
        driver = ParallelizationDriver(program, opts, cache=default_cache())
        with budget_scope(budget) as scope:
            result = driver.run()
        if scope is not None:
            extras["trips"] = dict(scope.trips)
        extras["degraded"] = driver.degraded

        loops = [
            {
                "label": l.label,
                "unit": l.unit,
                "status": l.status,
                "condition": (
                    None
                    if l.condition is None or l.condition.is_true()
                    else str(l.condition)
                ),
                "runtime_test": l.runtime_test,
                "reason": l.reason,
                "enclosed": l.enclosed,
            }
            for l in result.loops
        ]
        resp: Dict = {
            "id": rid,
            "ok": True,
            "program": program.main,
            "degraded": driver.degraded,
            "loops": loops,
        }
        if body.get("report"):
            from repro.codegen.report import format_report

            resp["report"] = format_report(result)
        return resp, extras
    except Exception as exc:  # one bad request must not kill the worker
        return (
            {"id": rid, "ok": False, "error": f"{type(exc).__name__}: {exc}"},
            extras,
        )


# ----------------------------------------------------------------------
# experiment
# ----------------------------------------------------------------------
def run_experiment(body: Dict) -> Tuple[Dict, Dict]:
    """Run one experiment request; returns ``(response, extras)``."""
    rid = body.get("id")
    extras: Dict = {"which": None, "budget": None, "trips": {}, "degraded": False}
    try:
        preload("experiment")
        which = body.get("which")
        if which not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {which!r} "
                f"(use one of {', '.join(EXPERIMENTS)})"
            )
        extras["which"] = which
        jobs = int(body.get("jobs", 1))
        budget = Budget.from_dict(body.get("budget"))
        extras["budget"] = budget
        with budget_scope(budget) as scope:
            output = _experiment_module(which).run(jobs=jobs).format()
        if scope is not None:
            extras["trips"] = dict(scope.trips)
            extras["degraded"] = scope.degraded
        return (
            {"id": rid, "ok": True, "which": which, "output": output},
            extras,
        )
    except Exception as exc:
        return (
            {"id": rid, "ok": False, "error": f"{type(exc).__name__}: {exc}"},
            extras,
        )


# ----------------------------------------------------------------------
# the one entry point
# ----------------------------------------------------------------------
def execute_job(job, worker: str = "") -> Tuple[Dict, Dict]:
    """Execute one queued :class:`~repro.service.queue.Job`.

    Returns ``(response, receipt)`` and never raises.
    """
    started = time.perf_counter()
    base = perf.snapshot()
    if job.kind == "experiment":
        perf.bump("job.experiment")
        resp, extras = run_experiment(job.body)
        inputs = receipts.experiment_inputs(extras.get("which"))
    else:
        perf.bump("job.analyze")
        resp, extras = run_analyze(job.body)
        program, opts = extras.get("program"), extras.get("opts")
        if program is not None and opts is not None:
            inputs = receipts.analyze_inputs(program, opts)
        else:
            inputs = receipts.empty_inputs()
    run_s = time.perf_counter() - started

    perf.bump("job.done" if resp.get("ok") else "job.failed")
    degraded = bool(extras.get("degraded"))
    if degraded:
        perf.bump("job.degraded")

    budget: Optional[Budget] = extras.get("budget")
    granted = {
        key: getattr(budget, key) if budget is not None else None
        for key in Budget.KEYS
    }
    result_summary: Dict = {
        "state": "done" if resp.get("ok") else "failed",
        "ok": bool(resp.get("ok")),
    }
    if resp.get("ok") and job.kind == "analyze":
        loops = resp.get("loops", [])
        result_summary["loops"] = len(loops)
        result_summary["parallel"] = sum(
            1 for l in loops if l["status"] in ("parallel", "runtime")
        )
    if not resp.get("ok"):
        result_summary["error"] = resp.get("error")

    queued_s = None
    if job.submitted_at is not None:
        queued_s = max(0.0, round(time.time() - run_s - job.submitted_at, 6))
    timings = {
        "wall_s": {"queued": queued_s, "run": round(run_s, 6)},
        "perf": perf.snapshot_delta(perf.snapshot(), base),
        "worker": worker,
        "finished_at": round(time.time(), 3),
    }

    receipt = receipts.build_receipt(
        job_id=job.id,
        kind=job.kind,
        priority=job.priority,
        inputs=inputs,
        knobs=receipts.knobs_in_effect(
            extras.get("options_name"), extras.get("opts")
        ),
        budget_granted=granted,
        degraded=degraded,
        trips=extras.get("trips", {}),
        result_summary=result_summary,
        timings=timings,
    )
    perf.bump("job.receipt")
    # job boundary: a long-lived fleet keeps memo tables warm across
    # jobs; trim the capped ones so that warmth stays bounded
    perf.enforce_memo_caps()
    return resp, receipt
