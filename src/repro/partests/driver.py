"""The parallelization driver: program in, per-loop decisions out.

This is the top of the compiler stack — the piece the paper's tables
summarize.  For every loop it reports one of:

``parallel``
    independent at compile time, no transformations needed;
``parallel_private``
    parallel after array/scalar privatization (and reduction handling);
``runtime``
    parallel under a derived predicate, guarded by a low-cost run-time
    test (two-version loop);
``serial``
    no strategy proved safe;
``not_candidate``
    ineligible (I/O, early return, non-invariant bounds, non-constant
    step).

Loops nested inside a loop already parallelized at an outer level are
flagged ``enclosed`` (SUIF exploits a single level of parallelism).

The driver carries the serving-substrate hooks through the pipeline:

* a :class:`~repro.service.cache.SummaryCache` is handed to the
  data-flow walker and additionally caches per-unit *decisions* (the
  dependence/privatization outcomes) under the same content keys;
* a tripped :class:`~repro.service.budgets.Budget` demotes the loop
  being decided to ``serial`` ("not proven parallel") instead of
  aborting the request — sound, counted in ``budget.degraded_loop``,
  and never written back to the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import perf
from repro.arraydf.analysis import ArrayDataflow, LoopSummary
from repro.arraydf.options import AnalysisOptions
from repro.lang.astnodes import DoLoop, Program, walk_stmts
from repro.partests.dependence import LoopVerdict, test_loop
from repro.partests.runtime_tests import (
    is_runtime_evaluable,
    render_predicate,
    test_cost,
)
from repro.predicates.formula import Predicate, TRUE
from repro.service.budgets import BudgetExceeded
from repro.service.cache import SummaryCache


@dataclass
class LoopResult:
    """Final decision for one loop."""

    label: str
    unit: str
    loop: DoLoop
    status: str  # parallel | parallel_private | runtime | serial | not_candidate
    condition: Optional[Predicate] = None
    runtime_test: Optional[str] = None  # rendered source text
    runtime_cost: int = 0
    private_arrays: List[str] = field(default_factory=list)
    private_scalars: List[str] = field(default_factory=list)
    reduction_scalars: List[str] = field(default_factory=list)
    reason: str = ""
    depth: int = 0
    enclosed: bool = False  # nested inside a parallelized loop
    verdict: Optional[LoopVerdict] = None

    @property
    def is_parallelized(self) -> bool:
        return self.status in ("parallel", "parallel_private", "runtime")

    @property
    def is_outer_parallel(self) -> bool:
        return self.is_parallelized and not self.enclosed


@dataclass
class ProgramResult:
    """All loop decisions for one program, plus analysis timing."""

    program: Program
    options: AnalysisOptions
    loops: List[LoopResult] = field(default_factory=list)
    analysis_seconds: float = 0.0

    # -- counters used by the experiment tables ----------------------------
    def count(self, *statuses: str) -> int:
        return sum(1 for l in self.loops if l.status in statuses)

    @property
    def total_loops(self) -> int:
        return len(self.loops)

    @property
    def candidate_loops(self) -> int:
        return sum(1 for l in self.loops if l.status != "not_candidate")

    @property
    def parallelized(self) -> int:
        return sum(1 for l in self.loops if l.is_parallelized)

    @property
    def outer_parallelized(self) -> int:
        return sum(1 for l in self.loops if l.is_outer_parallel)

    @property
    def runtime_tested(self) -> int:
        return self.count("runtime")

    def by_label(self) -> Dict[str, LoopResult]:
        return {l.label: l for l in self.loops}

    def parallel_labels(self) -> List[str]:
        return [l.label for l in self.loops if l.is_parallelized]


class ParallelizationDriver:
    """Runs the full compile flow for one program.

    :meth:`run` is a thin shim over the pass pipeline
    (:func:`repro.pipeline.run_pipeline`): scalar propagation, the
    array data-flow walk, per-loop decisions and the enclosed marking
    all execute as passes, serially.
    """

    def __init__(
        self,
        program: Program,
        opts: Optional[AnalysisOptions] = None,
        cache: Optional[SummaryCache] = None,
    ) -> None:
        self.program = program
        self.opts = opts or AnalysisOptions.predicated()
        self.cache = cache
        self._degraded = False

    def run(self) -> ProgramResult:
        from repro.pipeline import run_pipeline

        ctx = run_pipeline(self.program, self.opts, cache=self.cache)
        self._degraded = ctx.degraded or bool(
            ctx.has("engine") and ctx.engine.tainted_units
        )
        return ctx.get("result")

    @property
    def degraded(self) -> bool:
        """Did the last :meth:`run` degrade under a budget anywhere?

        Covers both granularities — budget-demoted loop decisions and
        budget-demoted (tainted) unit summaries.  The service layer reports
        this per job; it is deterministic for a given cache state, unlike
        a delta over the process-global ``budget.*`` counters, which
        concurrent jobs would cross-contaminate.
        """
        return self._degraded

    def _rebind_program(self, payload) -> Optional[ProgramResult]:
        """Reattach a cached whole-program payload to the current parse.

        Loop decisions are matched by label against the *unpropagated*
        program (labels are stable across scalar propagation); the
        ``enclosed`` flags are derived state and recomputed.  Returns
        ``None`` — a miss — on any shape mismatch.
        """
        result = ProgramResult(self.program, self.opts)
        try:
            if len(payload) != len(self.program.units):
                return None
            for unit_name, rows in payload:
                unit = self.program.units.get(unit_name)
                if unit is None:
                    return None
                loops_by_label = {
                    s.label: s
                    for s in walk_stmts(unit.body)
                    if isinstance(s, DoLoop)
                }
                rebound = _rebind_rows(rows, loops_by_label, {}, unit_name)
                if rebound is None:
                    return None
                result.loops.extend(rebound)
        except (TypeError, ValueError):
            return None
        mark_enclosed(result)
        return result


def decide_unit(
    dataflow: ArrayDataflow,
    unit_name: str,
    summary,
    symtab,
    opts: AnalysisOptions,
    cache: Optional[SummaryCache] = None,
    screen=None,
) -> Tuple[List[LoopResult], bool]:
    """Decide every loop of one unit, via the decisions cache.

    Decisions are a pure function of the unit's summary key (they read
    only the loop summaries, the symbol table and the options), so they
    share it.  Budget-degraded loops — and every loop of a unit whose
    summary was degraded — stay out of the cache.  Returns the loop
    results plus whether any loop was budget-degraded.

    With a :class:`~repro.arraydf.screen.UnitScreen` attached, loops the
    tier-0 screen proved independent take their pre-made ``parallel``
    row after a cheap cross-check against the real summary (write set
    and scalar classes must match the prediction — ``screen.agree``),
    skipping the full dependence test; any mismatch falls back to
    :func:`decide_loop` (``screen.disagree``), keeping results identical
    by construction.
    """
    key = dataflow.unit_keys.get(unit_name)
    cacheable = (
        cache is not None
        and key is not None
        and unit_name not in dataflow.tainted_units
    )
    if cacheable:
        rows = cache.load(key, "decisions")
        if rows is not None:
            rebound = _rebind_decisions(rows, summary, unit_name)
            if rebound is not None:
                return rebound, False
    screen_rows = screen.rows if screen is not None else {}
    out: List[LoopResult] = []
    degraded = False
    for loop, loop_summary in summary.loops.items():
        row = screen_rows.get(loop.label)
        if row is not None and row["status"] == "parallel":
            screened = _screened_result(row, loop_summary, symtab, unit_name)
            if screened is not None:
                perf.bump("screen.agree")
                out.append(screened)
                continue
            perf.bump("screen.disagree")
        if loop_summary.elided:
            # the walk skipped this loop's projection on the screen's
            # word; the full test needs the real projected value
            from repro.arraydf.analysis import reproject_loop

            loop_summary.loop_value = reproject_loop(loop_summary, opts)
            loop_summary.elided = False
        try:
            with perf.analysis_context(loop_summary.label):
                out.append(decide_loop(loop_summary, symtab, opts))
        except BudgetExceeded:
            perf.bump("budget.degraded_loop")
            degraded = True
            out.append(
                LoopResult(
                    label=loop.label,
                    unit=unit_name,
                    loop=loop,
                    status="serial",
                    reason="budget exhausted: not proven parallel",
                    depth=loop_summary.info.region.loop_depth(),
                )
            )
    if cacheable and not degraded:
        cache.store(key, "decisions", _decision_rows(out))
    return out, degraded


def decide_loop(summary: LoopSummary, symtab, opts: AnalysisOptions) -> LoopResult:
    """The parallelization decision for one loop (pure)."""
    loop = summary.loop
    info = summary.info
    base = LoopResult(
        label=loop.label,
        unit=summary.unit_name,
        loop=loop,
        status="serial",
        depth=summary.info.region.loop_depth(),
    )
    if not info.is_candidate:
        base.status = "not_candidate"
        base.reason = (
            "io" if info.has_io
            else "return" if info.has_return
            else "bounds" if not info.bounds_invariant
            else "step"
        )
        return base

    verdict = test_loop(summary, symtab, opts)
    base.verdict = verdict
    base.private_scalars = sorted(verdict.private_scalars)
    base.reduction_scalars = sorted(verdict.reduction_scalars)

    if verdict.scalar_obstacles:
        base.status = "serial"
        base.reason = "scalar dependence: " + ", ".join(
            sorted(verdict.scalar_obstacles)
        )
        return base

    cond = verdict.parallel_condition
    # the loop runs only where its path predicate holds: a residual
    # condition implied by the path needs no run-time test
    if (
        opts.predicates
        and not cond.is_true()
        and not cond.is_false()
        and not summary.path_pred.is_true()
    ):
        from repro.predicates.simplify import implies

        if implies(summary.path_pred, cond):
            cond = TRUE
    base.condition = cond
    base.private_arrays = verdict.private_arrays

    if cond.is_true():
        base.status = (
            "parallel_private"
            if base.private_arrays or base.reduction_scalars
            else "parallel"
        )
        return base
    if cond.is_false():
        base.status = "serial"
        base.reason = "array dependence"
        return base

    # residual predicate: candidate run-time test
    clobbered = (
        frozenset([loop.var])
        | summary.body_value.scalar_writes
        | frozenset(summary.body_value.w.arrays())
    )
    if opts.runtime_tests and is_runtime_evaluable(cond, clobbered):
        base.status = "runtime"
        base.runtime_test = render_predicate(cond)
        base.runtime_cost = test_cost(cond)
        if base.private_arrays or base.reduction_scalars:
            # the guarded parallel version also privatizes
            pass
        return base
    base.status = "serial"
    base.reason = "unprovable predicate: " + str(cond)
    return base


def _screened_result(
    row, loop_summary: LoopSummary, symtab, unit_name: str
) -> Optional[LoopResult]:
    """Bind a screen-made ``parallel`` row to the loop's real summary.

    The cross-check re-derives from the *actual* body value everything
    the screen predicted from syntax — the written-array set and the
    scalar classification — and refuses the row (``None``) on any
    difference, so a screened decision can never diverge from what
    :func:`decide_loop` would compute.
    """
    from repro.partests.dependence import _inner_loops

    info = loop_summary.info
    body = loop_summary.body_value
    if not info.is_candidate:
        return None
    verdicts, _obstacles, _reductions, privates = row["verdict"]
    if sorted(body.w.arrays()) != sorted(verdicts):
        return None
    inner_indices = {s.var for s in _inner_loops(loop_summary.loop)}
    obstacles, reductions, private_scalars = set(), set(), set()
    for name in sorted(body.scalar_writes | info.scalar_writes):
        if name == loop_summary.loop.var or name in inner_indices:
            continue
        if not symtab.is_scalar(name):
            continue
        if name in info.reductions:
            reductions.add(name)
        elif name in info.scalar_exposed_reads:
            obstacles.add(name)
        else:
            private_scalars.add(name)
    if obstacles or reductions or private_scalars != set(privates):
        return None
    return LoopResult(
        label=row["label"],
        unit=unit_name,
        loop=loop_summary.loop,
        status=row["status"],
        condition=row["condition"],
        runtime_test=row["runtime_test"],
        runtime_cost=row["runtime_cost"],
        private_arrays=list(row["private_arrays"]),
        private_scalars=list(row["private_scalars"]),
        reduction_scalars=list(row["reduction_scalars"]),
        reason=row["reason"],
        depth=row["depth"],
        verdict=LoopVerdict(
            summary=loop_summary,
            array_verdicts=dict(verdicts),
            scalar_obstacles=frozenset(),
            reduction_scalars=frozenset(),
            private_scalars=frozenset(privates),
        ),
    )


def mark_enclosed(result: ProgramResult) -> None:
    """Flag every loop nested inside a parallelized loop."""
    enclosed_ids = set()
    for l in result.loops:
        if l.is_parallelized:
            for s in walk_stmts(l.loop.body):
                if isinstance(s, DoLoop):
                    enclosed_ids.add(id(s))
    for l in result.loops:
        if id(l.loop) in enclosed_ids:
            l.enclosed = True


def _decision_rows(results: List[LoopResult]) -> list:
    """The cacheable projection of one unit's loop decisions.

    AST references (``loop``) and the verdict's loop summary stay out;
    everything else is either plain data or interned symbolic values.
    """
    rows = []
    for r in results:
        verdict_data = None
        if r.verdict is not None:
            v = r.verdict
            verdict_data = (
                v.array_verdicts,
                v.scalar_obstacles,
                v.reduction_scalars,
                v.private_scalars,
            )
        rows.append(
            {
                "label": r.label,
                "status": r.status,
                "condition": r.condition,
                "runtime_test": r.runtime_test,
                "runtime_cost": r.runtime_cost,
                "private_arrays": r.private_arrays,
                "private_scalars": r.private_scalars,
                "reduction_scalars": r.reduction_scalars,
                "reason": r.reason,
                "depth": r.depth,
                "verdict": verdict_data,
            }
        )
    return rows


def _rebind_rows(
    rows, loops_by_label: Dict[str, DoLoop], summaries_by_label, unit_name: str
) -> Optional[List[LoopResult]]:
    """Reattach cached decision rows to the current parse's loops.

    ``summaries_by_label`` supplies the rebound :class:`LoopSummary` per
    label where available (the per-unit path); the program-level path
    passes ``{}`` and verdicts carry no summary.  Returns ``None`` —
    treated as a cache miss — on any shape mismatch.
    """
    if not isinstance(rows, list) or len(rows) != len(loops_by_label):
        return None
    out: List[LoopResult] = []
    try:
        for row in rows:
            loop = loops_by_label.get(row["label"])
            if loop is None:
                return None
            verdict = None
            if row["verdict"] is not None:
                verdicts, obstacles, reductions, privates = row["verdict"]
                verdict = LoopVerdict(
                    summary=summaries_by_label.get(row["label"]),
                    array_verdicts=verdicts,
                    scalar_obstacles=obstacles,
                    reduction_scalars=reductions,
                    private_scalars=privates,
                )
            out.append(
                LoopResult(
                    label=row["label"],
                    unit=unit_name,
                    loop=loop,
                    status=row["status"],
                    condition=row["condition"],
                    runtime_test=row["runtime_test"],
                    runtime_cost=row["runtime_cost"],
                    private_arrays=list(row["private_arrays"]),
                    private_scalars=list(row["private_scalars"]),
                    reduction_scalars=list(row["reduction_scalars"]),
                    reason=row["reason"],
                    depth=row["depth"],
                    verdict=verdict,
                )
            )
    except (KeyError, TypeError, ValueError):
        return None
    return out


def _rebind_decisions(
    rows, summary, unit_name: str
) -> Optional[List[LoopResult]]:
    """Per-unit rebind: match against the unit's (rebound) summaries."""
    summaries_by_label = {ls.label: ls for ls in summary.loops.values()}
    loops_by_label = {l: ls.loop for l, ls in summaries_by_label.items()}
    return _rebind_rows(rows, loops_by_label, summaries_by_label, unit_name)


def analyze_program(
    program: Program,
    opts: Optional[AnalysisOptions] = None,
    cache: Optional[SummaryCache] = None,
) -> ProgramResult:
    """One-call convenience wrapper."""
    return ParallelizationDriver(program, opts, cache=cache).run()
