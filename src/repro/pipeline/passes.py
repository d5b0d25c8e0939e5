"""The concrete passes of the parallelization compile flow.

Each stage of the compile flow sits behind the declared-I/O
:class:`~repro.pipeline.base.Pass` contract so the
:class:`~repro.pipeline.manager.PassManager` can schedule it.  The flow:

.. code-block:: text

    source_program
        │ scalarprop            (program)
        ▼
    program ──── frontend       (program: parse-side tables)
        ▼
    engine ───── screen         (unit, tier-0 dependence screen, cacheable)
        ▼
    screen ───── summarize      (unit, bottom-up over callees, cacheable)
        ▼
    summary ──── decide         (unit, cacheable)
        ▼
    decisions ── enclose        (program: deterministic merge)
        ▼
    result ───── plan           (program)
        ▼
    plan ─────── twoversion     (program)
        ▼
    transformed

Budget boundaries: ``summarize`` checkpoints on entry and degrades a
tripped unit to the conservative whole-array summary (tainting it out of
the cache); ``decide`` demotes each tripped loop to ``serial``.  The
manager never checkpoints itself, so a budget trip can only ever
*weaken* answers, never abort a run.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.arraydf.analysis import ArrayDataflow
from repro.pipeline.base import PROGRAM_SCOPE, UNIT_SCOPE, Pass
from repro.pipeline.context import ProgramContext


class ScalarPropPass(Pass):
    """Interprocedural scalar propagation (identity when disabled)."""

    name = "scalarprop"
    scope = PROGRAM_SCOPE
    inputs = ("source_program",)
    outputs = ("program",)

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        program = ctx.source_program
        if ctx.opts.scalar_propagation:
            from repro.ir.scalarprop import propagate_scalars

            program = propagate_scalars(program)
        ctx.put("program", program)


class FrontendPass(Pass):
    """Build the analysis engine: callgraph, symbol tables, caches."""

    name = "frontend"
    scope = PROGRAM_SCOPE
    inputs = ("program",)
    outputs = ("engine",)

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        engine = ArrayDataflow(
            ctx.get("program"),
            ctx.opts,
            cache=ctx.cache,
            propagated=True,
        )
        ctx.put("engine", engine)


class ScreenPass(Pass):
    """Tier-0 graph-based dependence screen of one unit.

    Pure syntax over the scalar-propagated unit (no callee inputs, no
    budgets): classifies each loop ``independent`` / ``unknown`` /
    ``not_candidate`` and synthesizes the exact decision rows for the
    loops it settles (:mod:`repro.arraydf.screen`).  A unit whose every
    loop is settled *and* that no other unit calls is marked
    ``skip_summary`` — its data-flow walk is skipped entirely (callers
    would need the summary, so called units always summarize).

    Cacheable under the unit's own content key (empty callee-key list —
    the screen never looks across calls).
    """

    name = "screen"
    scope = UNIT_SCOPE
    inputs = ("engine",)
    outputs = ("screen",)
    cacheable = True

    @staticmethod
    def _key(engine, unit: str) -> Optional[str]:
        if engine.cache is None:
            return None
        from repro.lang.prettyprint import unit_str
        from repro.service.cache import unit_key

        return unit_key(unit_str(engine.program.units[unit]), [], engine.opts)

    @staticmethod
    def _compute(engine, unit: str):
        """Screen one unit, through the engine's cache when attached."""
        from repro.arraydf.screen import (
            rebind_screen,
            screen_payload,
            screen_unit,
        )

        key = ScreenPass._key(engine, unit)
        if key is not None:
            payload = engine.cache.load(key, "screen")
            if payload is not None:
                screen = rebind_screen(payload, unit)
                if screen is not None:
                    return screen
        screen = screen_unit(engine.program.units[unit], engine.symtabs[unit])
        if key is not None:
            engine.cache.store(key, "screen", screen_payload(screen))
        return screen

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        assert unit is not None
        engine = ctx.engine
        screen = self._compute(engine, unit)
        caller_free = not engine.callgraph.callers(unit)
        screen.skip_summary = screen.full_cover and caller_free
        if caller_free:
            # nothing reads a caller-free unit's proc value, so the walk
            # may elide outermost screened-independent loop projections
            engine.screen_hints[unit] = frozenset(screen.independent_labels)
        ctx.put("screen", screen, unit)


class SummarizePass(Pass):
    """The array data-flow walk of one unit.

    Bottom-up: a unit's walk splices in its callees' summaries, declared
    by the ``summary@callees`` input, which the manager satisfies by
    running units bottom-up over the callgraph.  With a cache attached the
    engine loads/stores the summary under its content key; a budget trip
    degrades the unit soundly (and taints it out of the cache).

    A unit the screen marked ``skip_summary`` never walks at all: its
    summary slot takes the :class:`~repro.arraydf.screen.ScreenedUnit`
    sentinel (counted in ``screen.saved_units``) and the decide pass
    reads the screen's pre-made rows instead.  Skipped units are by
    construction caller-free, so no other unit's walk ever asks for the
    missing summary.
    """

    name = "summarize"
    scope = UNIT_SCOPE
    inputs = ("engine", "screen", "summary@callees")
    outputs = ("summary",)
    cacheable = True

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        assert unit is not None
        if ctx.get("screen", unit).skip_summary:
            from repro import perf
            from repro.arraydf.screen import ScreenedUnit

            perf.bump("screen.saved_units")
            ctx.put("summary", ScreenedUnit(unit), unit)
            return
        ctx.put("summary", ctx.engine.run_unit(unit), unit)


class DecidePass(Pass):
    """Per-loop parallelization decisions for one unit.

    Pure in the unit's summary key, so decisions share it in the cache.
    Budget-tripped loops demote to ``serial`` and mark the unit
    degraded; degraded decisions are never stored.

    With the screen attached, decisions consult it two ways: a
    ``skip_summary`` unit takes the screen's pre-made rows directly
    (there is no summary to decide from — screened decisions never
    consult budgets, which is sound because they can only *add*
    ``parallel`` answers the full analysis would also prove); every
    other unit hands the screen to
    :func:`~repro.partests.driver.decide_unit`, which fast-paths the
    screen-independent loops after a per-loop cross-check.
    """

    name = "decide"
    scope = UNIT_SCOPE
    inputs = ("engine", "screen", "summary")
    outputs = ("decisions", "decisions_degraded")
    cacheable = True

    @staticmethod
    def _screened_rows(engine, unit: str, screen):
        """The pre-made decision rows of a summary-skipped unit."""
        from repro.lang.astnodes import DoLoop, walk_stmts
        from repro.partests.driver import _rebind_rows

        loops_by_label = {
            s.label: s
            for s in walk_stmts(engine.program.units[unit].body)
            if isinstance(s, DoLoop)
        }
        rows = _rebind_rows(
            [screen.rows[label] for label in screen.order],
            loops_by_label,
            {},
            unit,
        )
        if rows is None:  # pragma: no cover - full_cover guarantees shape
            raise RuntimeError(
                f"screen rows for unit {unit!r} failed to rebind"
            )
        return rows

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        assert unit is not None
        from repro.partests.driver import decide_unit

        engine = ctx.engine
        screen = ctx.get("screen", unit)
        if screen.skip_summary:
            ctx.put("decisions", self._screened_rows(engine, unit, screen), unit)
            ctx.put("decisions_degraded", False, unit)
            return
        rows, degraded = decide_unit(
            engine,
            unit,
            ctx.get("summary", unit),
            engine.symtabs[unit],
            ctx.opts,
            ctx.cache,
            screen=screen,
        )
        ctx.put("decisions", rows, unit)
        ctx.put("decisions_degraded", degraded, unit)


class EnclosePass(Pass):
    """Assemble the :class:`~repro.partests.driver.ProgramResult`.

    The merge point: per-unit decisions are concatenated in program
    (parse) order, not in the bottom-up run order.  Loops nested inside
    a parallelized loop are flagged ``enclosed`` here because the
    marking needs every unit's decisions at once.
    """

    name = "enclose"
    scope = PROGRAM_SCOPE
    inputs = ("source_program", "decisions", "decisions_degraded")
    outputs = ("result", "degraded")

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        from repro.partests.driver import ProgramResult, mark_enclosed

        result = ProgramResult(ctx.source_program, ctx.opts)
        degraded = False
        for name in ctx.unit_names():
            result.loops.extend(ctx.get("decisions", name))
            degraded = degraded or ctx.get("decisions_degraded", name)
        mark_enclosed(result)
        ctx.put("result", result)
        ctx.put("degraded", degraded)


class PlanPass(Pass):
    """Lower loop decisions into a :class:`ParallelPlan`."""

    name = "plan"
    scope = PROGRAM_SCOPE
    inputs = ("result",)
    outputs = ("plan",)

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        from repro.codegen.plan import build_plan

        ctx.put("plan", build_plan(ctx.get("result")))


class TwoVersionPass(Pass):
    """Source-to-source two-version transformation of the program."""

    name = "twoversion"
    scope = PROGRAM_SCOPE
    inputs = ("plan", "source_program")
    outputs = ("transformed",)

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        from repro.codegen.twoversion import transform_program

        ctx.put(
            "transformed",
            transform_program(ctx.source_program, ctx.get("plan")),
        )


def analysis_passes() -> Tuple[Pass, ...]:
    """The full compile flow, in pipeline order."""
    return (
        ScalarPropPass(),
        FrontendPass(),
        ScreenPass(),
        SummarizePass(),
        DecidePass(),
        EnclosePass(),
        PlanPass(),
        TwoVersionPass(),
    )
