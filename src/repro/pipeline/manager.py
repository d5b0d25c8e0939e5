"""Serial scheduling of passes over compilation units.

The :class:`PassManager` owns *when* pass bodies run; the passes own
*what* they compute.  The schedule is derived entirely from the declared
artifact wiring:

* **program-scope passes** run once, in pipeline order;
* **consecutive unit-scope passes form a region**, run pass-major with
  units bottom-up over the callgraph
  (:meth:`~repro.ir.callgraph.CallGraph.bottom_up_order`).  A unit's
  inputs declared ``<artifact>@callees`` are therefore always produced
  before the unit reads them.

One program always runs serially, in this one order.  The only fan-out
is across whole programs, in
:func:`~repro.pipeline.run_pipeline_batch` (see ``docs/EXECUTION.md``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import perf
from repro.pipeline.base import (
    PROGRAM_SCOPE,
    ROOT_ARTIFACT,
    UNIT_SCOPE,
    Pass,
    base_artifact,
    is_callee_input,
)
from repro.pipeline.context import ProgramContext


class PipelineWiringError(Exception):
    """A pass reads an artifact nothing earlier produces (wiring bug)."""


class PassManager:
    """Runs a pass sequence over one :class:`ProgramContext`."""

    def __init__(self, passes: Sequence[Pass]) -> None:
        self.passes: Tuple[Pass, ...] = tuple(passes)

    # ------------------------------------------------------------------
    # selection and validation
    # ------------------------------------------------------------------
    def _select(self, ctx: ProgramContext, goals) -> List[Pass]:
        """The passes needed to produce *goals*, in pipeline order.

        A requirement already present in the context (the program-level
        cache fast path preloads ``result``) stops the backward chain,
        so a warm run schedules nothing upstream of the preload.
        """
        if goals is None:
            return list(self.passes)
        producers: Dict[str, Pass] = {}
        for p in self.passes:
            for out in p.outputs:
                producers[out] = p
        needed: Set[int] = set()

        def require(artifact: str, whom: str) -> None:
            if artifact == ROOT_ARTIFACT or ctx.has(artifact):
                return
            p = producers.get(artifact)
            if p is None:
                raise PipelineWiringError(
                    f"no pass produces artifact {artifact!r}"
                    f" (required by {whom})"
                )
            if id(p) in needed:
                return
            needed.add(id(p))
            for inp in p.inputs:
                base = base_artifact(inp)
                if base not in p.outputs:  # self-edge: summary@callees
                    require(base, p.name)

        for g in goals:
            require(g, "goals")
        return [p for p in self.passes if id(p) in needed]

    def _validate(self, ctx: ProgramContext, selected: List[Pass]) -> None:
        """Every selected pass's inputs must be produced earlier (or be
        preloaded); raises :class:`PipelineWiringError` otherwise."""
        available: Set[str] = {ROOT_ARTIFACT}
        available.update(ctx.available_artifacts())
        for p in selected:
            for inp in p.inputs:
                base = base_artifact(inp)
                if is_callee_input(inp) and p.scope != UNIT_SCOPE:
                    raise PipelineWiringError(
                        f"pass {p.name!r} is program-scope but declares"
                        f" callee input {inp!r}"
                    )
                if base in available or base in p.outputs:
                    continue
                raise PipelineWiringError(
                    f"pass {p.name!r} reads {base!r}, which no earlier"
                    " pass produces and the context does not preload"
                )
            available.update(p.outputs)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        ctx: ProgramContext,
        goals=None,
        explain: bool = False,
    ) -> ProgramContext:
        selected = self._select(ctx, goals)
        self._validate(ctx, selected)
        records: List[dict] = []
        t0 = time.perf_counter()
        idx = 0
        while idx < len(selected):
            p = selected[idx]
            if p.scope == PROGRAM_SCOPE:
                if all(ctx.has(out) for out in p.outputs):
                    records.append({"pass": p.name, "unit": None, "skipped": True})
                else:
                    self._run_task(ctx, p, None, records, t0)
                idx += 1
                continue
            region: List[Pass] = []
            while idx < len(selected) and selected[idx].scope == UNIT_SCOPE:
                region.append(selected[idx])
                idx += 1
            order = ctx.engine.callgraph.bottom_up_order()
            for rp in region:
                for unit in order:
                    self._run_task(ctx, rp, unit, records, t0)
        if explain:
            ctx.explain = self._explain(ctx, selected, records)
        return ctx

    def _run_task(
        self,
        ctx: ProgramContext,
        p: Pass,
        unit: Optional[str],
        records: List[dict],
        t0: float,
    ) -> None:
        start = time.perf_counter()
        with perf.phase(f"pass.{p.name}"):
            p.run(ctx, unit=unit)
        records.append(
            {
                "pass": p.name,
                "unit": unit,
                "start": round(start - t0, 6),
                "seconds": round(time.perf_counter() - start, 6),
            }
        )

    # ------------------------------------------------------------------
    # explain (--explain-pipeline)
    # ------------------------------------------------------------------
    def _explain(
        self, ctx: ProgramContext, selected: List[Pass], records: List[dict]
    ) -> dict:
        per_pass: Dict[str, float] = {}
        for r in records:
            if not r.get("skipped"):
                per_pass[r["pass"]] = round(
                    per_pass.get(r["pass"], 0.0) + r["seconds"], 6
                )
        callgraph: List[List[str]] = []
        if ctx.has("engine"):
            callgraph = [list(e) for e in ctx.engine.callgraph.edge_list()]
        skipped = {r["pass"] for r in records if r.get("skipped")}
        return {
            "units": list(ctx.unit_names()),
            "callgraph": callgraph,
            "passes": [
                dict(p.describe(), skipped=p.name in skipped) for p in selected
            ],
            "schedule": records,
            "pass_seconds": per_pass,
        }
