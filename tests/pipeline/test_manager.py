"""PassManager scheduling: wiring, pruning, serial dependence order."""

import pytest

from repro.arraydf.options import AnalysisOptions
from repro.lang.parser import parse_program
from repro.pipeline import (
    PassManager,
    PipelineWiringError,
    ProgramContext,
    analysis_passes,
    run_pipeline,
)
from repro.pipeline.base import PROGRAM_SCOPE, UNIT_SCOPE, Pass

# main calls left and right; left calls leaf
SRC = """
program main
  integer n
  real a(100), b(100)
  read n
  call left(a, n)
  call right(b, n)
end
subroutine left(x, m)
  integer m
  real x(100)
  call leaf(x, m)
end
subroutine leaf(x, m)
  integer m
  real x(100)
  do j = 1, m
    x(j) = 0.0
  enddo
end
subroutine right(y, m)
  integer m
  real y(100)
  do k = 1, m
    y(k) = 1.0
  enddo
end
"""


class _Record(Pass):
    """A test pass that logs its (name, unit) executions."""

    def __init__(self, name, scope, inputs, outputs, log):
        self.name = name
        self.scope = scope
        self.inputs = inputs
        self.outputs = outputs
        self.log = log

    def run(self, ctx, unit=None):
        self.log.append((self.name, unit))
        for out in self.outputs:
            ctx.put(out, f"{out}:{unit}", unit)


def _ctx(src=SRC, **kw):
    return ProgramContext(
        parse_program(src), AnalysisOptions.predicated(), **kw
    )


class TestWiring:
    def test_missing_input_raises(self):
        log = []
        bad = _Record("bad", PROGRAM_SCOPE, ("nonexistent",), ("out",), log)
        with pytest.raises(PipelineWiringError):
            PassManager([bad]).run(_ctx())

    def test_missing_goal_raises(self):
        with pytest.raises(PipelineWiringError):
            PassManager(list(analysis_passes())).run(
                _ctx(), goals=("no_such_artifact",)
            )

    def test_callee_input_on_program_scope_raises(self):
        log = []
        bad = _Record("bad", PROGRAM_SCOPE, ("x@callees",), ("x",), log)
        with pytest.raises(PipelineWiringError):
            PassManager([bad]).run(_ctx())

    def test_goal_pruning_skips_downstream_passes(self):
        ctx = run_pipeline(
            parse_program(SRC), AnalysisOptions.predicated(), goals=("result",)
        )
        assert ctx.has("result")
        assert not ctx.has("plan")
        assert not ctx.has("transformed")

    def test_preloaded_goal_schedules_nothing(self):
        ctx = _ctx()
        ctx.put("result", "sentinel")
        PassManager(list(analysis_passes())).run(ctx, goals=("result",))
        assert ctx.get("result") == "sentinel"
        assert not ctx.has("engine")  # nothing upstream ran


class TestRegionSchedule:
    def test_serial_task_order_is_pass_major_bottom_up(self):
        ctx = run_pipeline(
            parse_program(SRC), AnalysisOptions.predicated(), explain=True
        )
        tasks = [
            (r["pass"], r["unit"])
            for r in ctx.explain["schedule"]
            if r["unit"] is not None
        ]
        summarize_units = [u for p, u in tasks if p == "summarize"]
        # bottom-up: leaf before left before main
        assert summarize_units.index("leaf") < summarize_units.index("left")
        assert summarize_units.index("left") < summarize_units.index("main")
        # pass-major: all screen before any summarize before any decide
        assert tasks.index(("summarize", "leaf")) > tasks.index(("screen", "main"))
        assert tasks.index(("decide", "leaf")) > tasks.index(("summarize", "main"))


class TestParallelExecution:
    def test_pass_failure_propagates_deterministically(self):
        log = []

        class Boom(Pass):
            name = "boom"
            scope = UNIT_SCOPE
            inputs = ("engine",)
            outputs = ("junk",)

            def run(self, ctx, unit=None):
                if unit == "leaf":
                    raise RuntimeError("boom:leaf")
                log.append(unit)
                ctx.put("junk", unit, unit)

        passes = list(analysis_passes())[:2] + [Boom()]
        with pytest.raises(RuntimeError, match="boom:leaf"):
            PassManager(passes).run(_ctx())
        # leaf is the first unit bottom-up: nothing ran before it
        assert log == []


class TestExplain:
    def test_explain_structure(self):
        ctx = run_pipeline(
            parse_program(SRC),
            AnalysisOptions.predicated(),
            goals=("transformed",),
            explain=True,
        )
        ex = ctx.explain
        assert set(ex) == {
            "units",
            "callgraph",
            "passes",
            "schedule",
            "pass_seconds",
        }
        assert ex["units"] == ["main", "left", "leaf", "right"]
        assert ["left", "leaf"] in [
            sorted(e, reverse=True) for e in ex["callgraph"]
        ]
        names = [p["name"] for p in ex["passes"]]
        assert names == [
            "scalarprop",
            "frontend",
            "screen",
            "summarize",
            "decide",
            "enclose",
            "plan",
            "twoversion",
        ]
        assert all("seconds" in r for r in ex["schedule"] if not r.get("skipped"))
        assert ex["pass_seconds"].keys() == set(names)
        # one record per (unit pass, unit), in run order
        assert [
            r["unit"] for r in ex["schedule"] if r["pass"] == "summarize"
        ] == ["leaf", "left", "right", "main"]

    def test_explain_off_by_default(self):
        ctx = run_pipeline(parse_program(SRC), AnalysisOptions.predicated())
        assert ctx.explain is None
