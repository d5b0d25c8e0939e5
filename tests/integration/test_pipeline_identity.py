"""Byte-identity of the pipeline's outputs.

The experiment outputs must match the recorded ones in ``golden/`` byte
for byte, from cold caches and on a warm re-run.  A batch fanned over
worker threads or the process pool must match the serial pipeline byte
for byte — wall-clock timing lines excluded, everything else pinned.

Budget exhaustion inside any pass must degrade soundly: decisions only
ever demote to serial and nothing degraded is cached.
"""

import re
import warnings
from pathlib import Path

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.codegen.report import format_report
from repro.experiments import (
    fig1_examples,
    fig_overhead,
    table1_loops,
    table2_programs,
)
from repro.pipeline import run_pipeline, run_pipeline_batch
from repro.service import Budget, budget_scope
from repro.service.cache import SummaryCache
from repro.suites import all_programs, get_program

_TIMING = re.compile(r"analysis: [0-9.]+ ms")

GOLDEN = Path(__file__).parent / "golden"
HARNESSES = {
    "table1_loops": table1_loops,
    "table2_programs": table2_programs,
    "fig1_examples": fig1_examples,
    "fig_overhead": fig_overhead,
}


def _outputs():
    return {name: mod.run().format() + "\n" for name, mod in HARNESSES.items()}


class TestPipelineVsLegacy:
    def test_experiment_outputs_byte_identical(self):
        """``golden/`` holds the formatted Table 1, Table 2, Figure 1 and
        FIGO.  The three tables are byte for byte what the monolithic
        driver the pipeline replaced printed.  Every layer of the
        analysis feeds them — scalar propagation, the dependence screen,
        region summaries through the packed Fourier–Motzkin kernel, the
        tiered predicate oracle, decisions and the ELPD runtime — so a
        change in any of them that alters an answer shows up here.
        FIGO-a sums the ``fm.*`` / constraint / system op counters of a
        cold analysis per program, so its file also pins how much kernel
        work the pipeline does.

        The outputs must match from cold caches and again on a warm
        re-run (the memo tables are then full, so the warm path serves
        from them).  To regenerate after an intended change, write each
        harness's ``run().format()`` plus a trailing newline to
        ``golden/<name>.txt``.
        """
        expected = {
            name: (GOLDEN / f"{name}.txt").read_text() for name in HARNESSES
        }
        try:
            perf.reset_all_caches()
            cold_run = _outputs()
            warm_run = _outputs()
        finally:
            perf.reset_all_caches()
        for name in HARNESSES:
            assert cold_run[name] == expected[name], f"{name} (cold caches)"
            assert warm_run[name] == expected[name], f"{name} (warm re-run)"


def _serial_report(program):
    ctx = run_pipeline(program, AnalysisOptions.predicated())
    return _report(ctx.get("result"))


def _report(result):
    return _TIMING.sub("analysis: - ms", format_report(result, title="t"))


def _batch_reports(benches, jobs, executor):
    return [
        _report(r)
        for r in run_pipeline_batch(
            [b.fresh_program() for b in benches],
            AnalysisOptions.predicated(),
            jobs=jobs,
            executor=executor,
        )
    ]


class TestParallelVsSerial:
    def test_every_suite_program_identical_any_job_count(self):
        """Worker threads share the process-wide memo tables: a thread
        batch over the whole suite must still report what a serial
        pipeline run reports, program for program."""
        benches = all_programs()
        serial = [_serial_report(b.fresh_program()) for b in benches]
        assert _batch_reports(benches, 4, "thread") == serial


class TestProcessExecutorIdentity:
    """``executor="process"`` batches are invisible in every report.

    Workers run each program's pipeline serially on their own warm
    substrate and ship decision rows back; the parent rebinds them onto
    its own parses in input order, so every report must match the
    serial pipeline byte for byte.
    """

    def test_every_suite_program_identical_under_process_pool(self):
        benches = all_programs()
        serial = [_serial_report(b.fresh_program()) for b in benches]
        assert _batch_reports(benches, 2, "process") == serial

    def test_multi_unit_programs_identical_at_any_job_count(self):
        benches = [get_program(name) for name in ("applu", "turb3d")]
        serial = [_serial_report(b.fresh_program()) for b in benches]
        for jobs in (2, 4):
            assert _batch_reports(benches, jobs, "process") == serial, jobs

    def test_batch_matches_serial_loop_for_both_executors(self):
        benches = all_programs()[:8]
        programs = [b.fresh_program() for b in benches]
        serial = run_pipeline_batch(programs, jobs=1)

        def rows(results):
            return [
                [
                    (l.label, l.status, str(l.condition), l.enclosed)
                    for l in r.loops
                ]
                for r in results
            ]

        base = rows(serial)
        for executor in ("thread", "process"):
            got = run_pipeline_batch(
                [b.fresh_program() for b in benches],
                jobs=4,
                executor=executor,
            )
            assert rows(got) == base, executor


class TestBudgetDegradationThroughPipeline:
    def _statuses(self, result):
        return {l.label: l.status for l in result.loops}

    def _run(self, program, budget=None, cache=None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with budget_scope(budget):
                ctx = run_pipeline(
                    program, AnalysisOptions.predicated(), cache=cache
                )
        return ctx

    def test_exhaustion_demotes_soundly_and_marks_context(self):
        perf.reset_all_caches()
        bench = all_programs()[0]
        before = perf.counter("budget.degraded_unit") + perf.counter(
            "budget.degraded_loop"
        )
        ctx = self._run(bench.fresh_program(), Budget(max_fm_constraints=1))
        tripped = (
            perf.counter("budget.degraded_unit")
            + perf.counter("budget.degraded_loop")
        ) - before
        assert tripped > 0, "budget never tripped — test is vacuous"
        assert ctx.degraded or ctx.engine.tainted_units
        degraded = self._statuses(ctx.get("result"))
        precise = self._statuses(
            self._run(bench.fresh_program()).get("result")
        )
        assert degraded.keys() == precise.keys()
        for label, status in precise.items():
            if degraded[label] != status:
                assert degraded[label] == "serial"
                assert status != "not_candidate"

    def test_degraded_pass_results_never_cached(self, tmp_path):
        perf.reset_all_caches()
        cache = SummaryCache(tmp_path / "c")
        bench = all_programs()[0]
        self._run(
            bench.fresh_program(),
            Budget(max_fm_constraints=1),
            cache=cache,
        )
        # the budget-independent screen rows may be stored; the degraded
        # analysis artifacts (summaries, decisions) must not be
        degradable = [
            p
            for p in cache.root.glob("*/*.pkl")
            if not p.name.endswith(".screen.pkl")
        ]
        assert degradable == []
        # an unbudgeted run then stores the precise artifacts
        ctx = self._run(bench.fresh_program(), cache=cache)
        assert [
            p
            for p in cache.root.glob("*/*.pkl")
            if not p.name.endswith(".screen.pkl")
        ]
        assert not ctx.degraded


class TestProgramCacheFastPath:
    def test_warm_pipeline_run_rebinds_whole_program(self, tmp_path):
        perf.reset_all_caches()
        cache = SummaryCache(tmp_path / "c")
        bench = get_program("turb3d")
        cold = run_pipeline(
            bench.fresh_program(), AnalysisOptions.predicated(), cache=cache
        )
        hits = perf.counter("cache.program_hit")
        warm = run_pipeline(
            bench.fresh_program(), AnalysisOptions.predicated(), cache=cache
        )
        assert perf.counter("cache.program_hit") > hits
        assert not warm.has("engine")  # nothing upstream was scheduled
        cold_rows = [
            (l.label, l.status, str(l.condition), l.enclosed)
            for l in cold.get("result").loops
        ]
        warm_rows = [
            (l.label, l.status, str(l.condition), l.enclosed)
            for l in warm.get("result").loops
        ]
        assert cold_rows == warm_rows
