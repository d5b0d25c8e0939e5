"""Byte-identity of the pass pipeline against the legacy path.

The pipeline refactor is a pure restructuring: the same code runs in
the same data-dependence order, so

* the formatted experiment outputs (the paper's tables) must match the
  legacy monolithic driver byte for byte, and
* a batch fanned over worker threads or the process pool must match
  the serial pipeline byte for byte — wall-clock timing lines excluded,
  everything else pinned.

Budget exhaustion inside any pass must keep the legacy sound-degradation
semantics: decisions only ever demote to serial and nothing degraded is
cached.
"""

import re
import warnings

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.codegen.report import format_report
from repro.experiments import fig1_examples, table2_programs
from repro.pipeline import run_pipeline, run_pipeline_batch, set_pipeline
from repro.service import Budget, budget_scope
from repro.service.cache import SummaryCache
from repro.suites import all_programs, get_program

_TIMING = re.compile(r"analysis: [0-9.]+ ms")


def _formatted(pipeline_on):
    set_pipeline(pipeline_on)
    perf.reset_all_caches()
    perf.reset_counters()
    return (
        table2_programs.run().format(),
        fig1_examples.run().format(),
    )


class TestPipelineVsLegacy:
    def test_experiment_outputs_byte_identical(self):
        try:
            with_pipeline = _formatted(True)
            legacy = _formatted(False)
        finally:
            set_pipeline(None)
            perf.reset_all_caches()
        assert with_pipeline[0] == legacy[0]  # Table 2 (predicated)
        assert with_pipeline[1] == legacy[1]  # Figure 1 examples


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
