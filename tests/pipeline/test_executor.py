"""The batch executor layer: kind/jobs selection, warnings, invisibility.

The batch executor must be *invisible*: for any suite program, executor
kind and job count may change where programs run but never what they
produce — including how budget exhaustion degrades the answer.
"""

import hashlib
import random
import warnings

import pytest

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.lang.parser import parse_program
from repro.linalg.fourier_motzkin import (
    _note_fallback,
    capture_fallback_warnings,
    replay_fallback_warnings,
)
from repro.pipeline import run_pipeline_batch
from repro.pipeline import executor as pexec
from repro.service.budgets import Budget, budget_scope
from repro.suites import all_programs


class TestSelection:
    def test_explicit_kind_wins(self):
        assert pexec.executor_kind("process") == "process"
        assert pexec.executor_kind("thread") == "thread"

    def test_invalid_explicit_kind_raises(self):
        with pytest.raises(ValueError, match="unknown executor"):
            pexec.executor_kind("gpu")

    def test_environment_default(self, monkeypatch):
        # no environment selects the executor any more: None is "thread"
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert pexec.executor_kind() == "thread"
        assert pexec.executor_kind(None) == "thread"

    def test_resolve_jobs(self, monkeypatch):
        assert pexec.resolve_jobs(3) == 3
        assert pexec.resolve_jobs(0) == 1  # clamped
        # no environment supplies a default job count any more
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert pexec.resolve_jobs(None) == 1


class TestWarningPlumbing:
    def test_capture_collects_instead_of_warning(self):
        perf.reset_all_caches()
        with warnings.catch_warnings(record=True) as emitted:
            warnings.simplefilter("always")
            with capture_fallback_warnings() as records:
                with perf.analysis_context("proc-a"):
                    _note_fallback("x", 3)
        assert emitted == []
        assert len(records) == 1
        assert records[0][0] == "proc-a"

    def test_replay_warns_once_per_context_across_workers(self):
        """Records from several workers that tripped the same context
        replay as ONE warning (the per-worker repetition bug)."""
        perf.reset_all_caches()
        records = [
            ("proc-a", "dropped in proc-a"),
            ("proc-a", "dropped in proc-a"),  # a second worker
            ("proc-b", "dropped in proc-b"),
        ]
        with warnings.catch_warnings(record=True) as emitted:
            warnings.simplefilter("always")
            replay_fallback_warnings(records)
            replay_fallback_warnings(records)  # a third completion wave
        assert sorted(str(w.message) for w in emitted) == [
            "dropped in proc-a",
            "dropped in proc-b",
        ]


class TestExecutorInvisibility:
    """Seeded property sweep: batch executor choice changes nothing
    visible."""

    COMBOS = [
        ("thread", 1),
        ("thread", 2),
        ("thread", 4),
        ("process", 1),
        ("process", 2),
        ("process", 4),
    ]

    def _result_hash(self, bench, executor, jobs, budget=None):
        """A hash over everything ``--profile`` makes visible about the
        results of a two-program batch: per-loop decisions plus the
        degradation flag."""
        perf.reset_all_caches()  # identical memo warmth for every combo
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with budget_scope(budget):
                results = run_pipeline_batch(
                    [bench.fresh_program(), bench.fresh_program()],
                    AnalysisOptions.predicated(),
                    jobs=jobs,
                    executor=executor,
                    chunk=1,
                )
        rows = [
            [
                (l.label, l.status, str(l.condition), l.enclosed, l.runtime_test)
                for l in r.loops
            ]
            for r in results
        ]
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    def test_unbudgeted_results_identical_across_combos(self):
        rng = random.Random(20260808)
        for bench in rng.sample(all_programs(), 4):
            hashes = {
                self._result_hash(bench, executor, jobs)
                for executor, jobs in self.COMBOS
            }
            assert len(hashes) == 1, bench.name

    def test_budget_degradation_identical_across_combos(self):
        """Exhaustion under a tight op budget degrades the same loops
        to the same statuses no matter where the programs ran."""
        for bench in (all_programs()[0], all_programs()[3]):
            hashes = {}
            for executor, jobs in self.COMBOS:
                hashes[(executor, jobs)] = self._result_hash(
                    bench, executor, jobs, budget=Budget(max_ops=1)
                )
            assert len(set(hashes.values())) == 1, (bench.name, hashes)
