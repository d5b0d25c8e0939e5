"""The warm fleet: epoch invalidation and batch chunking.

Batch pool workers keep their memo tables alive across chunks within a
*fleet epoch* (``docs/EXECUTION.md``).  The contract under test:

* every semantic knob change bumps the epoch, and a worker seeing a
  newer epoch drops *all* warm state before touching the chunk;
* none of which may change any analysis answer, for any executor, job
  count, chunking, or budget.
"""

import hashlib
import warnings

import pytest

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.pipeline import resolve_batch_chunk, run_pipeline_batch
from repro.pipeline import executor as pexec
from repro.service.budgets import Budget, budget_scope
from repro.suites import all_programs


@pytest.fixture(autouse=True)
def _restore_state():
    yield
    pexec._worker_epoch = None


def _bench(i=0):
    return all_programs()[i]


def _opts():
    return AnalysisOptions.predicated()


# ----------------------------------------------------------------------
# the epoch counter
# ----------------------------------------------------------------------
class TestEpochBumps:
    def test_knob_change_bumps_epoch_once(self):
        e0 = perf.epoch()
        perf.set_dep_screen(False)
        try:
            e1 = perf.epoch()
            assert e1 == e0 + 1
            perf.set_dep_screen(False)  # no-op: same value, no bump
            assert perf.epoch() == e1
        finally:
            perf.set_dep_screen(None)
        assert perf.epoch() > e1

    def test_every_semantic_knob_setter_bumps(self):
        from repro.pipeline import set_pipeline

        setters = [
            perf.set_pred_oracle,
            perf.set_packed_kernel,
            perf.set_bytecode,
            perf.set_dep_screen,
            set_pipeline,
        ]
        for setter in setters:
            e0 = perf.epoch()
            setter(False)
            try:
                assert perf.epoch() > e0, setter.__name__
            finally:
                setter(None)

    def test_reset_all_caches_bumps_epoch_and_counter(self):
        e0 = perf.epoch()
        c0 = perf.counter("perf.epoch_bumps")
        perf.reset_all_caches()
        assert perf.epoch() == e0 + 1
        # the bump itself lands before the counter tables reset, so the
        # running total restarts from the reset — only monotonicity of
        # the epoch matters; the counter must at least exist
        assert perf.counter("perf.epoch_bumps") >= 0
        assert c0 >= 0


# ----------------------------------------------------------------------
# worker-side epoch sync (called in-process: the worker entry points are
# plain functions, so this is deterministic where a live pool's chunk
# routing is not)
# ----------------------------------------------------------------------
class TestWorkerEngineLifecycle:
    def _warm(self):
        """Sync to an epoch and warm the memo tables; returns the epoch."""
        epoch = perf.epoch()
        pexec._sync_epoch(epoch)
        run_pipeline_batch([_bench().fresh_program()], _opts())
        assert perf.snapshot()["caches"]["fm.eliminate_all"]["size"] > 0
        return epoch

    def test_epoch_sync_drops_memos_and_counts_it(self):
        epoch = self._warm()
        s0 = perf.counter("pipeline.executor.epoch_syncs")
        pexec._sync_epoch(epoch + 1)
        assert perf.counter("pipeline.executor.epoch_syncs") == s0 + 1
        assert perf.snapshot()["caches"]["fm.eliminate_all"]["size"] == 0

    def test_same_epoch_sync_is_a_noop(self):
        epoch = self._warm()
        s0 = perf.counter("pipeline.executor.epoch_syncs")
        pexec._sync_epoch(epoch)
        assert perf.counter("pipeline.executor.epoch_syncs") == s0
        # warm state untouched
        assert perf.snapshot()["caches"]["fm.eliminate_all"]["size"] > 0


# ----------------------------------------------------------------------
# end-to-end: invalidation and taint must never change an answer
# ----------------------------------------------------------------------
COMBOS = [
    ("thread", 1),
    ("thread", 2),
    ("process", 2),
    ("process", 4),
]


def _result_hash(bench, executor, jobs, budget=None):
    """Decision rows of a two-program batch of *bench* (one program per
    chunk, so under the process pool both workers may take one)."""
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


class TestEpochInvalidationProperty:
    """For every executor × job count: warmth, epoch bumps and budget
    taint may change *where* and *how much* work happens — never what
    comes out."""

    def test_warm_rerun_and_epoch_bump_preserve_results(self):
        bench = _bench(3)
        for executor, jobs in COMBOS:
            perf.reset_all_caches()
            fresh = _result_hash(bench, executor, jobs)
            # same epoch, warm state: reuse path
            assert _result_hash(bench, executor, jobs) == fresh, (
                executor,
                jobs,
            )
            # knob-change-shaped invalidation: rebuild path
            perf.bump_epoch()
            assert _result_hash(bench, executor, jobs) == fresh, (
                executor,
                jobs,
            )

    def test_invalidation_restores_cold_behavior_under_budget(self):
        """``reset_all_caches`` (an epoch bump + parent reset) must make
        the next tightly-budgeted run behave exactly like the first cold
        one — if workers ignored the epoch and kept warm memos, the ops
        meter would trip elsewhere and degrade different loops."""
        bench = _bench(0)
        for executor, jobs in COMBOS:
            perf.reset_all_caches()
            cold1 = _result_hash(
                bench, executor, jobs, budget=Budget(max_ops=1)
            )
            _result_hash(bench, executor, jobs)  # warm everything up
            perf.reset_all_caches()
            cold2 = _result_hash(
                bench, executor, jobs, budget=Budget(max_ops=1)
            )
            assert cold1 == cold2, (executor, jobs)

    def test_degraded_run_never_poisons_the_next(self):
        """A budget-tripped run leaves warm workers behind; the next
        *unbudgeted* run in the same epoch must still produce the clean
        answer (degraded state is never memoized or cached)."""
        bench = _bench(3)
        for executor, jobs in COMBOS:
            perf.reset_all_caches()
            clean = _result_hash(bench, executor, jobs)
            perf.reset_all_caches()
            _result_hash(bench, executor, jobs, budget=Budget(max_ops=1))
            # warm, same epoch, right after a degraded run:
            assert _result_hash(bench, executor, jobs) == clean, (
                executor,
                jobs,
            )


# ----------------------------------------------------------------------
# batch chunking
# ----------------------------------------------------------------------
class TestBatchChunking:
    def test_resolve_batch_chunk_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_CHUNK", raising=False)
        assert resolve_batch_chunk(5, 100, 4) == 5  # explicit wins
        assert resolve_batch_chunk(0, 100, 4) == 1  # clamped
        monkeypatch.setenv("REPRO_BATCH_CHUNK", "7")
        assert resolve_batch_chunk(None, 100, 4) == 7
        monkeypatch.setenv("REPRO_BATCH_CHUNK", "seven")
        with pytest.raises(ValueError, match="REPRO_BATCH_CHUNK"):
            resolve_batch_chunk(None, 100, 4)

    def test_resolve_batch_chunk_auto_shape(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_CHUNK", raising=False)
        # ~4 chunks per worker, never above 32, never below 1
        assert resolve_batch_chunk(None, 64, 4) == 4
        assert resolve_batch_chunk(None, 3, 4) == 1
        assert resolve_batch_chunk(None, 10_000, 4) == 32

    def test_chunking_is_invisible(self):
        """serial loop == thread batch == process batch at every chunk
        size, program for program, in input order."""
        benches = all_programs()[:5]
        programs = [b.fresh_program() for b in benches] + [
            b.fresh_program() for b in benches[:3]
        ]

        def rows(results):
            return [
                [(l.label, l.status, str(l.condition)) for l in r.loops]
                for r in results
            ]

        def run(jobs, executor, chunk=None):
            perf.reset_all_caches()
            return rows(
                run_pipeline_batch(
                    [b for b in programs],
                    _opts(),
                    jobs=jobs,
                    executor=executor,
                    chunk=chunk,
                )
            )

        serial = run(1, "thread")
        assert len(serial) == len(programs)
        assert run(2, "thread") == serial
        assert run(2, "process", chunk=1) == serial  # unchunked shape
        assert run(2, "process", chunk=3) == serial
        assert run(2, "process", chunk=len(programs)) == serial

    def test_chunk_counters(self):
        programs = [all_programs()[0].fresh_program() for _ in range(6)]
        perf.reset_all_caches()
        c0 = perf.counter("pipeline.executor.chunks")
        p0 = perf.counter("pipeline.executor.batch_programs")
        run_pipeline_batch(programs, _opts(), jobs=2, executor="process", chunk=2)
        assert perf.counter("pipeline.executor.chunks") == c0 + 3
        assert perf.counter("pipeline.executor.batch_programs") == p0 + 6
