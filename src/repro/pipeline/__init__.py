"""The unified pass pipeline.

One explicit compile flow: :func:`run_pipeline` builds a
:class:`~repro.pipeline.context.ProgramContext`, schedules the passes of
:func:`~repro.pipeline.passes.analysis_passes` serially under a
:class:`~repro.pipeline.manager.PassManager`, and returns the context.
:func:`run_pipeline_batch` is the only fan-out: whole programs across
worker threads or the shared process pool, byte-identical to a serial
loop.
"""

from __future__ import annotations

import pickle
import time
from typing import List, Optional, Sequence

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.pipeline import executor as _executor_mod
from repro.pipeline.base import (
    CALLEES_SUFFIX,
    PROGRAM_SCOPE,
    ROOT_ARTIFACT,
    UNIT_SCOPE,
    Pass,
)
from repro.pipeline.context import MissingArtifact, ProgramContext
from repro.pipeline.executor import EXECUTORS, executor_kind, resolve_jobs
from repro.pipeline.manager import PassManager, PipelineWiringError
from repro.pipeline.passes import (
    DecidePass,
    EnclosePass,
    FrontendPass,
    PlanPass,
    ScalarPropPass,
    SummarizePass,
    TwoVersionPass,
    analysis_passes,
)

__all__ = [
    "CALLEES_SUFFIX",
    "EXECUTORS",
    "PROGRAM_SCOPE",
    "ROOT_ARTIFACT",
    "UNIT_SCOPE",
    "DecidePass",
    "EnclosePass",
    "FrontendPass",
    "MissingArtifact",
    "Pass",
    "PassManager",
    "PipelineWiringError",
    "PlanPass",
    "ProgramContext",
    "ScalarPropPass",
    "SummarizePass",
    "TwoVersionPass",
    "analysis_passes",
    "executor_kind",
    "resolve_batch_chunk",
    "resolve_jobs",
    "run_pipeline",
    "run_pipeline_batch",
]

# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_pipeline(
    program,
    opts: Optional[AnalysisOptions] = None,
    cache=None,
    goals: Sequence[str] = ("result",),
    explain: bool = False,
) -> ProgramContext:
    """Run the compile flow for *program* up to *goals*.

    Returns the :class:`ProgramContext`; read artifacts off it
    (``ctx.get("result")``, ``ctx.get("transformed")``, …).  With a
    cache attached the program-level fast path is honored first: an
    unchanged program loads its whole result in one rebind, scheduling
    nothing upstream; a fresh, undegraded run stores the program payload
    back.
    """
    from repro.partests.driver import ParallelizationDriver, _decision_rows
    from repro.service.cache import program_key

    start = time.perf_counter()
    opts = opts or AnalysisOptions.predicated()
    ctx = ProgramContext(program, opts, cache=cache)
    goals = tuple(goals)

    pkey = None
    fresh_result = False
    if cache is not None and "result" in goals:
        pkey = program_key(program, opts)
        payload = cache.load(pkey, "program")
        if payload is not None:
            with perf.phase("driver.rebind"):
                rebound = ParallelizationDriver(
                    program, opts, cache=cache
                )._rebind_program(payload)
            if rebound is not None:
                ctx.put("result", rebound)
                ctx.put("degraded", False)

    manager = PassManager(analysis_passes())
    fresh_result = not ctx.has("result")
    manager.run(ctx, goals=goals, explain=explain)

    if ctx.has("result"):
        result = ctx.get("result")
        result.analysis_seconds = time.perf_counter() - start
        if (
            fresh_result
            and cache is not None
            and pkey is not None
            and ctx.has("engine")
            and not ctx.degraded
            and not ctx.engine.tainted_units
        ):
            cache.store(
                pkey,
                "program",
                [
                    (name, _decision_rows(ctx.get("decisions", name)))
                    for name in ctx.unit_names()
                ],
            )
    return ctx


# ----------------------------------------------------------------------
# whole-suite fan-out
# ----------------------------------------------------------------------
def resolve_batch_chunk(
    chunk: Optional[int], n_programs: int, jobs: int
) -> int:
    """Programs per pool task: explicit *chunk*, else sized so each
    worker sees ~4 chunks (load balance) without any chunk growing past
    32 programs (latency to first merged result)."""
    if chunk is None:
        chunk = min(32, -(-n_programs // (jobs * 4)))
    return max(1, int(chunk))


def run_pipeline_batch(
    programs: Sequence,
    opts: Optional[AnalysisOptions] = None,
    cache=None,
    jobs: Optional[int] = None,
    executor: Optional[str] = None,
    chunk: Optional[int] = None,
) -> List:
    """Analyze many independent programs, returning their
    :class:`~repro.partests.driver.ProgramResult` objects **in input
    order**.

    Distinct programs share no artifacts, so a whole program is the
    unit of fan-out: the least data crosses the boundary, and even
    single-procedure programs spread over the pool.  Under
    ``executor="process"`` the batch is coalesced into *chunks* of
    consecutive programs (*chunk* per pool task, or an auto size — see
    :func:`resolve_batch_chunk`), so a stream of tiny programs pays one
    pickle/queue round trip per chunk instead of per program.  Each chunk runs its programs' full
    pipelines serially inside a pool worker — on the worker's warm
    substrate, when the fleet is warm — and ships back per-program
    decision rows (the exact payload shape the program-level cache
    stores); the parent rebinds them onto its own parses in input
    order, so results are byte-identical to a serial loop *and* to any
    other chunking.  A degraded (budget-tripped) worker result is
    rebound as-is — conservative and, as always, never written to any
    cache.

    The thread executor (the default, ``executor=None``) and ``jobs=1``
    analyze locally; thread workers only overlap cache/IO waits.
    """
    from repro.partests.driver import ParallelizationDriver

    opts = opts or AnalysisOptions.predicated()
    jobs = resolve_jobs(jobs)
    kind = executor_kind(executor)
    programs = list(programs)

    def local(program):
        return run_pipeline(program, opts, cache=cache).get("result")

    if jobs <= 1 or len(programs) <= 1:
        return [local(p) for p in programs]
    if kind == "thread":
        from concurrent.futures import ThreadPoolExecutor

        from repro.service.budgets import active_budget, adopt_scope

        # budgets are thread-local; batch worker threads adopt the
        # caller's scope so the whole batch charges one request budget
        scope = active_budget()

        def local_scoped(program):
            with adopt_scope(scope):
                return local(program)

        with ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="pipeline-batch"
        ) as pool:
            return list(pool.map(local_scoped, programs))

    from repro.linalg.fourier_motzkin import replay_fallback_warnings
    from repro.service.budgets import suspended

    chunk = resolve_batch_chunk(chunk, len(programs), jobs)
    chunks = [
        programs[i : i + chunk] for i in range(0, len(programs), chunk)
    ]
    pool = _executor_mod.process_pool(jobs)
    cache_root = str(cache.root) if cache is not None else None
    epoch = perf.epoch()
    futures = []
    for group in chunks:
        perf.bump("pipeline.executor.batch_programs", len(group))
        perf.bump("pipeline.executor.chunks")
        perf.bump("pipeline.executor.tasks")
        blob = pickle.dumps(group, protocol=pickle.HIGHEST_PROTOCOL)
        futures.append(
            pool.submit(
                _executor_mod.run_remote_chunk,
                blob,
                opts,
                cache_root,
                _executor_mod.remaining_budget(),
                epoch,
            )
        )
    results = []
    try:
        for group, fut in zip(chunks, futures):
            out = _executor_mod.load_result(fut.result())
            _executor_mod.absorb_worker(out["pid"], out["snapshot"])
            replay_fallback_warnings(out["warnings"])
            for program, prog_out in zip(group, out["programs"]):
                # rebinding a completed worker result may not re-trip
                # the (possibly exhausted) request budget
                with suspended(), perf.phase("driver.rebind"):
                    result = ParallelizationDriver(
                        program, opts, cache=cache
                    )._rebind_program(prog_out["payload"])
                if result is None:
                    # same parse on both sides, so this cannot fail in
                    # practice; recompute locally (pure → identical)
                    perf.bump("pipeline.executor.fallback")
                    result = local(program)
                result.analysis_seconds = prog_out["seconds"]
                results.append(result)
    except BaseException:
        _executor_mod.shutdown_pool()
        raise
    return results
