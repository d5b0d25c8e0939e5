"""``farm``: in-process batch analysis plus ELPD verification.

A warm-up stream runs first (counted in ``setup_s``).  Then rounds of
:data:`ROUND` small generated programs are parsed, analysed with
``run_pipeline_batch(jobs=nproc, executor="process")`` and verified one
by one with ``run_oracle``.  This is the batch-programs-per-second end
and the fuzz-farm shape: analysis kernels and the warm-fleet executor
do most of the work, interpreter start-up none.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

import checks
import common
import gen
import spans
import stats

#: programs per ``run_pipeline_batch`` call.  The round wall's ``tail``
#: percentile depends on how many rounds a run holds (p90 from 100, p95
#: from 200, p99 from 1000); rounds this small put a run's 300-600 rounds
#: inside the p95 band however fast the machine happens to be
ROUND = 16
#: warm-up programs per set-up, and set-up repetitions
WARMUP = 64
SETUPS = 5
#: programs covered by the pinned input hash
PINNED = 256
#: warm-up programs come from far along the seed's stream
WARMUP_START = 1_000_000
#: one reference task (``common.reference_s``) after every this many rounds
REF_EVERY = 10
#: ``peak_rss_mb`` is read after this many timed rounds (1024 programs):
#: the memo tables grow with the rounds run, and a time-bounded run on a
#: faster machine runs more of them
RSS_ROUNDS = 64


class Farm:
    def __init__(self, seed: int) -> None:
        # modules, not functions: calls must see the span wrappers once
        # they are installed
        import repro.lang
        import repro.pipeline
        import repro.runtime.elpd
        from repro import perf

        self.perf = perf
        self.lang = repro.lang
        self.pipeline = repro.pipeline
        self.elpd = repro.runtime.elpd
        self.seed = seed
        self.jobs = common.nproc()
        self.next = 0
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0

    def round(self, programs: List[gen.GenProgram], jobs: int) -> Tuple[float, float, float]:
        """Analyse and verify *programs*: ``(analysis_s, elpd_s,
        parent_cpu_s)``; the analysis stage includes parsing."""
        self.attempted += len(programs)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            parsed = [self.lang.parse_program(p.source) for p in programs]
            results = self.pipeline.run_pipeline_batch(parsed, jobs=jobs, executor="process")
        except Exception as exc:  # count the round as failed, keep going
            self.failed += len(programs)
            self.errors.append(f"batch failed: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, 0.0, time.process_time() - cpu0
        t1 = time.perf_counter()
        cpu = time.process_time() - cpu0
        reports = []
        for p in programs:
            try:
                reports.append(self.elpd.run_oracle(self.lang.parse_program(p.source), p.inputs))
            except Exception as exc:
                self.failed += 1
                self.errors.append(f"{p.name} elpd: {type(exc).__name__}: {exc}")
                reports.append(None)
        t2 = time.perf_counter()
        for p, res, rep in zip(programs, results, reports):
            statuses = {l.label: l.status for l in res.loops}
            bad = checks.mismatches(statuses, p.expected)
            if rep is not None:
                elpd = {l: o.classification for l, o in rep.observations.items()}
                bad += checks.mismatches(elpd, p.elpd) + checks.unsound(statuses, elpd)
            if bad:
                self.errors.append(f"{p.name}: " + "; ".join(bad[:3]))
        return t1 - t0, t2 - t1, cpu

    def take(self, n: int) -> List[gen.GenProgram]:
        programs = gen.farm_stream(self.seed, self.next, n)
        self.next += n
        return programs

    def setup(self) -> float:
        """Cold pool and caches, then one warm-up stream; returns its wall."""
        from repro.pipeline.executor import shutdown_pool

        shutdown_pool()
        self.perf.reset_all_caches()
        warm = gen.farm_stream(self.seed, WARMUP_START, WARMUP)
        start = time.perf_counter()
        self.round(warm, self.jobs)
        return time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        pid = os.getpid()
        return max([common.vm_hwm_mb(pid)] + [common.vm_hwm_mb(c) for c in common.children(pid)])


def input_hash(seed: int) -> str:
    """Digest of the first :data:`PINNED` programs of *seed*'s stream."""
    return gen.stream_hash(gen.farm_stream(seed, 0, PINNED))


def run(seed: int, seconds: float, traced: bool) -> Dict:
    from repro.pipeline.executor import shutdown_pool

    try:
        return _run(Farm(seed), seconds, traced)
    finally:
        shutdown_pool()  # stop and reap the pool's worker processes


def _run(farm: Farm, seconds: float, traced: bool) -> Dict:
    digest = input_hash(farm.seed)
    setups = [farm.setup() for _ in range(SETUPS)]

    budget = seconds / 3 if traced else seconds
    refs: List[float] = []
    deadline = time.perf_counter() + budget
    rounds = _measure(farm, deadline, farm.jobs, refs, max_rounds=RSS_ROUNDS)
    peak = farm.peak_rss_mb()
    rounds += _measure(farm, deadline, farm.jobs, refs)
    batch_s = sum(r[0] for r in rounds)
    elpd_s = sum(r[1] for r in rounds)
    programs = ROUND * len(rounds)
    walls = [(r[0] + r[1]) * 1000 for r in rounds]
    tail_v, tail_p, tail_n = stats.tail(walls)
    named = {
        "batch_programs_per_s": (programs / batch_s, "1/s"),
        "farm_programs_per_s": (programs / (batch_s + elpd_s), "1/s"),
        "setup_s": (stats.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
        "ref_ms": (stats.median(refs) * 1000, "ms"),
    }
    result = {
        "input_hash": digest,
        "named": named,
        "tail": {"round_tail_ms": {"percentile": tail_p, "samples": tail_n}},
        "e2e": {
            "p50_ms": stats.median(walls),
            "tail_ms": tail_v,
            "throughput_per_s": named["farm_programs_per_s"][0],
            "setup_s": named["setup_s"][0],
            "peak_rss_mb": named["peak_rss_mb"][0],
            "ref_ms": named["ref_ms"][0],
        },
    }
    if traced:
        result["layers"], result["trace_events"] = _traced(farm, budget, rounds)
    named["fail_ratio"] = (farm.failed / max(farm.attempted, 1), "ratio")
    result.update(attempted=farm.attempted, failed=farm.failed, errors=farm.errors)
    return result


def _measure(
    farm: Farm, deadline: float, jobs: int, refs: Optional[List[float]] = None, max_rounds: Optional[int] = None
) -> List[Tuple[float, float, float]]:
    """Rounds until the ``perf_counter`` *deadline* (or until *max_rounds*
    rounds ran); with *refs*, one reference task after every
    :data:`REF_EVERY` rounds is appended to it."""
    rounds = []
    env = common.child_env()
    while time.perf_counter() < deadline and len(rounds) != max_rounds:
        rounds.append(farm.round(farm.take(ROUND), jobs))
        if refs is not None and len(rounds) % REF_EVERY == 1:
            refs.append(common.reference_s(env))
    return rounds


def _traced(farm: Farm, seconds: float, process_rounds) -> Tuple[Dict[str, float], List[Dict]]:
    """Executor figures from the process-executor rounds just run, then
    the stream once more with ``jobs=1``: untraced, and traced (work in
    pool workers is invisible to the parent's wrappers)."""
    perf = farm.perf
    layers: Dict[str, float] = {}
    n_proc = ROUND * len(process_rounds)
    layers["batch.parent_cpu_ms"] = 1000 * sum(r[2] for r in process_rounds) / n_proc
    snap = perf.snapshot()["counters"]
    builds = sum(snap.get(f"pipeline.executor.{k}", 0) for k in ("builds", "rebuilds", "reuses"))
    layers["executor.warm_ratio"] = snap.get("pipeline.executor.reuses", 0) / builds if builds else 0.0
    layers["executor.chunks"] = snap.get("pipeline.executor.chunks", 0) / (len(process_rounds) + SETUPS)

    # serial rounds warm the parent's own memo tables (the pool's workers
    # did the analysis so far); measure only once they are warm
    _measure(farm, time.perf_counter() + seconds / 4, 1)
    untraced = _measure(farm, time.perf_counter() + seconds / 4, 1)
    untraced_per = sum(r[0] + r[1] for r in untraced) / (ROUND * len(untraced))

    # as many rounds again, generated before the wrappers go in (the
    # generator parses too)
    batches = [farm.take(ROUND) for _ in untraced]
    rec = spans.Recorder()
    spans.install(rec, spans.LAYERS["farm"])
    before = perf.snapshot()
    traced = [farm.round(programs, 1) for programs in batches]
    after = perf.snapshot()
    n = ROUND * len(traced)
    traced_per = sum(r[0] + r[1] for r in traced) / n

    aggs = rec.aggregates()
    layers.update({m: row["value"] for m, row in spans.layer_table(aggs, n).items()})
    layers.update(spans.snapshot_metrics(before, after, n))
    parse = aggs.get("lang.parse", {})
    # parse runs twice per program (analysis and ELPD); sizes are per source
    source_kb = 2 * sum(len(p.source.encode()) for b in batches for p in b) / 1024.0
    layers["lang.parse_kb_per_s"] = source_kb / parse["total_s"] if parse else 0.0
    steps = rec.counts().get("runtime.steps", 0)
    elpd_s = aggs.get("runtime.elpd", {}).get("total_s", 0.0)
    layers["runtime.steps_per_s"] = steps / elpd_s if elpd_s else 0.0
    layers["trace_overhead"] = traced_per / untraced_per
    for row in spans.coverage(rec, before, after):
        if not row["ok"]:
            farm.errors.append(f"wrapper coverage: {row}")
    return layers, rec.chrome_events(os.getpid())
