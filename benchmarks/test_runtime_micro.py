"""Micro-benchmarks of the runtime interpreter (the bytecode engine).

Each workload runs on a deterministic program and inputs; the
deterministic run facts (step counts, loop-event counts, ELPD verdict
tallies) are recorded in ``extra_info``.  The ``_bytecode`` names are
kept so the committed ``BENCH_*.json`` records stay comparable.

The exec workload mixes a vectorizable inner loop with a recurrence the
vectorizer must reject (``b(i) = ... b(i-1)``), so both the NumPy fast
path and the scalar instruction loop are on the clock.  The ELPD
workload runs fully hooked — the packed shadow state and the
compiled-in access hooks are what is being measured there.
"""

from repro import perf
from repro.lang.parser import parse_program
from repro.runtime.elpd import run_elpd
from repro.runtime.interp import run_program

EXEC_SRC = (
    "program t\n"
    "integer n\n"
    "real a(2000)\n"
    "real b(2000)\n"
    "read n\n"
    "do r = 1, 10\n"
    " do i = 1, n\n"
    "  a(i) = a(i) * 0.5 + b(i) + 1.0\n"
    " enddo\n"
    " do i = 2, n\n"
    "  b(i) = a(i) - b(i - 1) * 0.25\n"
    " enddo\n"
    "enddo\n"
    "end\n"
)
EXEC_INPUTS = [2000]

ELPD_SRC = (
    "program t\n"
    "integer n\n"
    "real a(600)\n"
    "real w(600)\n"
    "read n\n"
    "do r = 1, 3\n"
    " do i = 1, n\n"
    "  w(i) = a(i) + 1.0\n"
    "  a(i) = w(i) * 0.5\n"
    " enddo\n"
    " do i = 2, n\n"
    "  a(i) = a(i - 1) + 1.0\n"
    " enddo\n"
    "enddo\n"
    "end\n"
)
ELPD_INPUTS = [600]


def _exec_facts():
    """Deterministic facts of one exec run."""
    program = parse_program(EXEC_SRC)
    result = run_program(program, EXEC_INPUTS)
    return {
        "steps": result.steps,
        "loop_events": len(result.loop_events),
        "outputs": len(result.outputs),
    }


def _elpd_facts():
    """Deterministic facts of one ELPD run."""
    report = run_elpd(parse_program(ELPD_SRC), ELPD_INPUTS)
    classes = [o.classification for o in report.observations.values()]
    return {
        "elpd.steps": report.steps,
        "elpd.observed": len(report.observations),
        "elpd.dependent": sum(1 for c in classes if c == "dependent"),
        "elpd.parallel": len(report.parallelizable_labels()),
    }


def _cold(facts_fn):
    perf.reset_all_caches()
    return facts_fn()


def _bench(benchmark, facts_fn):
    """Record one cold run's facts, then time cold runs."""
    for key, value in sorted(_cold(facts_fn).items()):
        benchmark.extra_info[key] = value
    return benchmark(lambda: _cold(facts_fn))


def test_runtime_exec_bytecode(benchmark):
    facts = _bench(benchmark, _exec_facts)
    assert facts["steps"] > 20000


def test_runtime_elpd_bytecode(benchmark):
    facts = _bench(benchmark, _elpd_facts)
    assert facts["elpd.dependent"] >= 1
