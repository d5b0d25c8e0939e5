"""Pipeline scheduling benchmark.

Times the full pass pipeline (cold caches each round) on the largest
multi-procedure program in the suite, with its serial pass-major
schedule, and records the deterministic ``total_ops`` of one cold run.
"""

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.pipeline import run_pipeline
from repro.suites import get_program

#: largest multi-procedure program in the suite (by statement count)
PROGRAM = "applu"


def _pipeline_run():
    perf.reset_all_caches()
    ctx = run_pipeline(
        get_program(PROGRAM).fresh_program(), AnalysisOptions.predicated()
    )
    return ctx.get("result")


def test_pipeline_serial(benchmark):
    result = benchmark(_pipeline_run)
    assert result.total_loops > 0
    perf.reset_all_caches()
    perf.reset_counters()
    _pipeline_run()
    benchmark.extra_info["total_ops[jobs=1]"] = perf.total_ops()
