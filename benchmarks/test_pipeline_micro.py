"""Pipeline scheduling benchmarks: the pass pipeline vs the legacy driver.

Times the full pass pipeline (cold caches each round) on the largest
multi-procedure program in the suite, with its serial pass-major
schedule.  Results are byte-identical by construction (the integration
suite pins that); ``test_pipeline_serial`` keeps the pipeline no slower
than the legacy monolithic driver (``test_pipeline_legacy_driver``).
"""

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.pipeline import run_pipeline, set_pipeline
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


def test_pipeline_legacy_driver(benchmark):
    from repro.partests.driver import analyze_program

    def run():
        perf.reset_all_caches()
        try:
            set_pipeline(False)
            return analyze_program(
                get_program(PROGRAM).fresh_program(),
                AnalysisOptions.predicated(),
            )
        finally:
            set_pipeline(None)

    result = benchmark(run)
    assert result.total_loops > 0
