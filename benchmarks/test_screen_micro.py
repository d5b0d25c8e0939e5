"""Micro-benchmarks of the tier-0 dependence screen.

Three questions:

* what does the screen itself cost (pure syntax, no analysis)?
* what does a screened whole-suite analysis cost?
* how much summarization work does the suite skip on the screen's word?

Compare runs against the recorded baselines with
``benchmarks/check_regression.py``.
"""

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.arraydf.screen import screen_unit
from repro.ir.symboltable import SymbolTable
from repro.partests.driver import analyze_program
from repro.suites import all_programs, get_program


def test_screen_unit_syntax_only(benchmark):
    """The raw screen walk over the biggest suite unit: no analysis."""
    bench_prog = get_program("hydro2d")

    def probe():
        program = bench_prog.fresh_program()
        unit = program.units[program.main]
        return screen_unit(unit, SymbolTable(unit))

    screen = benchmark(probe)
    assert screen.independent_labels  # the screen finds work to skip


def _analyze_suite():
    total = 0
    for bench_prog in all_programs():
        result = analyze_program(
            bench_prog.fresh_program(), AnalysisOptions.predicated()
        )
        total += result.total_loops
    return total


def test_whole_suite_screened(benchmark):
    """All 30 programs through the screened pipeline."""
    assert benchmark(_analyze_suite) > 0


def test_screen_saves_projection_work():
    """Not a timing: the screen's saved-work counter must fire on the
    suite (elided loop projections and skipped unit walks)."""
    try:
        perf.reset_all_caches()
        perf.reset_counters()
        _analyze_suite()
        counters = perf.snapshot()["counters"]
    finally:
        perf.reset_all_caches()
    assert counters["screen.saved_units"] > 0
    assert counters["screen.independent"] > 0
    assert counters["screen.disagree"] == 0
