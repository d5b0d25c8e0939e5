"""The tier-0 dependence screen is sound: screened ⊆ proven parallel.

A loop the screen marks *independent* must be one the full predicated
analysis proves parallel with a trivially-true condition — the screen
may only ever skip work, never flip a decision.  The sweep runs the
whole benchmark suite under every analysis-options set, then the same
seeded random structured programs the end-to-end fuzzer generates,
comparing the screen's verdicts against the unscreened analysis
(``tests/pipeline/unscreened.py``).
"""

from hypothesis import HealthCheck, given, settings

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.arraydf.screen import screen_unit
from repro.ir.symboltable import SymbolTable
from repro.lang.parser import parse_program
from repro.partests.driver import analyze_program
from repro.suites import all_programs

from tests.integration.test_fuzz_soundness import programs
from tests.pipeline.unscreened import unscreened

OPTION_SETS = [
    ("base", AnalysisOptions.base()),
    ("predicated", AnalysisOptions.predicated()),
    ("no-embedding", AnalysisOptions.predicated().without(embedding=False)),
]

#: statuses an independently-screened loop may legitimately carry
PROVEN = ("parallel", "parallel_private")


def _screen_labels(program):
    """Labels every unit's screen marks independent, program-wide."""
    labels = set()
    for name, unit in program.units.items():
        screen = screen_unit(unit, SymbolTable(unit))
        labels.update(screen.independent_labels)
    return labels


def _check_program(source_or_program, opts, context):
    program = (
        parse_program(source_or_program)
        if isinstance(source_or_program, str)
        else source_or_program
    )
    screened = _screen_labels(program)
    with unscreened():
        try:
            perf.reset_all_caches()
            result = analyze_program(program, opts)
        finally:
            perf.reset_all_caches()
    status = {l.label: (l.status, str(l.condition)) for l in result.loops}
    for label in screened:
        st, cond = status[label]
        assert st in PROVEN, (
            f"{context}: screen marked {label} independent but the "
            f"analysis says {st}"
        )
        assert cond == "TRUE", (
            f"{context}: screened loop {label} carries a non-trivial "
            f"condition {cond}"
        )


class TestSuiteSweep:
    def test_screen_never_beats_the_analysis(self):
        checked = 0
        for bench in all_programs():
            for tag, opts in OPTION_SETS:
                program = bench.fresh_program()
                checked += len(_screen_labels(program))
                _check_program(program, opts, f"{bench.name}/{tag}")
        assert checked > 0, "screen never fired — sweep is vacuous"


class TestFuzzSweep:
    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,  # a fixed seeded corpus: deterministic in CI
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
        ],
    )
    @given(programs())
    def test_screen_never_beats_the_analysis(self, case):
        source, _ = case
        _check_program(
            source, AnalysisOptions.predicated(), "fuzz\n" + source
        )
