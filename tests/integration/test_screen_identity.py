"""Byte-identity of experiment outputs with the dependence screen and
without it.

The tier-0 screen is a pure cost optimization: a loop it marks
independent must get exactly the decision the full predicated analysis
would have produced, so the formatted experiment outputs — the paper's
tables and figure — must match byte for byte between the screened and
the unscreened analysis (``tests/pipeline/unscreened.py``), from cold
caches *and* on a warm re-run (the warm path differs: screen rows are
cache entries of their own kind and screened units skip summarization
outright).  The screen must also not be dead code on the suite.
"""

from contextlib import nullcontext

from repro import perf
from repro.experiments import (
    fig1_examples,
    table1_loops,
    table2_programs,
    table3_categories,
)

from tests.pipeline.unscreened import unscreened


def _formatted(mode):
    perf.reset_all_caches()
    with mode:
        return [
            (
                table1_loops.run().format(),
                table2_programs.run().format(),
                table3_categories.run().format(),
                fig1_examples.run().format(),
            )
            for _ in ("cold", "warm")
        ]


def test_experiment_outputs_identical_screen_on_and_off():
    try:
        on_cold, on_warm = _formatted(nullcontext())
        off_cold, off_warm = _formatted(unscreened())
    finally:
        perf.reset_all_caches()
    assert on_cold == off_cold  # Table 1 / Table 2 / Table 3 / Figure 1
    assert on_warm == off_warm
    assert on_cold == on_warm  # warm replay is stable per mode


def test_screen_counters_fire_during_experiments():
    try:
        perf.reset_all_caches()
        perf.reset_counters()
        table2_programs.run()
        counters = perf.snapshot()["counters"]
    finally:
        perf.reset_all_caches()
    assert counters.get("screen.independent", 0) > 0
    assert counters.get("screen.saved_units", 0) > 0
    assert counters.get("screen.disagree", 0) == 0
