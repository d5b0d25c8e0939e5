"""Smoke + shape tests for the experiment harnesses.

The benchmarks assert the paper claims in full; these tests keep each
harness importable, runnable and structurally sane in the normal test
run (which skips the heavy full-suite passes where possible).
"""

import pytest

from repro import perf
from repro.experiments import fig1_examples, fig_overhead
from repro.experiments.common import format_table, percent


class TestCommon:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1], ["longer", 22]])
        lines = text.split("\n")
        assert len(lines) == 4
        header, rule, r1, r2 = lines
        assert len(rule) == len(header)
        assert "longer" in r2

    def test_format_table_with_title(self):
        text = format_table(["a"], [["x"]], title="T")
        assert text.startswith("T\n")

    def test_format_table_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text

    def test_percent(self):
        assert percent(1, 2) == "50%"
        assert percent(0, 0) == "-"


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1_examples.run()

    def test_all_examples_present(self, result):
        assert set(result.statuses) == {"fig1a", "fig1b", "fig1c", "fig1d"}

    def test_base_always_serial(self, result):
        for statuses in result.statuses.values():
            assert statuses["base"] == "serial"

    def test_predicated_always_wins(self, result):
        for statuses in result.statuses.values():
            assert statuses["predicated"] in (
                "parallel",
                "parallel_private",
                "runtime",
            )

    def test_runtime_examples_have_tests(self, result):
        assert "fig1b" in result.runtime_tests
        assert "fig1d" in result.runtime_tests

    def test_format_renders(self, result):
        text = result.format()
        assert "fig1a" in text and "fig1d" in text


class TestTableHarnessesOnSubset:
    """Exercise the row machinery on a couple of programs (the full
    sweep runs in benchmarks/)."""

    def test_table1_row_counting(self):
        from repro.experiments.table1_loops import ProgramRow, Table1

        t = Table1(
            rows=[
                ProgramRow("p1", "nas", 10, 9, 5, 4, 2, 1, 1),
                ProgramRow("p2", "nas", 6, 6, 3, 3, 1, 0, 1),
            ]
        )
        total = t.totals()
        assert total.loops == 16
        assert total.base_parallel == 8
        assert total.pred_additional == 3
        nas_total = t.totals("nas")
        assert nas_total.candidates == 15
        assert "TAB1" in t.format()

    def test_table3_totals(self):
        from repro.experiments.table3_categories import Table3

        t = Table3(counts={"boundary": [2, 1], "reshape": [0, 2]})
        assert t.total() == (2, 3)
        assert "TAB3" in t.format()

    def test_speedup_curve(self):
        from repro.machine.speedup import SpeedupCurve

        c = SpeedupCurve("x", {1: 1.0, 8: 4.0})
        assert c.at(8) == 4.0
        assert c.best() == 4.0


class TestFigOverhead:
    def test_run_keeps_earlier_counters(self):
        """FIGO measures each cold analysis as a rise in ``total_ops``;
        it must not wipe what the process counted before it (a
        ``--profile`` run of ``experiments all`` reports it)."""
        name = "budget.degraded_loop"  # FIGO runs unbudgeted
        perf.bump(name, 3)
        before = perf.counter(name)
        fig_overhead.run()
        assert perf.counter(name) == before

