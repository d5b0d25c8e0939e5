"""The documented top-level API surface."""

import pytest

import repro


class TestLazyExports:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing

    def test_quickstart_flow(self):
        program = repro.parse_program(
            "program t\ninteger n\nreal a(50)\nread n\n"
            "do i = 1, n\na(i) = 1.0\nenddo\nend\n"
        )
        result = repro.analyze_program(program)
        assert result.parallelized == 1
        text = repro.format_report(result)
        assert "PARALLEL" in text

    def test_run_and_oracle(self):
        program = repro.parse_program(
            "program t\ninteger n\nreal a(50)\nread n\n"
            "do i = 1, n\na(i) = i * 1.0\nenddo\nprint a(n)\nend\n"
        )
        execution = repro.run_program(program, [5])
        assert execution.outputs == ["5"]
        oracle = repro.run_oracle(program, [5])
        assert oracle.observations["t:L1"].classification == "independent"

    def test_options_configurations(self):
        base = repro.AnalysisOptions.base()
        pred = repro.AnalysisOptions.predicated()
        assert not base.predicates and pred.predicates
        assert base.scalar_propagation  # scalar analysis predates predicates


class TestColdImports:
    def test_pipeline_import_loads_no_pool_machinery(self):
        """One program runs serially; the batch pools are imported
        lazily at the first batch, so a cold ``analyze`` never pays for
        ``concurrent.futures`` or ``multiprocessing``."""
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, repro.pipeline; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('concurrent', 'multiprocessing')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == "[]"
