"""The documented top-level API surface."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

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


def _loaded_after(probe: str) -> set:
    """Top-level modules a fresh interpreter holds after *probe* runs."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        probe + "\nimport sys\n"
        "print(sorted({m.split('.')[0] for m in sys.modules}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(ast.literal_eval(out.strip().splitlines()[-1]))


class TestColdImports:
    def test_pipeline_import_loads_no_pool_machinery(self):
        """One program runs serially; the batch pools are imported
        lazily at the first batch, so a cold ``analyze`` never pays for
        ``concurrent.futures`` or ``multiprocessing``."""
        loaded = _loaded_after("import repro.pipeline")
        assert not loaded & {"concurrent", "multiprocessing"}

    def test_analysis_modules_load_no_numpy(self):
        """The analysis layers are pure Python; only the runtime's
        vector loops and bulk ELPD classification use NumPy."""
        loaded = _loaded_after("import repro.pipeline, repro.partests.driver")
        assert "numpy" not in loaded

    def test_cold_analyze_loads_no_numpy(self, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))
        spec = importlib.util.spec_from_file_location(
            "quickstart", os.path.join(root, "examples", "quickstart.py")
        )
        quickstart = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(quickstart)
        prog = tmp_path / "quickstart.f"
        prog.write_text(quickstart.SOURCE)
        loaded = _loaded_after(
            "import runpy, sys\n"
            f"sys.argv = ['repro', 'analyze', {str(prog)!r}]\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code"
        )
        assert "numpy" not in loaded


class TestNoFeatureSwitches:
    """Each layer has one implementation: no process-wide switch picks
    between an optimized path and a legacy one."""

    REMOVED = {
        "repro.perf": (
            "pred_oracle_enabled",
            "set_pred_oracle",
            "packed_kernel_enabled",
            "set_packed_kernel",
            "bytecode_enabled",
            "set_bytecode",
            "dep_screen_enabled",
            "set_dep_screen",
        ),
        "repro.pipeline": ("pipeline_enabled", "set_pipeline"),
        "repro.predicates.oracle": ("enabled", "set_enabled"),
    }

    def test_only_the_cache_dir_is_read_from_the_environment(self):
        src = Path(repro.__file__).parent
        names = set()
        for path in src.rglob("*.py"):
            names |= set(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
        assert names <= {"REPRO_CACHE_DIR"}

    def test_switch_functions_are_gone(self):
        for module, attrs in self.REMOVED.items():
            mod = importlib.import_module(module)
            for attr in attrs:
                assert not hasattr(mod, attr), f"{module}.{attr}"
