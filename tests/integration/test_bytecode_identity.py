"""Bit-identity of every suite program against the reference runtime.

For each of the suite programs (the paper's benchmark set) the full
``ExecutionResult`` of the bytecode engine — printed output, step count,
final scalar and array state down to the IEEE-754 bit pattern, and the
loop-event stream including two-version dispatch outcomes under a real
``ParallelPlan`` — must match the reference tree walker
(``tests/runtime/reference.py``) exactly, and the ELPD / combined-oracle
reports (the dynamic ground truth the paper's tables compare against)
must match the reference dict-shadow ELPD too.
"""

import struct

import pytest

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.codegen.plan import build_plan
from repro.partests.driver import analyze_program
from repro.runtime.elpd import run_elpd, run_oracle
from repro.runtime.interp import Interpreter
from repro.suites import all_programs

from tests.runtime.reference import (
    TreeInterpreter,
    run_elpd_reference,
    run_oracle_reference,
)

PROGRAMS = [b.name for b in all_programs()]


def _bits(value):
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return ("i", value)


def _facts(result):
    return {
        "outputs": result.outputs,
        "steps": result.steps,
        "scalars": {n: _bits(v) for n, v in result.main_scalars.items()},
        "scalar_order": list(result.main_scalars),
        "arrays": {
            name: sorted((off, _bits(v)) for off, v in cells.items())
            for name, cells in result.main_arrays.items()
        },
        "loop_events": [
            (e.label, e.nid, e.iterations, e.ran_parallel_version)
            for e in result.loop_events
        ],
    }


def _cold(fn):
    perf.reset_all_caches()
    return fn()


def _report_facts(report):
    return {
        "steps": report.steps,
        "observations": {
            label: (
                obs.classification,
                obs.instances,
                obs.total_iterations,
                sorted(obs.conflict_arrays),
                sorted(obs.flow_arrays),
            )
            for label, obs in report.observations.items()
        },
    }


@pytest.mark.parametrize("name", PROGRAMS)
def test_execution_identity(name):
    bench = next(b for b in all_programs() if b.name == name)
    program = bench.fresh_program()
    plan = build_plan(analyze_program(program, AnalysisOptions.predicated()))

    plain = [
        _cold(lambda: _facts(engine(program, bench.inputs).run()))
        for engine in (Interpreter, TreeInterpreter)
    ]
    assert plain[0] == plain[1], f"{name}: plain run diverged"

    planned = [
        _cold(lambda: _facts(engine(program, bench.inputs, plan=plan).run()))
        for engine in (Interpreter, TreeInterpreter)
    ]
    assert planned[0] == planned[1], f"{name}: planned run diverged"


@pytest.mark.parametrize("name", PROGRAMS)
def test_oracle_identity(name):
    bench = next(b for b in all_programs() if b.name == name)
    elpd = [
        _cold(lambda: _report_facts(fn(bench.fresh_program(), bench.inputs)))
        for fn in (run_elpd, run_elpd_reference)
    ]
    assert elpd[0] == elpd[1], f"{name}: ELPD report diverged"

    oracle = [
        _cold(lambda: _report_facts(fn(bench.fresh_program(), bench.inputs)))
        for fn in (run_oracle, run_oracle_reference)
    ]
    assert oracle[0] == oracle[1], f"{name}: oracle report diverged"
