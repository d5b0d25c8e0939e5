"""The mini-Fortran interpreter's public surface.

Semantics follow Fortran-77 conventions where they matter to the
analysis:

* arrays are flat column-major storage, passed to subroutines by
  reference with sequence association (a ``real x(200)`` formal views a
  ``real a(10,20)`` actual);
* scalars are passed by value (the analysis relies on this);
* integer division truncates toward zero; ``mod`` matches Fortran MOD;
* an unset array element reads as ``0.0`` and an unset scalar as ``0``
  (deterministic, so analyses can be cross-checked against execution).

Hook points (``access_hook``, ``loop_hook``) drive the ELPD oracle and
the machine cost model without entangling them with evaluation.  When a
:class:`~repro.codegen.plan.ParallelPlan` is supplied, two-version loops
evaluate their derived run-time test on entry — exactly what generated
code would do — and report the outcome to the loop hook.

:class:`Interpreter` holds one run's state; the compile-once bytecode
engine (:mod:`repro.runtime.bytecode`) executes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.lang.astnodes import Program
from repro.runtime.values import ArrayStorage, RuntimeError_  # noqa: F401

Number = Union[int, float]


class _ReturnSignal(Exception):
    pass


@dataclass
class LoopEvent:
    """One dynamic loop instance (for tests and the machine model)."""

    label: str
    nid: int
    iterations: int
    ran_parallel_version: Optional[bool] = None  # two-version outcome


@dataclass
class ExecutionResult:
    outputs: List[str]
    steps: int
    main_arrays: Dict[str, Dict[int, float]]
    main_scalars: Dict[str, Number]
    loop_events: List[LoopEvent]


class Interpreter:
    """Executes one program on one input sequence."""

    def __init__(
        self,
        program: Program,
        inputs: Sequence[Number] = (),
        plan=None,
        access_hook: Optional[Callable[[str, ArrayStorage, int], None]] = None,
        loop_hook=None,
        max_steps: int = 10_000_000,
    ) -> None:
        self.program = program
        self.inputs = list(inputs)
        self._input_pos = 0
        self.plan = plan
        self.access_hook = access_hook
        self.loop_hook = loop_hook
        self.max_steps = max_steps
        self.steps = 0
        self.outputs: List[str] = []
        self.loop_events: List[LoopEvent] = []

    def run(self) -> ExecutionResult:
        from repro.runtime.bytecode import execute

        return execute(self)


def _fmt(value: Number) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_program(
    program: Program,
    inputs: Sequence[Number] = (),
    plan=None,
    max_steps: int = 10_000_000,
) -> ExecutionResult:
    """Convenience one-shot execution."""
    return Interpreter(program, inputs, plan=plan, max_steps=max_steps).run()
