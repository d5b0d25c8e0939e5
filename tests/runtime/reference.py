"""Reference semantics for the runtime differential tests.

:class:`TreeInterpreter` is a plain tree-walking interpreter: it
re-examines every AST node on every execution, which makes it slow but
easy to check by eye against the language rules in
:mod:`repro.runtime.interp`.  :func:`run_elpd_reference` runs ELPD on it
with a per-element dict shadow (:class:`_ElementState` /
:class:`_ActiveInstance`) instead of the packed columns.  The bytecode
engine and the packed shadow are pinned against these by direct calls
(``test_bytecode.py``, ``test_bytecode_fuzz.py`` and
``tests/integration/test_bytecode_identity.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lang.astnodes import (
    ASSUMED,
    ArrayRef,
    Assign,
    BinOp,
    Call,
    DoLoop,
    Expr,
    If,
    Intrinsic,
    Num,
    PrintStmt,
    Program,
    ReadStmt,
    Return,
    Stmt,
    Subroutine,
    UnOp,
    VarRef,
)
from repro.runtime import elpd
from repro.runtime.interp import (
    ExecutionResult,
    Interpreter,
    LoopEvent,
    Number,
    _fmt,
    _ReturnSignal,
)
from repro.runtime.values import ArrayStorage, RuntimeError_


@dataclass
class Frame:
    unit: Subroutine
    scalars: Dict[str, Number] = field(default_factory=dict)
    arrays: Dict[str, ArrayStorage] = field(default_factory=dict)


class TreeInterpreter(Interpreter):
    """The tree walker: same state and hooks as :class:`Interpreter`,
    evaluated node by node."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._cond_cache: Dict[int, Expr] = {}

    def run(self) -> ExecutionResult:
        main = self.program.main_unit
        frame = self._new_frame(main, [], [])
        try:
            self._exec_body(main.body, frame)
        except _ReturnSignal:
            pass
        return ExecutionResult(
            outputs=self.outputs,
            steps=self.steps,
            main_arrays={
                name: arr.snapshot() for name, arr in frame.arrays.items()
            },
            main_scalars=dict(frame.scalars),
            loop_events=self.loop_events,
        )

    # ------------------------------------------------------------------
    # frames and calls
    # ------------------------------------------------------------------
    def _new_frame(
        self,
        unit: Subroutine,
        scalar_args: List[Tuple[str, Number]],
        array_args: List[Tuple[str, ArrayStorage]],
    ) -> Frame:
        frame = Frame(unit)
        for name, value in scalar_args:
            frame.scalars[name] = value
        passed_arrays = {name for name, _ in array_args}
        # resolve declared extents (may reference parameter scalars)
        for name, decl in unit.decls.items():
            if not decl.is_array:
                continue
            extents: List[Optional[int]] = []
            for d in decl.dims:
                if d == ASSUMED:
                    extents.append(None)
                else:
                    extents.append(int(self._eval(d, frame)))
            if name in passed_arrays:
                actual = dict(array_args)[name]
                frame.arrays[name] = actual.view(name, extents)
            else:
                frame.arrays[name] = ArrayStorage(name, extents, decl.typ)
        return frame

    def _do_call(self, stmt: Call, frame: Frame) -> None:
        callee = self.program.units[stmt.name]
        scalar_args: List[Tuple[str, Number]] = []
        array_args: List[Tuple[str, ArrayStorage]] = []
        for formal, actual in zip(callee.params, stmt.args):
            formal_decl = callee.decls.get(formal)
            formal_is_array = formal_decl is not None and formal_decl.is_array
            if formal_is_array:
                if not (
                    isinstance(actual, VarRef) and actual.name in frame.arrays
                ):
                    raise RuntimeError_(
                        f"call {stmt.name}: formal array {formal!r} needs a "
                        f"whole-array actual"
                    )
                array_args.append((formal, frame.arrays[actual.name]))
            else:
                scalar_args.append((formal, self._eval(actual, frame)))
        callee_frame = self._new_frame(callee, scalar_args, array_args)
        try:
            self._exec_body(callee.body, callee_frame)
        except _ReturnSignal:
            pass

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _exec_body(self, body: List[Stmt], frame: Frame) -> None:
        for stmt in body:
            self._exec_stmt(stmt, frame)

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise RuntimeError_(f"step budget exceeded ({self.max_steps})")

    def _exec_stmt(self, stmt: Stmt, frame: Frame) -> None:
        self._tick()
        if isinstance(stmt, Assign):
            value = self._eval(stmt.value, frame)
            if isinstance(stmt.target, VarRef):
                decl = frame.unit.decls.get(stmt.target.name)
                if decl is not None and decl.typ == "integer":
                    value = int(value)
                frame.scalars[stmt.target.name] = value
            else:
                subs = [int(self._eval(s, frame)) for s in stmt.target.subscripts]
                arr = self._array(stmt.target.name, frame)
                off = arr.store(subs, float(value))
                if self.access_hook is not None:
                    self.access_hook("w", arr, off)
            return
        if isinstance(stmt, DoLoop):
            self._exec_loop(stmt, frame)
            return
        if isinstance(stmt, If):
            if self._truthy(self._eval(stmt.cond, frame)):
                self._exec_body(stmt.then_body, frame)
            else:
                self._exec_body(stmt.else_body, frame)
            return
        if isinstance(stmt, Call):
            self._do_call(stmt, frame)
            return
        if isinstance(stmt, ReadStmt):
            for name in stmt.names:
                if self._input_pos >= len(self.inputs):
                    raise RuntimeError_(
                        f"read {name}: input exhausted at position "
                        f"{self._input_pos}"
                    )
                value = self.inputs[self._input_pos]
                self._input_pos += 1
                decl = frame.unit.decls.get(name)
                if decl is not None and decl.typ == "integer":
                    value = int(value)
                frame.scalars[name] = value
            return
        if isinstance(stmt, PrintStmt):
            parts = []
            for a in stmt.args:
                if hasattr(a, "text"):
                    parts.append(a.text)
                else:
                    parts.append(_fmt(self._eval(a, frame)))
            self.outputs.append(" ".join(parts))
            return
        if isinstance(stmt, Return):
            raise _ReturnSignal()
        raise RuntimeError_(f"cannot execute {stmt!r}")

    def _exec_loop(self, stmt: DoLoop, frame: Frame) -> None:
        lo = int(self._eval(stmt.lo, frame))
        hi = int(self._eval(stmt.hi, frame))
        step = int(self._eval(stmt.step, frame)) if stmt.step is not None else 1
        if step == 0:
            raise RuntimeError_(f"loop {stmt.label}: zero step")

        ran_parallel: Optional[bool] = None
        lp = self.plan.plan_for(stmt) if self.plan is not None else None
        if lp is not None and lp.mode == "two_version":
            cond = self._cond_cache.get(stmt.nid)
            if cond is None:
                from repro.codegen.twoversion import predicate_to_expr

                cond = predicate_to_expr(lp.runtime_pred)
                self._cond_cache[stmt.nid] = cond
            ran_parallel = self._truthy(self._eval(cond, frame))
        elif lp is not None and lp.mode == "parallel":
            ran_parallel = True

        token = None
        if self.loop_hook is not None:
            token = self.loop_hook.enter_loop(stmt, frame, ran_parallel)

        iterations = 0
        i = lo
        while (step > 0 and i <= hi) or (step < 0 and i >= hi):
            frame.scalars[stmt.var] = i
            iterations += 1
            if self.loop_hook is not None:
                self.loop_hook.iter_start(token, i)
            self._exec_body(stmt.body, frame)
            i += step
        frame.scalars[stmt.var] = i  # Fortran: index holds past-the-end

        if self.loop_hook is not None:
            self.loop_hook.exit_loop(token)
        self.loop_events.append(
            LoopEvent(stmt.label, stmt.nid, iterations, ran_parallel)
        )

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _array(self, name: str, frame: Frame) -> ArrayStorage:
        arr = frame.arrays.get(name)
        if arr is None:
            raise RuntimeError_(f"unknown array {name!r}")
        return arr

    def _truthy(self, value: Number) -> bool:
        return bool(value)

    def _eval(self, expr: Expr, frame: Frame) -> Number:
        if isinstance(expr, Num):
            return expr.value
        if isinstance(expr, VarRef):
            return frame.scalars.get(expr.name, 0)
        if isinstance(expr, ArrayRef):
            subs = [int(self._eval(s, frame)) for s in expr.subscripts]
            arr = self._array(expr.name, frame)
            off = arr.offset(subs)
            if self.access_hook is not None:
                self.access_hook("r", arr, off)
            return arr.data.get(off, 0.0)
        if isinstance(expr, UnOp):
            v = self._eval(expr.operand, frame)
            if expr.op == "-":
                return -v
            return 0 if self._truthy(v) else 1  # not
        if isinstance(expr, Intrinsic):
            args = [self._eval(a, frame) for a in expr.args]
            if expr.name == "mod":
                a, b = args
                if b == 0:
                    raise RuntimeError_("mod with zero divisor")
                if isinstance(a, int) and isinstance(b, int):
                    return int(math.fmod(a, b))
                return math.fmod(a, b)
            if expr.name == "min":
                return min(args)
            if expr.name == "max":
                return max(args)
            if expr.name == "abs":
                return abs(args[0])
            raise RuntimeError_(f"unknown intrinsic {expr.name!r}")
        if isinstance(expr, BinOp):
            op = expr.op
            if op == "and":
                return (
                    1
                    if self._truthy(self._eval(expr.left, frame))
                    and self._truthy(self._eval(expr.right, frame))
                    else 0
                )
            if op == "or":
                return (
                    1
                    if self._truthy(self._eval(expr.left, frame))
                    or self._truthy(self._eval(expr.right, frame))
                    else 0
                )
            a = self._eval(expr.left, frame)
            b = self._eval(expr.right, frame)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if b == 0:
                    raise RuntimeError_("division by zero")
                if isinstance(a, int) and isinstance(b, int):
                    return int(a / b)  # Fortran truncation toward zero
                return a / b
            if op == "**":
                return a ** b
            if op == "<":
                return 1 if a < b else 0
            if op == "<=":
                return 1 if a <= b else 0
            if op == ">":
                return 1 if a > b else 0
            if op == ">=":
                return 1 if a >= b else 0
            if op == "==":
                return 1 if a == b else 0
            if op == "!=":
                return 1 if a != b else 0
            raise RuntimeError_(f"unknown operator {op!r}")
        raise RuntimeError_(f"cannot evaluate {expr!r}")


class _ElementState:
    """Shadow state of one array element within one loop instance."""

    __slots__ = (
        "first_ord",
        "last_access_ord",
        "last_write_ord",
        "any_write",
        "multi_ord",
        "flow",
    )

    def __init__(self) -> None:
        self.first_ord = -1
        self.last_access_ord = -1
        self.last_write_ord = -1
        self.any_write = False
        self.multi_ord = False
        self.flow = False

    def access(self, kind: str, ord_: int) -> None:
        if self.first_ord < 0:
            self.first_ord = ord_
        first_in_ord = ord_ != self.last_access_ord
        if first_in_ord and kind == "r" and 0 <= self.last_write_ord < ord_:
            # this iteration's first touch reads a value some earlier
            # iteration wrote: cross-iteration flow
            self.flow = True
        if self.last_access_ord >= 0 and ord_ != self.first_ord:
            self.multi_ord = True
        self.last_access_ord = ord_
        if kind == "w":
            self.any_write = True
            self.last_write_ord = ord_

    @property
    def conflicts(self) -> bool:
        return self.multi_ord and self.any_write


class _ActiveInstance:
    """One dynamic execution of an instrumented loop."""

    __slots__ = ("label", "ordinal", "elements", "array_of")

    def __init__(self, label: str) -> None:
        self.label = label
        self.ordinal = -1
        self.elements: Dict[Tuple[int, int], _ElementState] = {}
        self.array_of: Dict[int, str] = {}

    def record(self, kind: str, storage: ArrayStorage, offset: int) -> None:
        if self.ordinal < 0:
            return  # access outside any iteration (loop bounds eval)
        key = (id(storage.data), offset)
        state = self.elements.get(key)
        if state is None:
            state = _ElementState()
            self.elements[key] = state
            self.array_of[id(storage.data)] = storage.name
        state.access(kind, self.ordinal)

    def classify(self) -> Tuple[str, Set[str], Set[str]]:
        conflict_arrays: Set[str] = set()
        flow_arrays: Set[str] = set()
        for (buf, _off), st in self.elements.items():
            if st.flow:
                flow_arrays.add(self.array_of[buf])
            elif st.conflicts:
                conflict_arrays.add(self.array_of[buf])
        if flow_arrays:
            return "dependent", conflict_arrays, flow_arrays
        if conflict_arrays:
            return "privatizable", conflict_arrays, flow_arrays
        return "independent", conflict_arrays, flow_arrays

    def release(self) -> None:
        """Nothing pooled (interface parity with the packed shadow)."""


class _ReferenceHook(elpd._ElpdHook):
    shadow = _ActiveInstance


def run_elpd_reference(
    program: Program,
    inputs: Sequence[Number] = (),
    target_labels: Optional[Sequence[str]] = None,
    max_steps: int = 10_000_000,
) -> elpd.ElpdReport:
    """:func:`repro.runtime.elpd.run_elpd` on the tree walker with the
    dict shadow."""
    targets = set(target_labels) if target_labels is not None else None
    hook = _ReferenceHook(targets)
    result = TreeInterpreter(
        program,
        inputs,
        access_hook=hook.record_access,
        loop_hook=hook,
        max_steps=max_steps,
    ).run()
    hook.report.steps = result.steps
    if targets is not None:
        for label in targets:
            hook.report.observations.setdefault(
                label, elpd.LoopObservation(label)
            )
    return hook.report


def run_oracle_reference(
    program: Program, inputs: Sequence[Number] = ()
) -> elpd.ElpdReport:
    """:func:`repro.runtime.elpd.run_oracle` on the reference ELPD."""
    report = run_elpd_reference(program, inputs)
    for label, names in elpd.static_scalar_obstacles(program).items():
        obs = report.observations.get(label)
        if obs is not None:
            obs.classification = "dependent"
            obs.flow_arrays |= {f"<scalar:{n}>" for n in names}
    return report
