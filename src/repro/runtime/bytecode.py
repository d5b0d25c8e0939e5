"""Compile-once bytecode runtime for the mini-Fortran interpreter.

A tree-walking interpreter re-examines every AST node on every
execution — ``isinstance`` dispatch, operator string compares,
per-access ``ArrayStorage.offset`` calls.  This module instead
lowers each :class:`~repro.lang.astnodes.Subroutine` **once** into a
compact instruction form — a flat list of pre-bound closures with

* constant-folded operand slots,
* array slots resolved to per-frame registers (no per-access dict
  lookup of the storage object),
* inlined column-major offset/bounds computation for rank-1/rank-2
  references,
* pre-bound intrinsic and operator handlers (no string dispatch),
* loop trip counts computed once per dynamic loop instance,

and caches the compiled unit in the ``rt.bytecode`` memo table
(registered with :mod:`repro.perf`, so ``reset_all_caches`` drops it).

Where a ``DoLoop`` body is straight-line (array assignments only, no
scalar carry) with affine subscripts, the loop additionally compiles a
NumPy-vectorized program that executes the whole iteration space as
array operations (:class:`_VecLoop`).  The vectorized path is attempted
only when NumPy is installed and every safety precondition verifies at
loop entry — integer affine subscripts, in-bounds at both endpoints,
injective write offsets, no cross-name buffer aliasing, step budget not
exceeded — and otherwise falls back to the scalar instruction loop,
which reproduces the statement-at-a-time semantics (including the exact
error at the exact iteration).

Contract: every :class:`~repro.runtime.interp.ExecutionResult` —
outputs, step count, final scalars and array snapshots, loop events
including two-version outcomes — and every hook-observable event
sequence equals the reference tree walker's
(``tests/runtime/reference.py``).  ``tests/runtime/test_bytecode_fuzz.py``
and ``tests/integration/test_bytecode_identity.py`` pin this
differentially.

Hook dispatch is *compiled in only when requested*: the engine compiles
one unit variant per ``(access_hook?, loop_hook?)`` configuration, so
an uninstrumented run pays zero per-access hook branches.

Known vectorization fallback conditions are documented in
``docs/PERF.md`` ("The bytecode runtime").
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable, Dict, List, Optional, Tuple

from repro import perf
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
    walk_exprs,
)
from repro.runtime.interp import (
    ExecutionResult,
    LoopEvent,
    _fmt,
    _ReturnSignal,
)
from repro.runtime.values import ArrayStorage, RuntimeError_

try:  # pragma: no cover - exercised implicitly everywhere
    import numpy as _np
except Exception:  # pragma: no cover - environment without numpy
    _np = None

#: minimum trip count before the vectorized program is worth the
#: entry-time checks (tiny loops run the scalar instructions)
_VEC_MIN_TRIPS = 8

perf.declare("rt.compile_unit")
perf.declare("rt.vec_loop")
perf.declare("rt.vec_fallback")

#: compiled-unit cache: (id(unit), access_hooked, loop_hooked) -> code.
#: Each entry holds a strong reference to its unit (``code.unit``), so a
#: live entry's id() key cannot be reused; hits re-verify identity
#: anyway, which also covers keys resurrected after a registry reset.
#: The table is dropped wholesale once it grows past the cap (compiling
#: is cheap relative to running).
_code_memo = perf.memo_table("rt.bytecode")
_CODE_MEMO_CAP = 512


class _State:
    """Mutable per-run execution state shared by all compiled closures."""

    __slots__ = (
        "program",
        "inputs",
        "input_pos",
        "plan",
        "access_hook",
        "loop_hook",
        "max_steps",
        "steps",
        "outputs",
        "loop_events",
        "cond_cache",
        "interp",
    )


class _FrameProxy:
    """Frame-shaped view handed to loop hooks (built lazily, hooked
    variants only).  ``scalars`` is the live scalar dict; ``arrays``
    materializes the name -> storage mapping on demand."""

    __slots__ = ("unit", "scalars", "_ar", "_code")

    def __init__(self, code: "_CompiledUnit", sc: dict, ar: list) -> None:
        self.unit = code.unit
        self.scalars = sc
        self._ar = ar
        self._code = code

    @property
    def arrays(self) -> Dict[str, ArrayStorage]:
        return {
            name: self._ar[slot]
            for slot, name, _typ, _dims in self._code.array_specs
        }


class _CompiledUnit:
    """One unit lowered to instruction form for one hook variant."""

    __slots__ = ("unit", "ops", "array_specs", "narrays", "aslot")

    def __init__(self, unit: Subroutine) -> None:
        self.unit = unit
        self.ops: List[Callable] = []
        #: (slot, name, typ, dim closures) in declaration order
        self.array_specs: List[Tuple[int, str, str, list]] = []
        self.narrays = 0
        self.aslot: Dict[str, int] = {}

    def make_frame_arrays(
        self, st: _State, sc: dict, passed: Optional[list] = None
    ) -> list:
        """Resolve declared extents and build the per-frame array slots
        (the compiled analogue of ``Interpreter._new_frame``)."""
        ar: list = [None] * self.narrays
        for slot, name, typ, dims in self.array_specs:
            extents = [
                None if d is None else int(d(st, sc, ar)) for d in dims
            ]
            actual = passed[slot] if passed is not None else None
            if actual is not None:
                ar[slot] = actual.view(name, extents)
            else:
                ar[slot] = ArrayStorage(name, extents, typ)
        return ar


class _Ctx:
    """Compile-time context for one (unit, hook variant)."""

    __slots__ = (
        "unit",
        "program",
        "access_hooked",
        "loop_hooked",
        "aslot",
        "int_typed",
        "array_rank",
        "code",
    )

    def __init__(
        self, unit: Subroutine, program: Program, variant: Tuple[bool, bool]
    ) -> None:
        self.unit = unit
        self.program = program
        self.access_hooked, self.loop_hooked = variant
        self.aslot: Dict[str, int] = {}
        self.array_rank: Dict[str, int] = {}
        self.code: Optional[_CompiledUnit] = None
        # the tree walker coerces on `decl.typ == "integer"` regardless
        # of arrayness, so an integer *array* decl still coerces a
        # same-named scalar assignment/read target
        self.int_typed = {
            name for name, d in unit.decls.items() if d.typ == "integer"
        }
        for name, decl in unit.decls.items():
            if decl.is_array:
                self.aslot[name] = len(self.aslot)
                self.array_rank[name] = decl.rank

    @property
    def variant(self) -> Tuple[bool, bool]:
        return (self.access_hooked, self.loop_hooked)


def _tick(st: _State) -> None:
    st.steps += 1
    if st.steps > st.max_steps:
        raise RuntimeError_(f"step budget exceeded ({st.max_steps})")


# ----------------------------------------------------------------------
# expression compilation
# ----------------------------------------------------------------------
#: sentinel marking "not a compile-time constant"
_NOCONST = object()


def _const_fn(value):
    return lambda st, sc, ar: value


def _truthy(value) -> bool:
    return bool(value)


def _subscript_ops(ctx: _Ctx, ref: ArrayRef) -> List[Callable]:
    return [_compile_expr(s, ctx)[0] for s in ref.subscripts]


def _offset_fn(ctx: _Ctx, ref: ArrayRef) -> Callable:
    """Compile ``ref`` to a closure returning ``(storage, flat offset)``
    with the tree walker's exact evaluation order and error messages:
    subscripts first, then the storage lookup, then per-dimension
    bounds checks (inlined for ranks 1 and 2)."""
    name = ref.name
    subs = _subscript_ops(ctx, ref)
    slot = ctx.aslot.get(name)

    if slot is None:
        def missing(st, sc, ar, subs=subs, name=name):
            for s in subs:
                int(s(st, sc, ar))
            raise RuntimeError_(f"unknown array {name!r}")
        return missing

    rank = ctx.array_rank[name]
    if len(subs) != rank:
        nsubs = len(subs)

        def badrank(st, sc, ar, subs=subs, slot=slot, name=name):
            for s in subs:
                int(s(st, sc, ar))
            arr = ar[slot]
            if arr is None:
                raise RuntimeError_(f"unknown array {name!r}")
            raise RuntimeError_(
                f"array {arr.name}: {nsubs} subscripts for "
                f"rank {len(arr.extents)}"
            )
        return badrank

    if rank == 1:
        s0 = subs[0]

        def off1(st, sc, ar, s0=s0, slot=slot, name=name):
            i0 = int(s0(st, sc, ar))
            arr = ar[slot]
            if arr is None:
                raise RuntimeError_(f"unknown array {name!r}")
            e0 = arr.extents[0]
            if e0 is not None:
                if not 1 <= i0 <= e0:
                    raise RuntimeError_(
                        f"array {arr.name}: subscript {i0} out of bounds "
                        f"1..{e0} in dimension 1"
                    )
            elif i0 < 1:
                raise RuntimeError_(
                    f"array {arr.name}: subscript {i0} < 1 in assumed "
                    f"dimension 1"
                )
            return arr, i0 - 1
        return off1

    if rank == 2:
        s0, s1 = subs

        def off2(st, sc, ar, s0=s0, s1=s1, slot=slot, name=name):
            i0 = int(s0(st, sc, ar))
            i1 = int(s1(st, sc, ar))
            arr = ar[slot]
            if arr is None:
                raise RuntimeError_(f"unknown array {name!r}")
            e0, e1 = arr.extents
            if e0 is not None:
                if not 1 <= i0 <= e0:
                    raise RuntimeError_(
                        f"array {arr.name}: subscript {i0} out of bounds "
                        f"1..{e0} in dimension 1"
                    )
                stride = e0
            else:
                if i0 < 1:
                    raise RuntimeError_(
                        f"array {arr.name}: subscript {i0} < 1 in assumed "
                        f"dimension 1"
                    )
                stride = 1
            if e1 is not None:
                if not 1 <= i1 <= e1:
                    raise RuntimeError_(
                        f"array {arr.name}: subscript {i1} out of bounds "
                        f"1..{e1} in dimension 2"
                    )
            elif i1 < 1:
                raise RuntimeError_(
                    f"array {arr.name}: subscript {i1} < 1 in assumed "
                    f"dimension 2"
                )
            return arr, (i0 - 1) + (i1 - 1) * stride
        return off2

    def offn(st, sc, ar, subs=subs, slot=slot, name=name):
        vals = [int(s(st, sc, ar)) for s in subs]
        arr = ar[slot]
        if arr is None:
            raise RuntimeError_(f"unknown array {name!r}")
        return arr, arr.offset(vals)
    return offn


def _compile_intrinsic(expr: Intrinsic, ctx: _Ctx):
    fns = [_compile_expr(a, ctx) for a in expr.args]
    arg_fns = [f for f, _c in fns]
    consts = [c for _f, c in fns]
    name = expr.name

    if name == "mod":
        if len(arg_fns) == 2:
            f0, f1 = arg_fns

            def mod(st, sc, ar):
                a = f0(st, sc, ar)
                b = f1(st, sc, ar)
                if b == 0:
                    raise RuntimeError_("mod with zero divisor")
                if isinstance(a, int) and isinstance(b, int):
                    return int(math.fmod(a, b))
                return math.fmod(a, b)
            fn = mod
        else:  # arity error surfaces at evaluation, as in the walker
            def mod_bad(st, sc, ar):
                args = [f(st, sc, ar) for f in arg_fns]
                a, b = args
                raise RuntimeError_("mod with zero divisor")
            fn = mod_bad
    elif name == "min":
        if len(arg_fns) == 2:
            f0, f1 = arg_fns
            fn = lambda st, sc, ar: min(f0(st, sc, ar), f1(st, sc, ar))
        else:
            fn = lambda st, sc, ar: min([f(st, sc, ar) for f in arg_fns])
    elif name == "max":
        if len(arg_fns) == 2:
            f0, f1 = arg_fns
            fn = lambda st, sc, ar: max(f0(st, sc, ar), f1(st, sc, ar))
        else:
            fn = lambda st, sc, ar: max([f(st, sc, ar) for f in arg_fns])
    elif name == "abs":
        def fn(st, sc, ar):
            args = [f(st, sc, ar) for f in arg_fns]
            return abs(args[0])
    else:
        def fn(st, sc, ar):
            for f in arg_fns:
                f(st, sc, ar)
            raise RuntimeError_(f"unknown intrinsic {name!r}")
        return fn, _NOCONST

    if all(c is not _NOCONST for c in consts):
        try:
            folded = fn(None, None, None)
        except Exception:  # fold only total expressions; errors stay runtime
            return fn, _NOCONST
        return _const_fn(folded), folded
    return fn, _NOCONST


def _compile_binop(expr: BinOp, ctx: _Ctx):
    op = expr.op
    lf, lc = _compile_expr(expr.left, ctx)
    rf, rc = _compile_expr(expr.right, ctx)

    if op == "and":
        fn = lambda st, sc, ar: (
            1 if _truthy(lf(st, sc, ar)) and _truthy(rf(st, sc, ar)) else 0
        )
    elif op == "or":
        fn = lambda st, sc, ar: (
            1 if _truthy(lf(st, sc, ar)) or _truthy(rf(st, sc, ar)) else 0
        )
    elif op == "+":
        fn = lambda st, sc, ar: lf(st, sc, ar) + rf(st, sc, ar)
    elif op == "-":
        fn = lambda st, sc, ar: lf(st, sc, ar) - rf(st, sc, ar)
    elif op == "*":
        fn = lambda st, sc, ar: lf(st, sc, ar) * rf(st, sc, ar)
    elif op == "/":
        def fn(st, sc, ar):
            a = lf(st, sc, ar)
            b = rf(st, sc, ar)
            if b == 0:
                raise RuntimeError_("division by zero")
            if isinstance(a, int) and isinstance(b, int):
                return int(a / b)  # Fortran truncation toward zero
            return a / b
    elif op == "**":
        fn = lambda st, sc, ar: lf(st, sc, ar) ** rf(st, sc, ar)
    elif op == "<":
        fn = lambda st, sc, ar: 1 if lf(st, sc, ar) < rf(st, sc, ar) else 0
    elif op == "<=":
        fn = lambda st, sc, ar: 1 if lf(st, sc, ar) <= rf(st, sc, ar) else 0
    elif op == ">":
        fn = lambda st, sc, ar: 1 if lf(st, sc, ar) > rf(st, sc, ar) else 0
    elif op == ">=":
        fn = lambda st, sc, ar: 1 if lf(st, sc, ar) >= rf(st, sc, ar) else 0
    elif op == "==":
        fn = lambda st, sc, ar: 1 if lf(st, sc, ar) == rf(st, sc, ar) else 0
    elif op == "!=":
        fn = lambda st, sc, ar: 1 if lf(st, sc, ar) != rf(st, sc, ar) else 0
    else:
        def fn(st, sc, ar):
            lf(st, sc, ar)
            rf(st, sc, ar)
            raise RuntimeError_(f"unknown operator {op!r}")
        return fn, _NOCONST

    if lc is not _NOCONST and rc is not _NOCONST:
        try:
            folded = fn(None, None, None)
        except Exception:  # fold only total expressions; errors stay runtime
            return fn, _NOCONST
        return _const_fn(folded), folded
    return fn, _NOCONST


def _compile_expr(expr: Expr, ctx: _Ctx):
    """Compile to ``(closure, const)`` — *const* is the folded value
    when the whole subtree is a compile-time constant, else _NOCONST."""
    if isinstance(expr, Num):
        v = expr.value
        return _const_fn(v), v
    if isinstance(expr, VarRef):
        name = expr.name
        return (lambda st, sc, ar: sc.get(name, 0)), _NOCONST
    if isinstance(expr, ArrayRef):
        off = _offset_fn(ctx, expr)
        if ctx.access_hooked:
            def readh(st, sc, ar, off=off):
                arr, o = off(st, sc, ar)
                st.access_hook("r", arr, o)
                return arr.data.get(o, 0.0)
            return readh, _NOCONST

        def read(st, sc, ar, off=off):
            arr, o = off(st, sc, ar)
            return arr.data.get(o, 0.0)
        return read, _NOCONST
    if isinstance(expr, UnOp):
        f, c = _compile_expr(expr.operand, ctx)
        if expr.op == "-":
            if c is not _NOCONST:
                return _const_fn(-c), -c
            return (lambda st, sc, ar: -f(st, sc, ar)), _NOCONST
        if c is not _NOCONST:
            v = 0 if _truthy(c) else 1
            return _const_fn(v), v
        return (lambda st, sc, ar: 0 if _truthy(f(st, sc, ar)) else 1), _NOCONST
    if isinstance(expr, Intrinsic):
        return _compile_intrinsic(expr, ctx)
    if isinstance(expr, BinOp):
        return _compile_binop(expr, ctx)

    def bad(st, sc, ar):
        raise RuntimeError_(f"cannot evaluate {expr!r}")
    return bad, _NOCONST


# ----------------------------------------------------------------------
# statement compilation
# ----------------------------------------------------------------------
def _compile_body(body: List[Stmt], ctx: _Ctx) -> List[Callable]:
    return [_compile_stmt(s, ctx) for s in body]


def _compile_stmt(stmt: Stmt, ctx: _Ctx) -> Callable:
    if isinstance(stmt, Assign):
        return _compile_assign(stmt, ctx)
    if isinstance(stmt, DoLoop):
        return _compile_do(stmt, ctx)
    if isinstance(stmt, If):
        return _compile_if(stmt, ctx)
    if isinstance(stmt, Call):
        return _compile_call(stmt, ctx)
    if isinstance(stmt, ReadStmt):
        return _compile_read(stmt, ctx)
    if isinstance(stmt, PrintStmt):
        return _compile_print(stmt, ctx)
    if isinstance(stmt, Return):
        def ret(st, sc, ar):
            _tick(st)
            raise _ReturnSignal()
        return ret

    def bad(st, sc, ar):
        _tick(st)
        raise RuntimeError_(f"cannot execute {stmt!r}")
    return bad


def _compile_assign(stmt: Assign, ctx: _Ctx) -> Callable:
    rhs, _c = _compile_expr(stmt.value, ctx)
    if isinstance(stmt.target, VarRef):
        name = stmt.target.name
        if name in ctx.int_typed:
            def assign_i(st, sc, ar):
                _tick(st)
                sc[name] = int(rhs(st, sc, ar))
            return assign_i

        def assign_s(st, sc, ar):
            _tick(st)
            sc[name] = rhs(st, sc, ar)
        return assign_s

    off = _offset_fn(ctx, stmt.target)
    if ctx.access_hooked:
        def assign_ah(st, sc, ar):
            _tick(st)
            v = rhs(st, sc, ar)
            arr, o = off(st, sc, ar)
            arr.data[o] = float(v)
            st.access_hook("w", arr, o)
        return assign_ah

    def assign_a(st, sc, ar):
        _tick(st)
        v = rhs(st, sc, ar)
        arr, o = off(st, sc, ar)
        arr.data[o] = float(v)
    return assign_a


def _compile_if(stmt: If, ctx: _Ctx) -> Callable:
    cond, _c = _compile_expr(stmt.cond, ctx)
    then_ops = _compile_body(stmt.then_body, ctx)
    else_ops = _compile_body(stmt.else_body, ctx)

    def run_if(st, sc, ar):
        _tick(st)
        if cond(st, sc, ar):
            for op in then_ops:
                op(st, sc, ar)
        else:
            for op in else_ops:
                op(st, sc, ar)
    return run_if


def _compile_read(stmt: ReadStmt, ctx: _Ctx) -> Callable:
    items = [(name, name in ctx.int_typed) for name in stmt.names]

    def run_read(st, sc, ar):
        _tick(st)
        for name, coerce in items:
            if st.input_pos >= len(st.inputs):
                raise RuntimeError_(
                    f"read {name}: input exhausted at position "
                    f"{st.input_pos}"
                )
            value = st.inputs[st.input_pos]
            st.input_pos += 1
            sc[name] = int(value) if coerce else value
    return run_read


def _compile_print(stmt: PrintStmt, ctx: _Ctx) -> Callable:
    parts = []
    for a in stmt.args:
        if hasattr(a, "text"):
            parts.append((True, a.text))
        else:
            parts.append((False, _compile_expr(a, ctx)[0]))

    def run_print(st, sc, ar):
        _tick(st)
        out = []
        for is_text, p in parts:
            out.append(p if is_text else _fmt(p(st, sc, ar)))
        st.outputs.append(" ".join(out))
    return run_print


def _compile_call(stmt: Call, ctx: _Ctx) -> Callable:
    """Calls resolve their callee's compiled code on first execution
    (matching the tree walker, which only faults a missing unit when the
    call statement actually runs)."""
    cell: List[Optional[Callable]] = [None]

    def run_call(st, sc, ar):
        _tick(st)
        impl = cell[0]
        if impl is None:
            impl = cell[0] = _build_call(stmt, ctx)
        impl(st, sc, ar)
    return run_call


def _build_call(stmt: Call, ctx: _Ctx) -> Callable:
    callee = ctx.program.units[stmt.name]
    code = _unit_code(callee, ctx.variant, ctx.program)
    binders: List[Callable] = []
    for formal, actual in zip(callee.params, stmt.args):
        formal_decl = callee.decls.get(formal)
        formal_is_array = formal_decl is not None and formal_decl.is_array
        if formal_is_array:
            callee_slot = code.aslot[formal]
            caller_slot = (
                ctx.aslot.get(actual.name)
                if isinstance(actual, VarRef)
                else None
            )
            if caller_slot is None:
                def bad_binder(
                    st, sc, ar, sc2, passed, name=stmt.name, formal=formal
                ):
                    raise RuntimeError_(
                        f"call {name}: formal array {formal!r} needs a "
                        f"whole-array actual"
                    )
                binders.append(bad_binder)
            else:
                def arr_binder(
                    st, sc, ar, sc2, passed, cs=caller_slot, ks=callee_slot
                ):
                    passed[ks] = ar[cs]
                binders.append(arr_binder)
        else:
            argfn, _c = _compile_expr(actual, ctx)

            def sc_binder(st, sc, ar, sc2, passed, formal=formal, fn=argfn):
                sc2[formal] = fn(st, sc, ar)
            binders.append(sc_binder)

    def impl(st, sc, ar):
        sc2: dict = {}
        passed: list = [None] * code.narrays
        for b in binders:
            b(st, sc, ar, sc2, passed)
        ar2 = code.make_frame_arrays(st, sc2, passed)
        try:
            for op in code.ops:
                op(st, sc2, ar2)
        except _ReturnSignal:
            pass
    return impl


# ----------------------------------------------------------------------
# DO loops (scalar instruction loop + optional vectorized program)
# ----------------------------------------------------------------------
def _compile_do(stmt: DoLoop, ctx: _Ctx) -> Callable:
    lo_c, _ = _compile_expr(stmt.lo, ctx)
    hi_c, _ = _compile_expr(stmt.hi, ctx)
    step_c = _compile_expr(stmt.step, ctx)[0] if stmt.step is not None else None
    body_ops = _compile_body(stmt.body, ctx)
    nbody = len(body_ops)
    var = stmt.var
    label = stmt.label
    nid = stmt.nid
    hooked = ctx.loop_hooked
    vec = None
    if not ctx.access_hooked and not ctx.loop_hooked and _np is not None:
        vec = _try_vectorize(stmt, ctx)

    def run_do(st, sc, ar):
        _tick(st)
        lo = int(lo_c(st, sc, ar))
        hi = int(hi_c(st, sc, ar))
        step = int(step_c(st, sc, ar)) if step_c is not None else 1
        if step == 0:
            raise RuntimeError_(f"loop {label}: zero step")

        ran_parallel: Optional[bool] = None
        plan = st.plan
        if plan is not None:
            lp = plan.plan_for(stmt)
            if lp is not None and lp.mode == "two_version":
                cfn = st.cond_cache.get(nid)
                if cfn is None:
                    from repro.codegen.twoversion import predicate_to_expr

                    cfn = _compile_expr(
                        predicate_to_expr(lp.runtime_pred), ctx
                    )[0]
                    st.cond_cache[nid] = cfn
                ran_parallel = _truthy(cfn(st, sc, ar))
            elif lp is not None and lp.mode == "parallel":
                ran_parallel = True

        if step > 0:
            trips = (hi - lo) // step + 1 if lo <= hi else 0
        else:
            trips = (lo - hi) // (-step) + 1 if lo >= hi else 0

        token = None
        if hooked and st.loop_hook is not None:
            st.interp.steps = st.steps
            proxy = _FrameProxy(ctx.code, sc, ar)
            token = st.loop_hook.enter_loop(stmt, proxy, ran_parallel)

        if trips:
            if (
                vec is not None
                and trips >= _VEC_MIN_TRIPS
                and vec.execute(st, sc, ar, lo, step, trips)
            ):
                st.steps += trips * nbody
                sc[var] = lo + trips * step
                perf.bump("rt.vec_loop")
            else:
                i = lo
                hook = st.loop_hook if hooked else None
                if hook is not None:
                    for _ in range(trips):
                        sc[var] = i
                        hook.iter_start(token, i)
                        for op in body_ops:
                            op(st, sc, ar)
                        i += step
                else:
                    for _ in range(trips):
                        sc[var] = i
                        for op in body_ops:
                            op(st, sc, ar)
                        i += step
                sc[var] = i
        else:
            sc[var] = lo

        if hooked and st.loop_hook is not None:
            st.interp.steps = st.steps
            st.loop_hook.exit_loop(token)
        st.loop_events.append(LoopEvent(label, nid, trips, ran_parallel))
    return run_do


# ----------------------------------------------------------------------
# vectorized loop programs
# ----------------------------------------------------------------------
class _VecSite:
    """One distinct (array, subscript tuple) reference in a vector loop."""

    __slots__ = ("name", "slot", "dims", "offs", "data", "arr")

    def __init__(self, name: str, slot: int, dims: list) -> None:
        self.name = name
        self.slot = slot
        self.dims = dims  # [(coeff_fn, base_fn), ...] per dimension
        self.offs: Optional[list] = None  # resolved per execution
        self.data: Optional[dict] = None
        self.arr: Optional[ArrayStorage] = None


class _VecRt:
    """Per-execution runtime environment for vector value programs."""

    __slots__ = ("iv", "inv", "sites", "n")

    def gather(self, idx: int):
        site = self.sites[idx]
        return _np.fromiter(
            map(site.data.get, site.offs, repeat(0.0)),
            _np.float64,
            count=self.n,
        )


class _VecLoop:
    """A compiled whole-iteration-space program for one DO loop."""

    __slots__ = ("sites", "stmts", "invariants", "mod_checks", "write_sites")

    def __init__(self, sites, stmts, invariants, mod_checks, write_sites):
        self.sites = sites
        self.stmts = stmts  # [(target site index, value fn), ...]
        #: loop-invariant scalar subtrees, pre-evaluated at entry so the
        #: compute/scatter phase cannot raise after a partial write
        self.invariants = invariants
        self.mod_checks = mod_checks  # invariant-slot indices of divisors
        self.write_sites = write_sites  # set of written site objects

    # ------------------------------------------------------------------
    def execute(self, st, sc, ar, lo, step, trips) -> bool:
        """Run the whole iteration space; False = fall back to the
        scalar instruction loop (which reproduces exact tree-walker
        behaviour, including any error at its exact iteration)."""
        nbody = len(self.stmts)
        if st.steps + trips * nbody > st.max_steps:
            perf.bump("rt.vec_fallback")
            return False
        last = lo + (trips - 1) * step
        try:
            for site in self.sites:
                arr = ar[site.slot]
                if arr is None:
                    perf.bump("rt.vec_fallback")
                    return False
                site.arr = arr
                site.data = arr.data
            inv_vals = [f(st, sc, ar) for f in self.invariants]
            for k in self.mod_checks:
                if inv_vals[k] == 0:
                    perf.bump("rt.vec_fallback")
                    return False

            iv = None
            for site in self.sites:
                arr = site.arr
                extents = arr.extents
                if len(extents) != len(site.dims):
                    perf.bump("rt.vec_fallback")
                    return False
                offs = None
                stride = 1
                coeff_total = 0
                for k, (cfn, bfn) in enumerate(site.dims):
                    c = cfn(st, sc, ar)
                    b = bfn(st, sc, ar)
                    if type(c) is not int or type(b) is not int:
                        perf.bump("rt.vec_fallback")
                        return False
                    s_a = c * lo + b
                    s_b = c * last + b
                    s_min, s_max = (s_a, s_b) if s_a <= s_b else (s_b, s_a)
                    ext = extents[k]
                    if s_min < 1 or (ext is not None and s_max > ext):
                        perf.bump("rt.vec_fallback")
                        return False
                    if iv is None:
                        iv = _np.arange(trips, dtype=_np.int64) * step + lo
                    dim_off = (c * iv + (b - 1)) * stride
                    offs = dim_off if offs is None else offs + dim_off
                    coeff_total += c * stride
                    if ext is not None:
                        stride *= ext
                site.offs = offs.tolist()
                if site in self.write_sites and coeff_total == 0:
                    perf.bump("rt.vec_fallback")
                    return False

            # cross-name buffer aliasing (formals viewing one actual)
            written_bufs = {
                id(self.sites[i].data): self.sites[i].name
                for i in range(len(self.sites))
                if self.sites[i] in self.write_sites
            }
            for site in self.sites:
                wname = written_bufs.get(id(site.data))
                if wname is not None and wname != site.name:
                    perf.bump("rt.vec_fallback")
                    return False
        except Exception:
            # any entry-check failure (bad subscript type, invariant
            # raising, overflow) → scalar loop, which reproduces the
            # walker's exact behaviour at the exact iteration
            perf.bump("rt.vec_fallback")
            return False

        rt = _VecRt()
        rt.iv, rt.inv, rt.sites, rt.n = iv, inv_vals, self.sites, trips
        for tgt_idx, value_fn in self.stmts:
            res = value_fn(rt)
            if isinstance(res, _np.ndarray):
                out = res.astype(_np.float64, copy=False)
            else:
                out = _np.full(trips, float(res))
            site = self.sites[tgt_idx]
            site.data.update(zip(site.offs, out.tolist()))
        for site in self.sites:  # drop per-execution references
            site.offs = site.data = site.arr = None
        return True


def _expr_uses(e: Expr, loopvar: str) -> Tuple[bool, bool]:
    """(references the loop variable, references any array)."""
    uses_var = uses_array = False
    for sub in walk_exprs(e):
        if isinstance(sub, VarRef) and sub.name == loopvar:
            uses_var = True
        elif isinstance(sub, ArrayRef):
            uses_array = True
    return uses_var, uses_array


def _kfn(v):
    return lambda st, sc, ar: v


def _affine(e: Expr, ctx: _Ctx, loopvar: str):
    """Decompose *e* as ``coeff * i + base`` with loop-invariant closures
    for both parts; returns ``(coeff_fn, base_fn, coeff_is_zero)`` or
    ``None``.  Exactness requires integer values at runtime — verified
    at loop entry before the vector program commits."""
    if isinstance(e, Num):
        return _kfn(0), _kfn(e.value), True
    if isinstance(e, VarRef):
        if e.name == loopvar:
            return _kfn(1), _kfn(0), False
        fn = _compile_expr(e, ctx)[0]
        return _kfn(0), fn, True
    if isinstance(e, UnOp) and e.op == "-":
        sub = _affine(e.operand, ctx, loopvar)
        if sub is None:
            return None
        c, b, z = sub
        return (
            (lambda st, sc, ar: -c(st, sc, ar)),
            (lambda st, sc, ar: -b(st, sc, ar)),
            z,
        )
    if isinstance(e, BinOp) and e.op in ("+", "-"):
        left = _affine(e.left, ctx, loopvar)
        right = _affine(e.right, ctx, loopvar)
        if left is None or right is None:
            return None
        lc, lb, lz = left
        rc, rb, rz = right
        if e.op == "+":
            return (
                (lambda st, sc, ar: lc(st, sc, ar) + rc(st, sc, ar)),
                (lambda st, sc, ar: lb(st, sc, ar) + rb(st, sc, ar)),
                lz and rz,
            )
        return (
            (lambda st, sc, ar: lc(st, sc, ar) - rc(st, sc, ar)),
            (lambda st, sc, ar: lb(st, sc, ar) - rb(st, sc, ar)),
            lz and rz,
        )
    if isinstance(e, BinOp) and e.op == "*":
        left = _affine(e.left, ctx, loopvar)
        right = _affine(e.right, ctx, loopvar)
        if left is not None and right is not None:
            lc, lb, lz = left
            rc, rb, rz = right
            if rz:
                return (
                    (lambda st, sc, ar: lc(st, sc, ar) * rb(st, sc, ar)),
                    (lambda st, sc, ar: lb(st, sc, ar) * rb(st, sc, ar)),
                    lz,
                )
            if lz:
                return (
                    (lambda st, sc, ar: rc(st, sc, ar) * lb(st, sc, ar)),
                    (lambda st, sc, ar: rb(st, sc, ar) * lb(st, sc, ar)),
                    rz,
                )
        return None
    uses_var, uses_array = _expr_uses(e, loopvar)
    if not uses_var and not uses_array:
        return _kfn(0), _compile_expr(e, ctx)[0], True
    return None


class _VecCompiler:
    """Builds the vector program for one straight-line loop body."""

    def __init__(self, ctx: _Ctx, loopvar: str, write_subs: dict) -> None:
        self.ctx = ctx
        self.loopvar = loopvar
        self.write_subs = write_subs  # name -> subscript tuple
        self.sites: List[_VecSite] = []
        self.site_keys: Dict[Tuple, int] = {}
        self.invariants: List[Callable] = []
        self.mod_checks: List[int] = []

    def invariant_slot(self, e: Expr) -> int:
        k = len(self.invariants)
        self.invariants.append(_compile_expr(e, self.ctx)[0])
        return k

    def site_for(self, ref: ArrayRef) -> Optional[int]:
        key = (ref.name, ref.subscripts)
        idx = self.site_keys.get(key)
        if idx is not None:
            return idx
        slot = self.ctx.aslot.get(ref.name)
        if slot is None or self.ctx.array_rank[ref.name] != len(ref.subscripts):
            return None
        dims = []
        for s in ref.subscripts:
            dec = _affine(s, self.ctx, self.loopvar)
            if dec is None:
                return None
            dims.append((dec[0], dec[1]))
        idx = len(self.sites)
        self.sites.append(_VecSite(ref.name, slot, dims))
        self.site_keys[key] = idx
        return idx

    def value(self, e: Expr) -> Optional[Callable]:
        """Compile *e* to ``fn(rt) -> ndarray | scalar``."""
        uses_var, uses_array = _expr_uses(e, self.loopvar)
        if not uses_var and not uses_array:
            # invariant scalar subtree: pre-evaluated once at loop
            # entry (inside the fallback guard, so a raising subtree —
            # division by zero, say — reverts to the scalar loop before
            # anything has been written)
            k = self.invariant_slot(e)
            return lambda rt: rt.inv[k]
        return self._value_node(e)

    def _touches_written(self, e: Expr) -> bool:
        for sub in walk_exprs(e):
            if isinstance(sub, ArrayRef) and sub.name in self.write_subs:
                return True
        return False

    def _value_node(self, e: Expr) -> Optional[Callable]:
        if isinstance(e, Num):
            v = e.value
            return lambda rt: v
        if isinstance(e, VarRef):
            if e.name == self.loopvar:
                return lambda rt: rt.iv
            name = e.name
            return lambda rt: rt.sc.get(name, 0)
        if isinstance(e, ArrayRef):
            if e.name in self.write_subs and (
                e.subscripts != self.write_subs[e.name]
            ):
                return None  # read/write offsets may cross iterations
            idx = self.site_for(e)
            if idx is None:
                return None
            return lambda rt: rt.gather(idx)
        if isinstance(e, UnOp) and e.op == "-":
            f = self.value(e.operand)
            if f is None:
                return None
            return lambda rt: -f(rt)
        if isinstance(e, BinOp) and e.op in ("+", "-", "*"):
            lf = self.value(e.left)
            rf = self.value(e.right)
            if lf is None or rf is None:
                return None
            if e.op == "+":
                return lambda rt: lf(rt) + rf(rt)
            if e.op == "-":
                return lambda rt: lf(rt) - rf(rt)
            return lambda rt: lf(rt) * rf(rt)
        if isinstance(e, Intrinsic):
            return self._value_intrinsic(e)
        return None

    def _value_intrinsic(self, e: Intrinsic) -> Optional[Callable]:
        if e.name == "abs" and len(e.args) >= 1:
            fns = [self.value(a) for a in e.args]
            if any(f is None for f in fns):
                return None
            f0 = fns[0]

            def vabs(rt, fns=fns, f0=f0):
                vals = [f(rt) for f in fns]
                return abs(vals[0])
            return vabs
        if e.name in ("min", "max"):
            fns = [self.value(a) for a in e.args]
            if any(f is None for f in fns):
                return None
            pick_second = _np.less if e.name == "min" else _np.greater

            def vminmax(rt, fns=fns, pick=pick_second):
                acc = fns[0](rt)
                for f in fns[1:]:
                    v = f(rt)
                    if isinstance(acc, _np.ndarray) or isinstance(
                        v, _np.ndarray
                    ):
                        acc = _np.where(pick(v, acc), v, acc)
                    else:
                        acc = v if pick(v, acc) else acc
                return acc
            return vminmax
        if e.name == "mod" and len(e.args) == 2:
            dividend = self.value(e.args[0])
            if dividend is None:
                return None
            div_e = e.args[1]
            div_var, div_arr = _expr_uses(div_e, self.loopvar)
            if div_var or div_arr:
                return None  # divisor must be a loop-invariant scalar
            k = self.invariant_slot(div_e)
            self.mod_checks.append(k)  # entry verifies it is nonzero

            def vmod(rt, dividend=dividend, k=k):
                a = dividend(rt)
                b = rt.inv[k]
                if isinstance(a, _np.ndarray):
                    return _np.fmod(a, b)
                if isinstance(a, int) and isinstance(b, int):
                    return int(math.fmod(a, b))
                return math.fmod(a, b)
            return vmod
        return None


def _try_vectorize(stmt: DoLoop, ctx: _Ctx) -> Optional[_VecLoop]:
    """Compile the loop's whole-iteration-space program, or ``None``
    when the body is not a straight-line affine candidate."""
    if not stmt.body:
        return None
    assigns: List[Assign] = []
    for s in stmt.body:
        if not isinstance(s, Assign) or not isinstance(s.target, ArrayRef):
            return None  # control flow, calls, or scalar carry
        assigns.append(s)

    # all writes (and reads) of one array must share one subscript tuple
    write_subs: Dict[str, Tuple[Expr, ...]] = {}
    for s in assigns:
        prev = write_subs.get(s.target.name)
        if prev is not None and prev != s.target.subscripts:
            return None
        write_subs[s.target.name] = s.target.subscripts

    comp = _VecCompiler(ctx, stmt.var, write_subs)
    stmts = []
    write_sites = set()
    for s in assigns:
        tgt_idx = comp.site_for(s.target)
        if tgt_idx is None:
            return None
        value_fn = comp.value(s.value)
        if value_fn is None:
            return None
        stmts.append((tgt_idx, value_fn))
        write_sites.add(comp.sites[tgt_idx])
    return _VecLoop(
        comp.sites, stmts, comp.invariants, comp.mod_checks, write_sites
    )


# ----------------------------------------------------------------------
# unit compilation and the entry point
# ----------------------------------------------------------------------
def _compile_unit(
    unit: Subroutine, variant: Tuple[bool, bool], program: Program
) -> _CompiledUnit:
    perf.bump("rt.compile_unit")
    ctx = _Ctx(unit, program, variant)
    code = _CompiledUnit(unit)
    ctx.code = code  # loop closures hand it to frame proxies
    code.aslot = ctx.aslot
    code.narrays = len(ctx.aslot)
    for name, decl in unit.decls.items():
        if not decl.is_array:
            continue
        dims = [
            None if d == ASSUMED else _compile_expr(d, ctx)[0]
            for d in decl.dims
        ]
        code.array_specs.append((ctx.aslot[name], name, decl.typ, dims))
    code.ops = _compile_body(unit.body, ctx)
    return code


def _unit_code(
    unit: Subroutine, variant: Tuple[bool, bool], program: Program
) -> _CompiledUnit:
    key = (id(unit), variant[0], variant[1])
    code = _code_memo.data.get(key)
    if code is not None and code.unit is unit:
        _code_memo.hits += 1
        return code
    _code_memo.misses += 1
    code = _compile_unit(unit, variant, program)
    if len(_code_memo.data) >= _CODE_MEMO_CAP:
        _code_memo.data.clear()
    _code_memo.data[key] = code
    return code


def execute(interp) -> ExecutionResult:
    """Run *interp*'s program on the bytecode engine.

    Reuses the Interpreter's configuration and result fields, so callers
    (and hooks reading ``interp.steps``) observe the run's state on the
    Interpreter object itself.
    """
    program = interp.program
    variant = (interp.access_hook is not None, interp.loop_hook is not None)
    st = _State()
    st.program = program
    st.inputs = interp.inputs
    st.input_pos = interp._input_pos
    st.plan = interp.plan
    st.access_hook = interp.access_hook
    st.loop_hook = interp.loop_hook
    st.max_steps = interp.max_steps
    st.steps = interp.steps
    st.outputs = interp.outputs
    st.loop_events = interp.loop_events
    st.cond_cache = {}
    st.interp = interp

    with perf.phase("rt.exec"):
        main = program.main_unit
        code = _unit_code(main, variant, program)
        sc: dict = {}
        ar = code.make_frame_arrays(st, sc)
        try:
            try:
                for op in code.ops:
                    op(st, sc, ar)
            except _ReturnSignal:
                pass
        finally:
            interp.steps = st.steps
            interp._input_pos = st.input_pos

    return ExecutionResult(
        outputs=st.outputs,
        steps=st.steps,
        main_arrays={
            name: ar[slot].snapshot()
            for slot, name, _typ, _dims in code.array_specs
        },
        main_scalars=dict(sc),
        loop_events=st.loop_events,
    )
