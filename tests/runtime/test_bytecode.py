"""Targeted parity tests: bytecode engine vs the reference tree walker.

Every test here runs the *same* program through the bytecode engine and
the tree walker of ``tests/runtime/reference.py`` and
asserts the observable behaviour is identical — results, step counts,
loop events, hook call sequences, and (for failing programs) the exact
exception type and message.  The broad suite-wide sweep lives in
``tests/integration/test_bytecode_identity.py``; these are the narrow
pins on the corners where the engines could legitimately diverge:
error paths, the step budget, loop-variable endpoints, integer
coercion, the two-version dispatch, and the conditions under which the
NumPy fast path must fall back to the scalar instruction loop.
"""

import pytest

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.codegen.plan import build_plan
from repro.lang.parser import parse_program
from repro.partests.driver import analyze_program
from repro.runtime.interp import Interpreter, RuntimeError_, run_program

from tests.runtime.reference import TreeInterpreter

try:
    import numpy  # noqa: F401
except ImportError:  # NumPy is optional: no vector path without it
    numpy = None

#: the engine under test, then the reference
ENGINES = (Interpreter, TreeInterpreter)


def _run_mode(engine, src, inputs=(), plan=None, max_steps=10_000_000):
    perf.reset_all_caches()
    return engine(
        parse_program(src), inputs, plan=plan, max_steps=max_steps
    ).run()


def both(src, inputs=(), max_steps=10_000_000):
    """Run in both modes; assert full ExecutionResult equality."""
    bc = _run_mode(Interpreter, src, inputs, max_steps=max_steps)
    tree = _run_mode(TreeInterpreter, src, inputs, max_steps=max_steps)
    assert bc.outputs == tree.outputs
    assert bc.steps == tree.steps
    assert bc.main_scalars == tree.main_scalars
    assert bc.main_arrays == tree.main_arrays
    assert bc.loop_events == tree.loop_events
    return bc


def both_raise(src, inputs=(), max_steps=10_000_000):
    """Both engines must raise the same exception type and message."""
    errs = []
    for engine in ENGINES:
        with pytest.raises((RuntimeError_, KeyError, ValueError)) as ei:
            _run_mode(engine, src, inputs, max_steps=max_steps)
        errs.append((type(ei.value), str(ei.value)))
    assert errs[0] == errs[1]
    return errs[0]


class TestErrorParity:
    def test_subscript_out_of_bounds(self):
        typ, msg = both_raise(
            "program t\nreal a(5)\ndo i = 1, 6\na(i) = 1.0\nenddo\nend\n"
        )
        assert typ is RuntimeError_
        assert msg == "array a: subscript 6 out of bounds 1..5 in dimension 1"

    def test_subscript_below_one_assumed_dim(self):
        typ, msg = both_raise(
            "program t\n  real a(12)\n  call f(a)\nend\n"
            "subroutine f(v)\n  real v(*)\n  v(0) = 1.0\nend\n"
        )
        assert typ is RuntimeError_
        assert msg == "array v: subscript 0 < 1 in assumed dimension 1"

    def test_division_by_zero(self):
        typ, msg = both_raise("program t\nx = 1.0 / (2.0 - 2.0)\nend\n")
        assert typ is RuntimeError_
        assert msg == "division by zero"

    def test_mod_zero_divisor(self):
        typ, msg = both_raise("program t\ninteger k\nx = mod(5, k)\nend\n")
        assert typ is RuntimeError_
        assert msg == "mod with zero divisor"

    def test_input_exhausted(self):
        typ, msg = both_raise("program t\ninteger n, m\nread n, m\nend\n", [7])
        assert typ is RuntimeError_
        assert msg == "read m: input exhausted at position 1"

    def test_zero_step_loop(self):
        typ, msg = both_raise(
            "program t\ninteger k\ndo i = 1, 5, k\nx = 1.0\nenddo\nend\n"
        )
        assert typ is RuntimeError_
        assert msg == "loop t:L1: zero step"

    def test_formal_array_needs_whole_array_actual(self):
        typ, msg = both_raise(
            "program t\n  call f(3.0)\nend\n"
            "subroutine f(v)\n  real v(10)\n  v(1) = 1.0\nend\n"
        )
        assert typ is RuntimeError_
        assert msg == "call f: formal array 'v' needs a whole-array actual"

    def test_error_inside_vectorization_candidate(self):
        # a straight-line affine body the vectorizer would take — the
        # out-of-range write must still surface with the tree's message
        typ, msg = both_raise(
            "program t\ninteger n\nreal a(50)\nread n\n"
            "do i = 1, n\na(i + 20) = 1.0\nenddo\nend\n",
            [40],
        )
        assert typ is RuntimeError_
        assert msg == "array a: subscript 51 out of bounds 1..50 in dimension 1"


class TestStepBudget:
    SRC = (
        "program t\nreal a(100)\n"
        "do i = 1, 100\na(i) = i * 1.0\nenddo\nend\n"
    )

    def test_budget_exceeded_same_message(self):
        typ, msg = both_raise(self.SRC, max_steps=50)
        assert typ is RuntimeError_
        assert msg == "step budget exceeded (50)"

    def test_budget_boundary_exact(self):
        # exactly enough steps: 1 loop tick + 100 body ticks
        result = both(self.SRC, max_steps=101)
        assert result.steps == 101

    def test_budget_forces_scalar_fallback_mid_loop(self):
        # the vectorized path may not batch past the budget: the loop
        # would need 1 + 40 steps but only 30 are allowed, so both
        # engines must die at the same per-iteration step count
        src = (
            "program t\ninteger n\nreal a(50)\nread n\n"
            "do i = 1, n\na(i) = 1.0\nenddo\nend\n"
        )
        typ, msg = both_raise(src, [40], max_steps=30)
        assert typ is RuntimeError_
        assert msg == "step budget exceeded (30)"


class TestLoopVariableEndpoints:
    def test_past_the_end_value(self):
        result = both(
            "program t\ndo i = 1, 10, 3\nx = i * 1.0\nenddo\nend\n"
        )
        # trips = 4 (1,4,7,10); var holds lo + trips*step
        assert result.main_scalars["i"] == 13

    def test_zero_trip_var_holds_lo(self):
        result = both("program t\ndo i = 5, 2\nx = 1.0\nenddo\nend\n")
        assert result.main_scalars["i"] == 5
        assert result.loop_events[0].iterations == 0

    def test_negative_step(self):
        result = both(
            "program t\nreal a(10)\ndo i = 10, 1, -2\na(i) = i * 1.0\nenddo\nend\n"
        )
        assert result.main_scalars["i"] == 0
        assert result.loop_events[0].iterations == 5


class TestCoercionParity:
    def test_integer_array_reads_truncate(self):
        # array elements store floats; the integer coercion applies on
        # the *read* side of an integer-typed name in both engines
        result = both(
            "program t\ninteger a(5)\ndo i = 1, 5\na(i) = i * 1.5\nenddo\n"
            "print a(2), a(3)\nend\n"
        )
        assert result.outputs == ["3 4.5"]

    def test_integer_scalar_read_and_div(self):
        result = both(
            "program t\ninteger n\nread n\nx = n / 4\n"
            "y = n / 4.0\nprint x, y\nend\n",
            [7],
        )
        # int/int truncates toward zero; int/float does not
        assert result.outputs == ["1 1.75"]

    def test_unset_values_default(self):
        result = both(
            "program t\nreal a(5)\nprint x, a(3)\nend\n"
        )
        assert result.outputs == ["0 0"]


class TestTwoVersionParity:
    SRC = (
        "program t\n"
        "  integer n, k\n"
        "  real a(5000)\n"
        "  read n, k\n"
        "  do i = 1, n\n"
        "    a(i + k) = a(i) + 1.0\n"
        "  enddo\n"
        "end\n"
    )

    def _run(self, engine, inputs):
        program = parse_program(self.SRC)
        plan = build_plan(
            analyze_program(program, AnalysisOptions.predicated())
        )
        assert plan.two_version_count() >= 1
        perf.reset_all_caches()
        return engine(program, inputs, plan=plan).run()

    @pytest.mark.parametrize("inputs", [[200, 3000], [200, 3], [200, 0]])
    def test_two_version_outcome_identical(self, inputs):
        bc = self._run(Interpreter, inputs)
        tree = self._run(TreeInterpreter, inputs)
        assert bc.loop_events == tree.loop_events
        assert bc.main_arrays == tree.main_arrays
        assert bc.steps == tree.steps
        # the runtime test actually dispatched (not left undecided)
        assert bc.loop_events[0].ran_parallel_version is not None

    def test_dispatch_matches_dependence(self):
        # k >= n: disjoint ranges, test passes; 1 <= k < n: test fails
        run = self._run
        assert run(Interpreter, [200, 3000]).loop_events[0].ran_parallel_version
        assert not run(Interpreter, [200, 3]).loop_events[0].ran_parallel_version


class TestHookSequenceParity:
    SRC = (
        "program t\ninteger n\nreal a(40), b(40)\nread n\n"
        "do i = 1, n\n a(i) = b(i) + 1.0\nenddo\n"
        "do i = 2, n\n b(i) = a(i) - b(i - 1)\nenddo\nend\n"
    )

    class _TraceHook:
        def __init__(self):
            self.events = []

        def enter_loop(self, stmt, frame, ran_parallel):
            # the frame handed to hooks must resolve program state
            assert frame.unit.name == "t"
            assert "a" in frame.arrays
            self.events.append(("enter", stmt.label, ran_parallel))
            return len(self.events)

        def iter_start(self, token, ivalue):
            self.events.append(("iter", token, ivalue))

        def exit_loop(self, token):
            self.events.append(("exit", token))

    def _trace(self, engine):
        hook = self._TraceHook()
        accesses = []

        def access(kind, storage, offset):
            accesses.append((kind, storage.name, offset))

        perf.reset_all_caches()
        result = engine(
            parse_program(self.SRC),
            [20],
            access_hook=access,
            loop_hook=hook,
        ).run()
        return result, hook.events, accesses

    def test_identical_hook_streams(self):
        bc_result, bc_loops, bc_access = self._trace(Interpreter)
        tr_result, tr_loops, tr_access = self._trace(TreeInterpreter)
        assert bc_loops == tr_loops
        assert bc_access == tr_access
        assert bc_result.steps == tr_result.steps
        assert bc_result.main_arrays == tr_result.main_arrays
        # reads precede the write within each first-loop iteration
        first = [e for e in bc_access if e[1] in ("a", "b")][:2]
        assert first == [("r", "b", 0), ("w", "a", 0)]


class TestVectorizedPath:
    VEC_SRC = (
        "program t\ninteger n\nreal a(200), b(200)\nread n\n"
        "do i = 1, n\na(i) = b(i) * 0.5 + 1.0\nenddo\nend\n"
    )

    def _vec_count(self, src, inputs):
        """Run on the bytecode engine; return the rt.vec_loop delta."""
        perf.reset_all_caches()
        before = perf.counter("rt.vec_loop")
        run_program(parse_program(src), inputs)
        return perf.counter("rt.vec_loop") - before

    @pytest.mark.skipif(numpy is None, reason="the vector path needs NumPy")
    def test_affine_body_vectorizes(self):
        assert self._vec_count(self.VEC_SRC, [200]) == 1
        both(self.VEC_SRC, [200])

    def test_small_trip_counts_stay_scalar(self):
        # below _VEC_MIN_TRIPS the batch setup is not worth it
        assert self._vec_count(self.VEC_SRC, [4]) == 0
        both(self.VEC_SRC, [4])

    def test_recurrence_falls_back(self):
        src = (
            "program t\ninteger n\nreal a(200)\nread n\n"
            "do i = 2, n\na(i) = a(i - 1) + 1.0\nenddo\nend\n"
        )
        assert self._vec_count(src, [200]) == 0
        result = both(src, [200])
        assert result.main_arrays["a"][199] == 199.0

    def test_aliased_actuals_fall_back(self):
        # both formals are views of the same buffer: the per-statement
        # gather/scatter ordering is only safe without cross-name
        # aliasing, so the callee loop must run scalar
        src = (
            "program t\n  integer n\n  real a(200)\n  read n\n"
            "  call f(a, a, n)\nend\n"
            "subroutine f(u, v, n)\n  real u(200)\n  real v(200)\n"
            "  integer n\n  do i = 2, n\n    u(i) = v(i - 1) + 1.0\n"
            "  enddo\nend\n"
        )
        assert self._vec_count(src, [200]) == 0
        result = both(src, [200])
        # sequential semantics: each write feeds the next read
        assert result.main_arrays["a"][199] == 199.0

    def test_hooked_runs_never_vectorize(self):
        # access hooks observe every element access in order; the
        # batched path is compiled out of the hooked variants entirely
        perf.reset_all_caches()
        before = perf.counter("rt.vec_loop")
        seen = []
        Interpreter(
            parse_program(self.VEC_SRC),
            [200],
            access_hook=lambda k, s, o: seen.append((k, s.name, o)),
        ).run()
        assert perf.counter("rt.vec_loop") == before
        assert len(seen) == 400  # one read + one write per iteration

    def test_min_max_first_on_ties(self):
        # min/max pick the first argument on ties in the tree walker;
        # the vectorized np.where must preserve that
        src = (
            "program t\ninteger n\nreal a(100), b(100)\nread n\n"
            "do i = 1, n\nb(i) = 2.0\nenddo\n"
            "do i = 1, n\na(i) = max(b(i), 2.0) + min(1.0 * i, b(i))\nenddo\n"
            "end\n"
        )
        both(src, [100])

    @pytest.mark.skipif(numpy is None, reason="the vector path needs NumPy")
    def test_mod_intrinsic_vectorizes(self):
        src = (
            "program t\ninteger n, a(100)\nread n\n"
            "do i = 1, n\na(i) = mod(i * 7, 5)\nenddo\nend\n"
        )
        assert self._vec_count(src, [100]) == 1
        result = both(src, [100])
        assert result.main_arrays["a"][0] == 2  # mod(7, 5)


class TestCompileCache:
    def test_unit_code_memoized_across_runs(self):
        program = parse_program(
            "program t\nreal a(10)\ndo i = 1, 10\na(i) = 1.0\nenddo\nend\n"
        )
        perf.reset_all_caches()
        before = perf.counter("rt.compile_unit")
        Interpreter(program).run()
        first = perf.counter("rt.compile_unit")
        Interpreter(program).run()
        second = perf.counter("rt.compile_unit")
        assert first >= before + 1
        assert second == first  # second run reused the compiled code
