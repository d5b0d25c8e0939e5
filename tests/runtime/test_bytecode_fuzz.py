"""Differential fuzzing: bytecode engine vs the reference tree walker.

Seeded random mini-Fortran programs are executed on the bytecode engine
and on the tree walker of ``tests/runtime/reference.py``, and every
observable must match *bit for bit*: printed output,
step counts, loop events (including iteration counts), final scalar and
array state (compared through their IEEE-754 bit patterns, so ``-0.0``
vs ``0.0`` or any least-significant-bit drift in the vectorized path
would fail), and — when a program faults — the exception type and
message.  A second sweep runs the same programs under ELPD
instrumentation and pins the packed shadow-state verdicts against the
reference dict shadow.

The generator leans on the constructs where the engines genuinely
differ: straight-line affine loops the vectorizer takes, recurrences
and conditionals it must reject, intrinsics with NumPy equivalents
(``mod``/``min``/``max``/``abs``), negative steps, nested loops,
subroutine calls (separately compiled units), and prints interleaved
with computation.  Values stay modest so every arithmetic result is
exact in binary64 — any mismatch is an engine bug, never float noise.
"""

import random
import struct

import pytest

from repro import perf
from repro.lang.parser import parse_program
from repro.runtime.elpd import run_elpd
from repro.runtime.interp import Interpreter, RuntimeError_

from tests.runtime.reference import TreeInterpreter, run_elpd_reference

SIZE = 48
ARRAYS = ["fa", "fb", "fw"]
SUBSCRIPTS = ["{i}", "{i} + 1", "{i} + 2", "{i} + k", "2 * {i}", "3", "9"]
EXPRS = [
    "{a}({s}) * 0.5 + 1.0",
    "{a}({s}) + {b}({t})",
    "{a}({s}) - {b}({t}) * 0.25",
    "min({a}({s}), {b}({t}))",
    "max({a}({s}), 2.0)",
    "abs({a}({s}) - 3.0)",
    "mod({i}, 5) * 1.0",
    "mod({a}({s}), 4.0)",
    "{i} * 2.0 + x",
]
CONDS = ["x > 1", "{i} > 3", "mod({i}, 2) == 0", "{i} <= k + 4", "n > 6"]


def _stmts(rng, depth, index_vars):
    out = []
    for _ in range(rng.randint(1, 3)):
        i = index_vars[-1] if index_vars else None
        kinds = ["assign", "assign", "assign", "print", "scalar"]
        if i is not None:
            kinds += ["recur"]
        if depth < 2:
            kinds += ["loop", "if"]
        kind = rng.choice(kinds)
        if kind == "assign" and i is not None:
            tgt = rng.choice(ARRAYS)
            expr = rng.choice(EXPRS).format(
                a=rng.choice(ARRAYS),
                b=rng.choice(ARRAYS),
                s=rng.choice(SUBSCRIPTS).format(i=i),
                t=rng.choice(SUBSCRIPTS).format(i=i),
                i=i,
            )
            out.append(f"{tgt}({rng.choice(SUBSCRIPTS).format(i=i)}) = {expr}")
        elif kind == "assign":
            out.append(f"{rng.choice(ARRAYS)}({rng.randint(1, 9)}) = 2.5")
        elif kind == "recur":
            a = rng.choice(ARRAYS)
            out.append(f"{a}({i} + 1) = {a}({i}) + 1.0")
        elif kind == "scalar":
            rhs = f"x + {i} * 1.0" if i is not None else "x + 1.0"
            out.append(f"x = {rhs}")
        elif kind == "print":
            parts = [f"{rng.choice(ARRAYS)}({rng.randint(1, 9)})", "x"]
            out.append(f"print {', '.join(rng.sample(parts, rng.randint(1, 2)))}")
        elif kind == "if" and i is not None:
            body = _stmts(rng, depth + 1, index_vars)
            out.append(f"if ({rng.choice(CONDS).format(i=i)}) then")
            out.extend(f"  {s}" for s in body)
            if rng.random() < 0.4:
                out.append("else")
                out.extend(f"  {s}" for s in _stmts(rng, depth + 1, index_vars))
            out.append("endif")
        elif kind == "loop":
            var = f"i{len(index_vars) + 1}"
            if rng.random() < 0.2:
                header = f"do {var} = {rng.randint(8, 14)}, 1, -1"
            else:
                hi = rng.choice(["n", "n - 1", str(rng.randint(6, 14))])
                header = f"do {var} = {rng.randint(1, 2)}, {hi}"
            out.append(header)
            out.extend(f"  {s}" for s in _stmts(rng, depth + 1, index_vars + [var]))
            out.append("enddo")
        else:
            out.append("x = x")
    return out


def generate(seed, size=SIZE):
    rng = random.Random(seed)
    lines = [
        "program fz",
        "  integer n, k",
        f"  real {', '.join(f'{a}({size})' for a in ARRAYS)}",
        "  read n, k",
    ]
    lines.extend(f"  {s}" for s in _stmts(rng, 0, []))
    # guarantee at least one loop, long enough for the vectorized path
    lines.append("  do i1 = 1, n")
    lines.extend(f"    {s}" for s in _stmts(rng, 1, ["i1"]))
    if rng.random() < 0.5:
        lines.append(f"    call tweak({rng.choice(ARRAYS)}, i1)")
    lines.append("  enddo")
    lines.append("  print x, fa(3), fw(9)")
    lines.append("end")
    lines += [
        "subroutine tweak(v, m)",
        f"  real v({SIZE})",
        "  integer m",
        "  v(m) = v(m) * 0.5 + m",
        "end",
    ]
    inputs = [rng.randint(8, 14), rng.randint(0, 3)]
    return "\n".join(lines) + "\n", inputs


def _bits(value):
    """Bit-exact token for a numeric value (type- and sign-preserving)."""
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return ("i", value)


def _observe(engine, src, inputs):
    """Everything observable from one run under one engine."""
    perf.reset_all_caches()
    interp = engine(parse_program(src), inputs, max_steps=200_000)
    try:
        result = interp.run()
    except (RuntimeError_, ValueError, KeyError) as exc:
        return {
            "error": (type(exc).__name__, str(exc)),
            "outputs": list(interp.outputs),
            "steps": interp.steps,
        }
    return {
        "error": None,
        "outputs": result.outputs,
        "steps": result.steps,
        "scalars": {
            name: _bits(v) for name, v in result.main_scalars.items()
        },
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


def _observe_elpd(run, src, inputs):
    perf.reset_all_caches()
    report = run(parse_program(src), inputs, max_steps=200_000)
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


@pytest.mark.parametrize("seed", range(40))
def test_execution_identical(seed):
    src, inputs = generate(seed)
    bc = _observe(Interpreter, src, inputs)
    tree = _observe(TreeInterpreter, src, inputs)
    assert bc == tree, f"engines diverged (seed {seed})\n{src}"


@pytest.mark.parametrize("seed", range(40))
def test_fault_parity(seed):
    # undersized arrays: many programs now run out of bounds mid-loop;
    # both engines must fault with the identical message after the
    # identical number of steps and prints (the vectorized path does its
    # bounds pre-flight exactly so it can fall back and fault in-order)
    src, inputs = generate(seed, size=16)
    bc = _observe(Interpreter, src, inputs)
    tree = _observe(TreeInterpreter, src, inputs)
    assert bc == tree, f"engines diverged (seed {seed}, size 16)\n{src}"


@pytest.mark.parametrize("seed", range(0, 40, 2))
def test_elpd_verdicts_identical(seed):
    src, inputs = generate(seed)
    bc = _observe_elpd(run_elpd, src, inputs)
    tree = _observe_elpd(run_elpd_reference, src, inputs)
    assert bc == tree, f"ELPD verdicts diverged (seed {seed})\n{src}"
