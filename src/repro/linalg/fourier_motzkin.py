"""Fourier–Motzkin variable elimination.

Projection is **exact over the rationals** and a **superset over the
integers** (the real shadow).  Both directions the analysis relies on are
sound with this choice:

* *independence / coverage proofs* show a system infeasible; rational
  infeasibility implies integer infeasibility, so proofs are never wrong;
* *dependence reports* may be conservative (a rationally-feasible but
  integer-empty conflict system reports a dependence that does not exist),
  which can only suppress a parallelization, never break one.

Constraint normalization in :class:`~repro.linalg.constraint.Constraint`
additionally applies gcd-based integer tightening to every produced
inequality, which recovers exactness for the common single-variable cases
(e.g. ``2*i <= 5`` becomes ``i <= 2``).

The projection itself runs in the packed integer-matrix kernel
(:mod:`repro.linalg.packed`): it lowers the system once into a dense
integer form, eliminates there, and re-interns only final results.
Region projection repeatedly eliminates the same loop indices from the
same systems, so both entry points are memoized: :func:`eliminate_all`
on the interned identity of its arguments (``fm.eliminate_all``), each
single step on its packed form (``fm.packed.reuse``).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from typing import Iterable

from repro import perf
from repro.linalg.system import LinearSystem

# Pair-combination blowup guard: systems beyond this many constraints fall
# back to dropping the variable's constraints entirely (a coarser but still
# sound superset).
MAX_CONSTRAINTS = 600

# Intermediate systems larger than this get a cheap pairwise-redundancy
# sweep between eliminations; small systems are left untouched so their
# canonical forms (and rendered predicates) match the unswept pipeline.
SIMPLIFY_THRESHOLD = 32

_ELIM_ALL = perf.memo_table("fm.eliminate_all", cap=8192)

perf.declare("fm.fallback_drop")

#: cap on remembered analysis contexts: a long-lived ``repro serve``
#: process sees an unbounded stream of context labels, so the warned set
#: evicts oldest-first instead of growing forever
_WARNED_CONTEXTS_MAX = 512

#: analysis-context labels (procedure / loop) already warned about; the
#: warning fires once per context, further drops there only count.  A
#: dict (insertion-ordered) used as a bounded FIFO set.
_warned_contexts: dict = {}


def _reset_warned() -> None:
    _warned_contexts.clear()


perf.on_reset(_reset_warned)


def _mark_warned(ctx: str) -> bool:
    """Record *ctx* as warned-about; True when it was new (warn now)."""
    if ctx in _warned_contexts:
        return False
    if len(_warned_contexts) >= _WARNED_CONTEXTS_MAX:
        _warned_contexts.pop(next(iter(_warned_contexts)))
    _warned_contexts[ctx] = True
    return True


#: when set, fallback warnings are appended here instead of emitted
#: (batch pool workers capture, the parent replays)
_capture: list = None  # type: ignore[assignment]


@contextmanager
def capture_fallback_warnings():
    """Collect fallback warnings as ``(context, message)`` records.

    Pool workers run tasks under this context manager and ship the
    records to the parent instead of warning on their own stderr; the
    parent replays them through :func:`replay_fallback_warnings`, whose
    dedup set spans *all* workers — so a context that trips in four
    workers still warns exactly once, same as the serial path.  The
    worker-local ``_warned_contexts`` set still dedups what gets
    captured, keeping shipped records small.
    """
    global _capture
    previous = _capture
    records: list = []
    _capture = records
    try:
        yield records
    finally:
        _capture = previous


def replay_fallback_warnings(records) -> None:
    """Re-emit captured worker warnings, once per analysis context."""
    for ctx, message in records:
        if _mark_warned(ctx):
            warnings.warn(message, RuntimeWarning, stacklevel=2)


_packed_mod = None


def _packed():
    """Lazy import of the packed kernel (it imports our constants)."""
    global _packed_mod
    if _packed_mod is None:
        from repro.linalg import packed

        _packed_mod = packed
    return _packed_mod


def _note_fallback(var: str, n_pairs: int) -> None:
    """Record a precision-losing fallback drop.

    Drops are attributed to the procedure/loop being analyzed via the
    perf analysis-context stack: one warning per context (not one per FM
    call), with per-context totals in the ``fm.fallback_drop[<ctx>]``
    counters that ``--profile`` reports.
    """
    ctx = perf.current_context()
    perf.bump("fm.fallback_drop")
    perf.bump(f"fm.fallback_drop[{ctx}]")
    if _mark_warned(ctx):
        message = (
            "Fourier-Motzkin elimination of %r in %s would combine %d bound "
            "pairs (> %d); dropping the variable's constraints instead. The "
            "result is a sound superset but loses precision. Further drops "
            "here are counted in perf counter 'fm.fallback_drop[%s]' "
            "without warning." % (var, ctx, n_pairs, MAX_CONSTRAINTS * 4, ctx)
        )
        if _capture is not None:
            _capture.append((ctx, message))
        else:
            warnings.warn(message, RuntimeWarning, stacklevel=3)


def eliminate(system: LinearSystem, var: str) -> LinearSystem:
    """Project *var* out of *system* (memoized per packed step).

    Strategy: if an equality pins ``var`` with a unit coefficient, solve
    and substitute (exact over the integers).  Otherwise rewrite remaining
    equalities as inequality pairs and combine every lower bound with every
    upper bound.
    """
    if var not in system.variables():
        return system
    return _packed().eliminate_packed(system, var)


def eliminate_all(system: LinearSystem, variables: Iterable[str]) -> LinearSystem:
    """Project out *variables* one at a time, cheapest-first (memoized).

    The ordering heuristic minimizes the expected constraint growth each
    round: variables pinned by a unit-coefficient equality are eliminated
    first (exact substitution, no growth), then the variable with the
    smallest lower-bound × upper-bound product.
    """
    todo0 = tuple(sorted(v for v in set(variables) if v in system.variables()))
    if not todo0:
        return system
    key = (system, todo0)
    cached = _ELIM_ALL.data.get(key)
    if cached is not None:
        _ELIM_ALL.hits += 1
        return cached
    _ELIM_ALL.misses += 1
    current = _packed().eliminate_all_packed(system, todo0)
    _ELIM_ALL.data[key] = current
    return current
