"""The Extended Lazy Privatizing Doall (ELPD) test.

ELPD instruments every candidate loop the compiler left unparallelized
and classifies each loop's *dynamic* behaviour on a concrete input:

* **independent** — no element is touched by two different iterations
  with at least one write;
* **privatizable** — cross-iteration conflicts exist, but no iteration's
  *first* access to an element reads a value written by an earlier
  iteration (no cross-iteration flow into an exposed read), so
  per-iteration private copies with copy-in/copy-out are safe;
* **dependent** — a cross-iteration flow was observed.

Loops reported independent or privatizable are the "remaining inherently
parallel" loops of the paper's tables — parallelization guaranteed only
for the tested input, which is exactly ELPD's contract.

The implementation shadows every array element (keyed by underlying
storage buffer and flat offset, so reshaped views alias correctly) for
each dynamically active instrumented loop.  Per element it tracks the
first iteration ordinal that touched it, the last one that accessed it
and the last one that wrote it; an element is a *conflict* when more
than one iteration touched it and one of them wrote, and a *flow* when
an iteration's first touch reads a value an earlier iteration wrote.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import perf
from repro.lang.astnodes import Program
from repro.runtime.interp import Interpreter
from repro.runtime.values import ArrayStorage

try:  # pragma: no cover - exercised implicitly everywhere
    import numpy as _np
except Exception:  # pragma: no cover - environment without numpy
    _np = None

Number = Union[int, float]

_RANKING = {"not_executed": 0, "independent": 1, "privatizable": 2, "dependent": 3}


# ----------------------------------------------------------------------
# packed shadow state
# ----------------------------------------------------------------------
#: below this element count the scalar classify loop beats the NumPy
#: bulk masks (fromiter setup cost)
_BULK_MIN = 64

#: reusable column sets — (first, last-access, last-write, flags, bufs)
#: list tuples — so short-lived loop instances stop churning allocations
_POOL_MAX = 32
_pool: List[tuple] = []
_pool_stats = {"hits": 0, "misses": 0}


def _pool_acquire() -> tuple:
    if _pool:
        _pool_stats["hits"] += 1
        return _pool.pop()
    _pool_stats["misses"] += 1
    return ([], [], [], [], [])


def _pool_release(cols: tuple) -> None:
    if len(_pool) < _POOL_MAX:
        for c in cols:
            c.clear()
        _pool.append(cols)


def _pool_stats_snapshot() -> Dict[str, int]:
    return {
        "hits": _pool_stats["hits"],
        "misses": _pool_stats["misses"],
        "size": len(_pool),
    }


def _pool_clear() -> None:
    _pool.clear()
    _pool_stats["hits"] = 0
    _pool_stats["misses"] = 0


perf.register_cache(
    "elpd.shadow.pool", _pool_stats_snapshot, _pool_clear, obj=_pool
)
perf.declare("elpd.shadow.elements")


class _PackedInstance:
    """Packed shadow state for one dynamic loop instance.

    Parallel integer columns indexed by a ``(buffer id, flat offset) ->
    row`` dict: first-ordinal / last-access / last-write columns plus a
    flags column (bit 1 = any_write, bit 2 = multi_ord, bit 4 = flow).
    ``classify`` reduces the flags/bufs columns in bulk with NumPy masks
    when NumPy is installed.  Verdicts are pinned against a per-element
    dict shadow (``tests/runtime/reference.py``) by the differential
    suites.
    """

    __slots__ = (
        "label",
        "ordinal",
        "index",
        "array_of",
        "_cols",
        "_first",
        "_lastacc",
        "_lastw",
        "_flags",
        "_bufs",
    )

    def __init__(self, label: str) -> None:
        self.label = label
        self.ordinal = -1
        self.index: Dict[Tuple[int, int], int] = {}
        self.array_of: Dict[int, str] = {}
        cols = _pool_acquire()
        self._cols = cols
        self._first, self._lastacc, self._lastw, self._flags, self._bufs = cols

    def record(self, kind: str, storage: ArrayStorage, offset: int) -> None:
        ord_ = self.ordinal
        if ord_ < 0:
            return  # access outside any iteration (loop bounds eval)
        buf = id(storage.data)
        key = (buf, offset)
        row = self.index.get(key)
        if row is None:
            # fresh element: first touch, no earlier write to read
            self.index[key] = len(self._flags)
            self.array_of[buf] = storage.name
            self._first.append(ord_)
            self._lastacc.append(ord_)
            if kind == "w":
                self._lastw.append(ord_)
                self._flags.append(1)
            else:
                self._lastw.append(-1)
                self._flags.append(0)
            self._bufs.append(buf)
            return
        f = self._flags[row]
        if ord_ != self._lastacc[row]:
            if kind == "r" and 0 <= self._lastw[row] < ord_:
                f |= 4  # first touch this iteration reads an earlier write
        if ord_ != self._first[row]:
            f |= 2  # touched by more than one iteration
        self._lastacc[row] = ord_
        if kind == "w":
            f |= 1
            self._lastw[row] = ord_
        self._flags[row] = f

    def classify(self) -> Tuple[str, Set[str], Set[str]]:
        flags = self._flags
        n = len(flags)
        perf.bump("elpd.shadow.elements", n)
        conflict_arrays: Set[str] = set()
        flow_arrays: Set[str] = set()
        if _np is not None and n >= _BULK_MIN:
            fl = _np.fromiter(flags, _np.int64, count=n)
            flow_mask = (fl & 4) != 0
            conf_mask = ((fl & 3) == 3) & ~flow_mask
            if flow_mask.any() or conf_mask.any():
                bufs = _np.fromiter(self._bufs, _np.int64, count=n)
                array_of = self.array_of
                for b in _np.unique(bufs[flow_mask]).tolist():
                    flow_arrays.add(array_of[b])
                for b in _np.unique(bufs[conf_mask]).tolist():
                    conflict_arrays.add(array_of[b])
        else:
            bufs = self._bufs
            array_of = self.array_of
            for row in range(n):
                f = flags[row]
                if f & 4:
                    flow_arrays.add(array_of[bufs[row]])
                elif (f & 3) == 3:
                    conflict_arrays.add(array_of[bufs[row]])
        if flow_arrays:
            return "dependent", conflict_arrays, flow_arrays
        if conflict_arrays:
            return "privatizable", conflict_arrays, flow_arrays
        return "independent", conflict_arrays, flow_arrays

    def release(self) -> None:
        """Return the columns to the pool (instance is done)."""
        cols = self._cols
        self._cols = None
        self._first = self._lastacc = self._lastw = None
        self._flags = self._bufs = None
        if cols is not None:
            _pool_release(cols)


@dataclass
class LoopObservation:
    """Aggregated dynamic verdict for one loop label."""

    label: str
    instances: int = 0
    classification: str = "not_executed"
    conflict_arrays: Set[str] = field(default_factory=set)
    flow_arrays: Set[str] = field(default_factory=set)
    total_iterations: int = 0

    def merge(self, cls: str, conflicts: Set[str], flows: Set[str], iters: int) -> None:
        self.instances += 1
        self.total_iterations += iters
        if _RANKING[cls] > _RANKING[self.classification]:
            self.classification = cls
        self.conflict_arrays |= conflicts
        self.flow_arrays |= flows

    @property
    def dynamically_parallel(self) -> bool:
        return self.classification in ("independent", "privatizable")


@dataclass
class ElpdReport:
    """ELPD results for one program run."""

    observations: Dict[str, LoopObservation] = field(default_factory=dict)
    steps: int = 0

    def parallelizable_labels(self) -> List[str]:
        return sorted(
            label
            for label, obs in self.observations.items()
            if obs.dynamically_parallel
        )

    def dependent_labels(self) -> List[str]:
        return sorted(
            label
            for label, obs in self.observations.items()
            if obs.classification == "dependent"
        )


class _ElpdHook:
    """Interpreter loop hook feeding the shadow instances."""

    #: shadow state of one loop instance (the differential tests put a
    #: reference dict shadow here)
    shadow = _PackedInstance

    def __init__(self, targets: Optional[Set[str]]) -> None:
        self.targets = targets
        self.active: List[Optional[_PackedInstance]] = []
        self.report = ElpdReport()
        self._iter_counts: List[int] = []

    def enter_loop(self, stmt, frame, ran_parallel):
        if self.targets is not None and stmt.label not in self.targets:
            self.active.append(None)  # placeholder to keep stack aligned
            self._iter_counts.append(0)
            return len(self.active) - 1
        self.active.append(self.shadow(stmt.label))
        self._iter_counts.append(0)
        return len(self.active) - 1

    def iter_start(self, token, ivalue):
        inst = self.active[token]
        self._iter_counts[token] += 1
        if inst is not None:
            inst.ordinal += 1

    def exit_loop(self, token):
        inst = self.active.pop()
        iters = self._iter_counts.pop()
        if inst is None:
            return
        with perf.phase("elpd.shadow"):
            cls, conflicts, flows = inst.classify()
        inst.release()
        obs = self.report.observations.setdefault(
            inst.label, LoopObservation(inst.label)
        )
        obs.merge(cls, conflicts, flows, iters)

    def record_access(self, kind: str, storage: ArrayStorage, offset: int) -> None:
        for inst in self.active:
            if inst is not None:
                inst.record(kind, storage, offset)


def static_scalar_obstacles(program: Program) -> Dict[str, Set[str]]:
    """Per-loop scalars that carry a genuine cross-iteration dependence.

    ELPD instruments *array* accesses ("accesses to all arrays reported
    by the compiler as being involved in a dependence were
    instrumented"); scalar recurrences are resolved by the compiler's
    scalar analysis.  This helper reproduces that static side so the
    combined oracle (:func:`run_oracle`) matches the paper's notion of
    an inherently parallel loop.
    """
    from repro.ir.loopinfo import collect_loop_info
    from repro.ir.regiongraph import build_region_tree
    from repro.ir.symboltable import SymbolTable
    from repro.lang.astnodes import DoLoop, walk_stmts

    out: Dict[str, Set[str]] = {}
    for unit in program.units.values():
        symtab = SymbolTable(unit)
        proc = build_region_tree(unit)
        for loop, info in collect_loop_info(proc).items():
            inner = {
                s.var for s in walk_stmts(loop.body) if isinstance(s, DoLoop)
            }
            obstacles = {
                name
                for name in info.scalar_writes
                if name != loop.var
                and name not in inner
                and symtab.is_scalar(name)
                and name in info.scalar_exposed_reads
                and name not in info.reductions
            }
            if obstacles:
                out[loop.label] = obstacles
    return out


def run_oracle(
    program: Program,
    inputs: Sequence[Number] = (),
    target_labels: Optional[Sequence[str]] = None,
    max_steps: int = 10_000_000,
) -> ElpdReport:
    """ELPD array instrumentation + static scalar-recurrence screening.

    Loops whose scalars carry a cross-iteration dependence are demoted
    to ``dependent`` regardless of their array behaviour.
    """
    report = run_elpd(program, inputs, target_labels, max_steps)
    for label, names in static_scalar_obstacles(program).items():
        obs = report.observations.get(label)
        if obs is not None:
            obs.classification = "dependent"
            obs.flow_arrays |= {f"<scalar:{n}>" for n in names}
    return report


def run_elpd(
    program: Program,
    inputs: Sequence[Number] = (),
    target_labels: Optional[Sequence[str]] = None,
    max_steps: int = 10_000_000,
) -> ElpdReport:
    """Run the program with ELPD instrumentation.

    *target_labels* restricts instrumentation (the paper instruments the
    loops the compiler could not parallelize); ``None`` instruments all.
    """
    targets = set(target_labels) if target_labels is not None else None
    hook = _ElpdHook(targets)
    interp = Interpreter(
        program,
        inputs,
        access_hook=hook.record_access,
        loop_hook=hook,
        max_steps=max_steps,
    )
    result = interp.run()
    hook.report.steps = result.steps
    # loops named as targets but never executed
    if targets is not None:
        for label in targets:
            hook.report.observations.setdefault(
                label, LoopObservation(label)
            )
    return hook.report
