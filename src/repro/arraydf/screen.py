"""Tier-0 graph-based dependence screen.

A lightweight dependence identifier (after Alluru et al.'s graph-based
data-dependence framework) that runs *before* the predicated array
data-flow analysis.  For each loop it builds a small access graph from
cheap syntactic/affine facts — distinct array names never conflict,
read-only arrays carry no cross-iteration dependence, and accesses
whose subscripts provably move with the loop index are disjoint between
iterations — and classifies the loop:

``independent``
    every written array has a *witness dimension*: a subscript position
    where all of the array's accesses use the same loop-variant affine
    expression, so any two iterations touch provably disjoint elements
    (and the scalar story is clean: no exposed scalar flow, no
    reductions);
``not_candidate``
    ineligible for parallelization for a reason reproducible from
    syntax alone (I/O, early return, variant bounds, non-constant step);
``unknown``
    everything else — the full analysis proceeds unchanged.

Soundness contract (proven by the differential sweep in
``tests/integration/test_screen_soundness.py``): a loop screened
``independent`` is always one the full predicated analysis proves
parallel outright — the screen's witness implies that every conflict
system the dependence test would build contains ``d_k = f(i1) ∧
d_k = f(i2) ∧ i1 < i2`` with ``f`` loop-variant affine, which is
rationally infeasible.  The screen therefore synthesizes the *exact*
decision row ``decide_loop`` would produce (status ``parallel``,
condition ``TRUE``, per-array verdicts ``ArrayVerdict(a, TRUE,
FALSE)``), letting the pipeline skip region summarization for units it
covers completely (see :class:`repro.pipeline.passes.ScreenPass`).

The screen never consults budgets — it is pure syntax — and always
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import perf
from repro.ir.exprtools import to_affine
from repro.ir.loopinfo import LoopInfo, collect_loop_info
from repro.ir.regiongraph import LoopRegion, ProcRegion, build_region_tree
from repro.lang.astnodes import (
    ArrayRef,
    Assign,
    DoLoop,
    Subroutine,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)
from repro.predicates.formula import FALSE, TRUE

for _name in (
    "screen.independent",
    "screen.unknown",
    "screen.agree",
    "screen.disagree",
    "screen.saved_units",
):
    perf.declare(_name)

#: cap on per-array accesses the screen reasons about; beyond it the
#: analysis's region unions may hull-widen (region budget) and the
#: witness argument no longer tracks what the summaries actually hold
MAX_ACCESSES = 8


@dataclass
class AccessGraph:
    """The screen's per-loop dependence graph for one written array.

    Nodes are the distinct accesses (affine subscript signatures);
    ``witness_dim`` is the subscript position proving every
    cross-iteration pair disjoint, or ``None`` when conflict edges
    remain and the array stays with the full analysis.
    """

    array: str
    accesses: List[Tuple] = field(default_factory=list)
    witness_dim: Optional[int] = None

    @property
    def independent(self) -> bool:
        return self.witness_dim is not None


@dataclass
class UnitScreen:
    """Screen output for one unit: per-loop verdicts + pre-made rows."""

    unit_name: str
    verdicts: Dict[str, str]  # label -> independent | unknown | not_candidate
    rows: Dict[str, dict]  # label -> synthesized decision row
    order: List[str]  # loop labels, summary (post-)order
    full_cover: bool  # every loop has a pre-made row
    skip_summary: bool = False  # derived: full_cover and no callers

    @property
    def independent_labels(self) -> List[str]:
        return [l for l, v in self.verdicts.items() if v == "independent"]


class ScreenedUnit:
    """Sentinel summary for a unit whose data-flow walk was skipped."""

    __slots__ = ("unit_name",)

    def __init__(self, unit_name: str) -> None:
        self.unit_name = unit_name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScreenedUnit({self.unit_name})"


# ----------------------------------------------------------------------
# per-loop classification
# ----------------------------------------------------------------------


def _collect_accesses(loop: DoLoop) -> Tuple[Set[str], Dict[str, List[ArrayRef]]]:
    """All array references in the loop body, grouped by array name.

    Over-collects relative to the analysis (which ignores reads in
    branch conditions and loop bounds) — a superset can only make the
    screen more conservative, never unsound.
    """
    written: Set[str] = set()
    refs: Dict[str, List[ArrayRef]] = {}
    for s in walk_stmts(loop.body):
        if isinstance(s, Assign) and isinstance(s.target, ArrayRef):
            written.add(s.target.name)
        for e in stmt_exprs(s):
            for node in walk_exprs(e):
                if isinstance(node, ArrayRef):
                    refs.setdefault(node.name, []).append(node)
    return written, refs


def _witness_dim(
    accesses: List[ArrayRef], index: str, variant: Set[str]
) -> Optional[int]:
    """A subscript dimension proving cross-iteration disjointness.

    Dimension ``k`` is a witness when every access subscripts it with
    one and the same affine expression ``f``, ``f`` moves with the loop
    index (non-zero coefficient) and mentions no other variable the
    loop writes — then any conflict system conjoins ``d_k = f(i1)``
    with ``d_k = f(i2)`` and ``i1 < i2``, which has no rational
    solution.
    """
    if not accesses:
        return None
    ndims = len(accesses[0].subscripts)
    if any(len(a.subscripts) != ndims for a in accesses):
        return None
    for k in range(ndims):
        f = to_affine(accesses[0].subscripts[k])
        if f is None:
            continue
        coeff = dict(f.terms()).get(index)
        if not coeff:
            continue
        if (set(f.variables()) - {index}) & variant:
            continue
        if all(to_affine(a.subscripts[k]) == f for a in accesses[1:]):
            return k
    return None


def _inner_loops_nonempty(loop: DoLoop) -> bool:
    """Reject constant-bounds inner loops that provably never run.

    An inner loop with zero iterations contributes nothing to the outer
    body's summary, so an array written only under it would vanish from
    the analysis's write set while the screen still predicts a verdict
    for it.
    """
    for s in walk_stmts(loop.body):
        if not isinstance(s, DoLoop):
            continue
        lo, hi = to_affine(s.lo), to_affine(s.hi)
        step = to_affine(s.step) if s.step is not None else None
        if lo is None or hi is None or not lo.is_constant() or not hi.is_constant():
            continue
        down = step is not None and step.is_constant() and step.constant < 0
        if (hi.constant < lo.constant) if not down else (lo.constant < hi.constant):
            return False
    return True


def _scalar_classes(
    loop: DoLoop, info: LoopInfo, symtab
) -> Tuple[Set[str], Set[str], Set[str]]:
    """(obstacles, reductions, privates) — the dependence test's scalar
    classification, reproduced from syntactic facts.

    For call-free loops ``info.scalar_writes`` equals the body value's
    scalar write set, so this matches ``test_loop`` exactly.
    """
    inner_indices = {
        s.var for s in walk_stmts(loop.body) if isinstance(s, DoLoop)
    }
    obstacles: Set[str] = set()
    reductions: Set[str] = set()
    privates: Set[str] = set()
    for name in sorted(info.scalar_writes):
        if name == loop.var or name in inner_indices:
            continue
        if not symtab.is_scalar(name):
            continue
        if name in info.reductions:
            reductions.add(name)
        elif name in info.scalar_exposed_reads:
            obstacles.add(name)
        else:
            privates.add(name)
    return obstacles, reductions, privates


def screen_loop(
    region: LoopRegion, info: LoopInfo, symtab
) -> Tuple[str, Optional[dict], List[AccessGraph]]:
    """Classify one loop; returns (verdict, row-or-None, access graphs).

    The row, when present, is exactly the dict
    :func:`repro.partests.driver._decision_rows` would produce for this
    loop — either a ``not_candidate`` row or a screened ``parallel``
    row.
    """
    loop = region.stmt
    depth = region.loop_depth()
    if not info.is_candidate:
        reason = (
            "io" if info.has_io
            else "return" if info.has_return
            else "bounds" if not info.bounds_invariant
            else "step"
        )
        row = _row(loop.label, "not_candidate", reason=reason, depth=depth)
        return "not_candidate", row, []

    if info.has_calls or not _inner_loops_nonempty(loop):
        return "unknown", None, []

    obstacles, reductions, privates = _scalar_classes(loop, info, symtab)
    if obstacles or reductions:
        return "unknown", None, []

    written, refs = _collect_accesses(loop)
    variant = set(info.scalar_writes)
    graphs: List[AccessGraph] = []
    for array in sorted(written):
        accesses = refs.get(array, [])
        graph = AccessGraph(array, [tuple(a.subscripts) for a in accesses])
        if len(accesses) <= MAX_ACCESSES:
            graph.witness_dim = _witness_dim(accesses, loop.var, variant)
        graphs.append(graph)
    if not all(g.independent for g in graphs):
        return "unknown", None, graphs

    from repro.partests.dependence import ArrayVerdict

    row = _row(
        loop.label,
        "parallel",
        condition=TRUE,
        private_scalars=sorted(privates),
        depth=depth,
        verdict=(
            {a: ArrayVerdict(a, TRUE, FALSE) for a in sorted(written)},
            frozenset(),
            frozenset(),
            frozenset(privates),
        ),
    )
    return "independent", row, graphs


def _row(
    label: str,
    status: str,
    condition=None,
    private_scalars: Optional[List[str]] = None,
    reason: str = "",
    depth: int = 0,
    verdict=None,
) -> dict:
    return {
        "label": label,
        "status": status,
        "condition": condition,
        "runtime_test": None,
        "runtime_cost": 0,
        "private_arrays": [],
        "private_scalars": private_scalars or [],
        "reduction_scalars": [],
        "reason": reason,
        "depth": depth,
        "verdict": verdict,
    }


# ----------------------------------------------------------------------
# per-unit driver
# ----------------------------------------------------------------------


def _post_order_labels(proc: ProcRegion) -> List[Tuple[LoopRegion, str]]:
    """Loop regions in post-order — the order the data-flow walker
    inserts loop summaries (and hence the order decisions are emitted)."""
    out: List[Tuple[LoopRegion, str]] = []

    def visit(region) -> None:
        for c in region.children():
            visit(c)
        if isinstance(region, LoopRegion):
            out.append((region, region.stmt.label))

    visit(proc)
    return out


def screen_unit(unit: Subroutine, symtab) -> UnitScreen:
    """Screen every loop of one (scalar-propagated) unit."""
    proc = build_region_tree(unit)
    infos = collect_loop_info(proc)
    verdicts: Dict[str, str] = {}
    rows: Dict[str, dict] = {}
    order: List[str] = []
    for region, label in _post_order_labels(proc):
        verdict, row, _graphs = screen_loop(region, infos[region.stmt], symtab)
        verdicts[label] = verdict
        if row is not None:
            rows[label] = row
        order.append(label)
        perf.bump(
            "screen.independent" if verdict == "independent" else "screen.unknown"
        )
    return UnitScreen(
        unit_name=unit.name,
        verdicts=verdicts,
        rows=rows,
        order=order,
        full_cover=len(rows) == len(order),
    )


def empty_screen(unit_name: str) -> UnitScreen:
    """A screen that settles nothing: every loop goes to the full
    analysis (the unscreened reference the soundness tests compare
    against)."""
    return UnitScreen(
        unit_name=unit_name, verdicts={}, rows={}, order=[], full_cover=False
    )


def screen_payload(screen: UnitScreen) -> dict:
    """Cacheable projection: pure content facts, no derived flags.

    ``skip_summary`` depends on the *callers* of the unit, which the
    unit's own content key cannot see — it is recomputed after load.
    """
    return {
        "verdicts": screen.verdicts,
        "rows": screen.rows,
        "order": screen.order,
        "full_cover": screen.full_cover,
    }


def rebind_screen(payload, unit_name: str) -> Optional[UnitScreen]:
    """Rehydrate a cached screen payload; ``None`` on shape mismatch."""
    try:
        screen = UnitScreen(
            unit_name=unit_name,
            verdicts=dict(payload["verdicts"]),
            rows=dict(payload["rows"]),
            order=list(payload["order"]),
            full_cover=bool(payload["full_cover"]),
        )
    except (KeyError, TypeError, ValueError):
        return None
    for label, verdict in screen.verdicts.items():
        perf.bump(
            "screen.independent" if verdict == "independent" else "screen.unknown"
        )
    return screen
