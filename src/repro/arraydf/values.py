"""Predicated data-flow values and their composition operations.

An :class:`AccessValue` summarizes one program region's array accesses:

``r`` : :class:`SummarySet`
    may-read — over-approximation, unguarded (a guard would only ever be
    weakened to TRUE for soundness, so we keep TRUE throughout);
``w`` : :class:`SummarySet`
    may-write — over-approximation, unguarded, used by the dependence
    tests where *missing* a write would be unsound;
``w_alts`` : tuple of :class:`GuardedSummary`
    guarded may-write refinements: «if the guard holds at region entry,
    the writes are *contained in* the summary».  The unguarded ``w``
    always appears as the TRUE default.  These power predicated
    independence proofs (Figure 1(a) of the paper);
``m`` : tuple of :class:`GuardedSummary`
    must-write alternatives: «if the guard holds at region entry, the
    region definitely writes (at least) the summary».  Multiple guarded
    alternatives realize the paper's ⟨predicate, value⟩ pairs;
``e`` : tuple of :class:`GuardedSummary`
    exposed-read alternatives: «if the guard holds at region entry, the
    upward-exposed reads are *contained in* the summary».  Always ends
    with an unguarded (TRUE) default.

``scalar_writes`` records which scalars the region may write — guards of
a following region that mention them cannot be hoisted across this one
and are weakened (PredUnion/PredSubtract's modified-variable rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.predicates.formula import (
    Predicate,
    TRUE,
    p_and,
    p_not,
)
from repro.predicates.simplify import equivalent, implies, is_unsat
from repro.regions.summary import SummarySet


@dataclass(frozen=True)
class GuardedSummary:
    """One ⟨predicate, summary⟩ pair."""

    pred: Predicate
    summary: SummarySet

    def is_default(self) -> bool:
        return self.pred.is_true()


def _guard_ok(pred: Predicate, clobbered: FrozenSet[str]) -> bool:
    """May *pred* be interpreted at an earlier program point, given the
    set of variables written in between?"""
    return not (pred.variables() & clobbered)


#: memoized SummarySet.covers — containment tests repeat heavily across
#: dedup calls (cleared by perf.reset_all_caches like every oracle table)
_COVERS = perf.memo_table("pred.oracle.covers", cap=32768)


def _covers(a: SummarySet, b: SummarySet) -> bool:
    """``b ⊆ a``, memoized."""
    if a is b:
        return True
    key = (a, b)
    hit = _COVERS.data.get(key, perf.MISS)
    if hit is not perf.MISS:
        _COVERS.hits += 1
        return hit
    _COVERS.misses += 1
    result = a.covers(b)
    _COVERS.data[key] = result
    return result


def _summary_strength(s: SummarySet) -> Tuple[int, int]:
    """Deterministic size proxy: (region count, -total constraint count).

    Fewer regions and, among equal counts, more constraints ≈ a tighter
    (stronger) over-approximation.
    """
    nconstraints = 0
    for r in s.all_regions():
        nconstraints += len(r.system.constraints)
    return (s.region_count(), -nconstraints)


def _rank_key(g: GuardedSummary, keep: str):
    """Canonical strength ordering for the capped kept set.

    Strongest first: for over-approximating lists (``min``) smaller
    summaries rank earlier, for must-write lists (``max``) larger ones.
    The textual tail makes the order total, so the kept set depends only
    on the *set* of entries, never on input order.
    """
    size = _summary_strength(g.summary)
    if keep == "max":
        size = (-size[0], -size[1])
    return (size, str(g.pred), str(g.summary))


def _equiv_guards(p: Predicate, q: Predicate) -> bool:
    if p is q or p == q:
        return True
    # equivalent satisfiable, non-trivial guards share their variable
    # set in all but degenerate cases; the cheap prefilter bounds the
    # oracle work (missing a merge is only a lost optimization)
    if p.variables() != q.variables():
        return False
    return equivalent(p, q)


def _merge_summaries(a: SummarySet, b: SummarySet, keep: str) -> SummarySet:
    """Combine the summaries of two provably-equivalent guards."""
    if keep == "min":  # both are upper bounds: keep the tighter
        if _covers(a, b):
            return b
        if _covers(b, a):
            return a
        return a.intersect_pairwise(b)
    # both are must-write lower bounds: keep the larger
    if _covers(a, b):
        return a
    if _covers(b, a):
        return b
    return a.union(b)


def _dominated(g: GuardedSummary, k: GuardedSummary, keep: str) -> bool:
    """Is *g* redundant given the kept entry *k*?

    Yes when *k*'s guard is weaker-or-equal (``g.pred → k.pred``) and
    *k*'s summary already carries at least as much information: for
    over-approximating lists (``min``) ``k.summary ⊆ g.summary``, for
    must-writes (``max``) ``k.summary ⊇ g.summary``.
    """
    if not (k.pred.variables() <= g.pred.variables()):
        return False  # implication cannot be proven structurally relevant
    if keep == "min":
        if not _covers(g.summary, k.summary):
            return False
    else:
        if not _covers(k.summary, g.summary):
            return False
    return implies(g.pred, k.pred)


def _dedup_guarded(
    items: Iterable[GuardedSummary], cap: int, keep: str = "first"
) -> Tuple[GuardedSummary, ...]:
    """Semantic compaction of a guarded list; cap the result.

    Drops unsatisfiable guards and syntactic duplicates, then — for the
    directed modes — merges entries whose guards are provably equivalent
    (intersecting summaries for ``min`` lists, unioning for ``max``) and
    drops entries dominated by an already-kept one (weaker-or-equal
    guard *and* covered summary).  The cap keeps the strongest entries
    under a canonical ranking (:func:`_rank_key`), so the kept set is
    independent of input order.

    The TRUE default is always kept and placed last.  When several TRUE
    entries compete, *keep* selects the winner: ``"min"`` prefers the
    summary covered by the incumbent (tightest over-approximation, for
    exposed/write bounds), ``"max"`` the covering one (largest must-
    write), ``"first"`` keeps the first seen (legacy mode: default
    selection is order-dependent and no semantic merging is applied,
    since the list's approximation direction is unknown).
    """
    default: Optional[GuardedSummary] = None
    entries: List[GuardedSummary] = []
    seen = set()
    for g in items:
        if g.pred.is_false() or is_unsat(g.pred):
            continue
        if g.pred.is_true():
            if default is None:
                default = g
            elif keep == "min" and _covers(default.summary, g.summary):
                default = g
            elif keep == "max" and _covers(g.summary, default.summary):
                default = g
            continue
        key = (g.pred, g.summary)
        if key in seen:
            continue
        seen.add(key)
        entries.append(g)
    entries.sort(key=lambda g: _rank_key(g, keep))
    limit = max(0, cap - (1 if default is not None else 0))
    kept: List[GuardedSummary] = []
    semantic = keep in ("min", "max")
    for g in entries:
        if len(kept) >= limit:
            break
        placed = False
        if semantic:
            for j, k in enumerate(kept):
                if _equiv_guards(k.pred, g.pred):
                    kept[j] = GuardedSummary(
                        k.pred, _merge_summaries(k.summary, g.summary, keep)
                    )
                    placed = True
                    break
                if _dominated(g, k, keep):
                    placed = True
                    break
        if not placed:
            kept.append(g)
    if default is not None:
        kept.append(default)
    return tuple(kept)


@dataclass(frozen=True)
class AccessValue:
    """The data-flow value of one program region."""

    r: SummarySet
    w: SummarySet
    m: Tuple[GuardedSummary, ...]
    e: Tuple[GuardedSummary, ...]
    w_alts: Tuple[GuardedSummary, ...] = ()
    scalar_writes: FrozenSet[str] = frozenset()

    def __post_init__(self):
        if not self.w_alts:
            object.__setattr__(
                self, "w_alts", (GuardedSummary(TRUE, self.w),)
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty() -> "AccessValue":
        return _EMPTY

    @staticmethod
    def leaf(
        reads: SummarySet,
        writes: SummarySet,
        scalar_writes: FrozenSet[str] = frozenset(),
    ) -> "AccessValue":
        """Value of a single statement: reads happen before writes, so
        every read is exposed; the write is unconditional."""
        return AccessValue(
            r=reads,
            w=writes,
            m=(GuardedSummary(TRUE, writes),),
            e=(GuardedSummary(TRUE, reads),),
            scalar_writes=scalar_writes,
        )

    # ------------------------------------------------------------------
    # defaults
    # ------------------------------------------------------------------
    def must_default(self) -> SummarySet:
        """The unguarded must-write summary (∅ if no TRUE alternative)."""
        for g in self.m:
            if g.is_default():
                return g.summary
        return SummarySet.empty()

    def exposed_default(self) -> SummarySet:
        """The unguarded exposed-read over-approximation."""
        for g in self.e:
            if g.is_default():
                return g.summary
        # e must always carry a default; fall back to r for safety
        return self.r

    def guard_variables(self) -> FrozenSet[str]:
        vs: set = set()
        for g in self.m + self.e:
            vs |= g.pred.variables()
        return frozenset(vs)

    def clobbered_names(self) -> FrozenSet[str]:
        """Names whose value this region may change (scalars + arrays)."""
        return self.scalar_writes | frozenset(self.w.arrays())


_EMPTY = AccessValue(
    r=SummarySet.empty(),
    w=SummarySet.empty(),
    m=(GuardedSummary(TRUE, SummarySet.empty()),),
    e=(GuardedSummary(TRUE, SummarySet.empty()),),
)


# ----------------------------------------------------------------------
# sequential composition
# ----------------------------------------------------------------------


def seq_compose(
    v1: AccessValue, v2: AccessValue, opts: AnalysisOptions
) -> AccessValue:
    """Value of ``v1 ; v2`` (both always execute, in order).

    ``R = R1 ∪ R2``;  ``W = W1 ∪ W2``;
    ``M = M1 ∪ M2`` per guarded pair (guards of v2 must survive v1's
    writes); ``E = E1 ∪ (E2 − M1)`` with the predicated subtraction
    supplied by :mod:`repro.arraydf.extraction`.
    """
    from repro.arraydf.extraction import pred_subtract

    budget = opts.region_budget
    clobbered = v1.clobbered_names()

    r = v1.r.union(v2.r, budget)
    w = v1.w.union(v2.w, budget)

    # guarded may-writes
    w_alts: List[GuardedSummary] = []
    for g1 in v1.w_alts:
        for g2 in v2.w_alts:
            if not _guard_ok(g2.pred, clobbered):
                # under g1's guard the writes stay within S1 ∪ (all of v2)
                w_alts.append(
                    GuardedSummary(g1.pred, g1.summary.union(v2.w, budget))
                )
                continue
            w_alts.append(
                GuardedSummary(
                    p_and(g1.pred, g2.pred),
                    g1.summary.union(g2.summary, budget),
                )
            )
    if not any(g.is_default() for g in w_alts):
        w_alts.append(GuardedSummary(TRUE, w))

    # must-writes
    m_alts: List[GuardedSummary] = []
    for g1 in v1.m:
        for g2 in v2.m:
            if not _guard_ok(g2.pred, clobbered):
                # g2 cannot be hoisted to v1's entry: weaken to ∅
                m_alts.append(GuardedSummary(g1.pred, g1.summary))
                continue
            pred = p_and(g1.pred, g2.pred)
            m_alts.append(
                GuardedSummary(pred, g1.summary.union(g2.summary, budget))
            )
    if not any(g.is_default() for g in m_alts):
        m_alts.append(GuardedSummary(TRUE, v1.must_default()))

    # exposed reads: E1 ∪ (E2 − M1)
    e_alts: List[GuardedSummary] = []
    for g1e in v1.e:
        for g1m in v1.m:
            for g2e in v2.e:
                if not _guard_ok(g2e.pred, clobbered):
                    continue
                base_pred = p_and(g1e.pred, g1m.pred, g2e.pred)
                # an unsat base guard would be dropped by the dedup pass
                # anyway; refuting it now (memoized) skips the expensive
                # predicated subtraction
                if base_pred.is_false() or is_unsat(base_pred):
                    continue
                for sub_pred, subtracted in pred_subtract(
                    g2e.summary, g1m.summary, opts
                ):
                    pred = p_and(base_pred, sub_pred)
                    if pred.is_false():
                        continue
                    e_alts.append(
                        GuardedSummary(
                            pred, g1e.summary.union(subtracted, budget)
                        )
                    )
    # unconditional default: E1_def ∪ (E2_def − M1_def)
    default_e = v1.exposed_default().union(
        v2.exposed_default().subtract(v1.must_default()), budget
    )
    e_alts.append(GuardedSummary(TRUE, default_e))

    return AccessValue(
        r=r,
        w=w,
        m=_dedup_guarded(m_alts, opts.max_guarded, keep="max"),
        e=_dedup_guarded(e_alts, opts.max_guarded, keep="min"),
        w_alts=_dedup_guarded(w_alts, opts.max_guarded, keep="min"),
        scalar_writes=v1.scalar_writes | v2.scalar_writes,
    )


def seq_compose_all(
    values: Iterable[AccessValue], opts: AnalysisOptions
) -> AccessValue:
    acc = AccessValue.empty()
    for v in values:
        acc = seq_compose(acc, v, opts)
    return acc


# ----------------------------------------------------------------------
# control-flow join (if/else)
# ----------------------------------------------------------------------


def branch_join(
    cond: Predicate,
    v_then: AccessValue,
    v_else: AccessValue,
    opts: AnalysisOptions,
) -> AccessValue:
    """PredUnion at a structured conditional.

    May-information unions the branches.  With predicates enabled, the
    must/exposed alternatives of each branch are guarded by the branch
    condition (⟨p, v_then⟩ ⊎ ⟨¬p, v_else⟩), and the classic unguarded
    meet (``M_then ∩ M_else``, ``E_then ∪ E_else``) is kept as the
    default.
    """
    budget = opts.region_budget
    r = v_then.r.union(v_else.r, budget)
    w = v_then.w.union(v_else.w, budget)

    default_m = v_then.must_default().intersect_pairwise(v_else.must_default())
    default_e = v_then.exposed_default().union(v_else.exposed_default(), budget)

    m_alts: List[GuardedSummary] = []
    e_alts: List[GuardedSummary] = []
    w_alts: List[GuardedSummary] = []
    if opts.predicates and not cond.is_true() and not cond.is_false():
        ncond = p_not(cond)
        for g in v_then.m:
            m_alts.append(GuardedSummary(p_and(cond, g.pred), g.summary))
        for g in v_else.m:
            m_alts.append(GuardedSummary(p_and(ncond, g.pred), g.summary))
        for g in v_then.e:
            e_alts.append(GuardedSummary(p_and(cond, g.pred), g.summary))
        for g in v_else.e:
            e_alts.append(GuardedSummary(p_and(ncond, g.pred), g.summary))
        for g in v_then.w_alts:
            w_alts.append(GuardedSummary(p_and(cond, g.pred), g.summary))
        for g in v_else.w_alts:
            w_alts.append(GuardedSummary(p_and(ncond, g.pred), g.summary))
    m_alts.append(GuardedSummary(TRUE, default_m))
    e_alts.append(GuardedSummary(TRUE, default_e))
    w_alts.append(GuardedSummary(TRUE, w))

    return AccessValue(
        r=r,
        w=w,
        m=_dedup_guarded(m_alts, opts.max_guarded, keep="max"),
        e=_dedup_guarded(e_alts, opts.max_guarded, keep="min"),
        w_alts=_dedup_guarded(w_alts, opts.max_guarded, keep="min"),
        scalar_writes=v_then.scalar_writes | v_else.scalar_writes,
    )


# ----------------------------------------------------------------------
# guarded-alternative merge (call sites, reshape results)
# ----------------------------------------------------------------------


def guarded_value(
    alternatives: List[Tuple[Predicate, SummarySet]],
    may: SummarySet,
    kind: str,
    opts: AnalysisOptions,
) -> Tuple[GuardedSummary, ...]:
    """Package reshape alternatives into a guarded list.

    *kind* is ``"must"`` (default ∅ unless provided) or ``"exposed"``
    (default = *may*).
    """
    out = [GuardedSummary(p, s) for p, s in alternatives]
    if not any(g.is_default() for g in out):
        default = SummarySet.empty() if kind == "must" else may
        out.append(GuardedSummary(TRUE, default))
    if not opts.predicates:
        out = [g for g in out if g.is_default()]
    return _dedup_guarded(out, opts.max_guarded)
