"""Soundness tests for the tiered predicate oracle.

The oracle's contract is *byte-identity*: every ``is_unsat`` /
``implies`` / ``equivalent`` answer must equal the ground (untiered,
unmemoized) path's answer, :func:`oracle.ground_is_unsat`.  These tests
drive a seeded random corpus of guard-shaped predicates through both
paths and through the interval tier directly, so any tier that
over-claims is caught against the exact Fourier–Motzkin ground truth.
"""

import random

import pytest

from repro import perf
from repro.linalg import intervals
from repro.linalg.constraint import Constraint
from repro.linalg.feasibility import is_feasible
from repro.linalg.system import LinearSystem
from repro.predicates import oracle
from repro.predicates.atoms import DivAtom, LinAtom, OpaqueAtom
from repro.predicates.formula import FALSE, TRUE, p_and, p_atom, p_not, p_or
from repro.predicates.simplify import equivalent, simplify
from repro.symbolic.affine import AffineExpr

C = AffineExpr.const
V = [AffineExpr.var(n) for n in ("x", "y", "z")]


@pytest.fixture(autouse=True)
def _fresh_oracle():
    """Each test starts with every cache cold."""
    perf.reset_all_caches()
    perf.reset_counters()
    yield
    perf.reset_all_caches()


def _random_atom(rng: random.Random):
    kind = rng.randrange(6)
    v = V[rng.randrange(len(V))]
    c = C(rng.randrange(-4, 5))
    if kind == 0:
        return p_atom(LinAtom.ge(v, c))
    if kind == 1:
        return p_atom(LinAtom.le(v, c))
    if kind == 2:
        return p_atom(LinAtom.eq(v, c))
    if kind == 3:  # a two-variable row, to force tier-2 work
        w = V[rng.randrange(len(V))]
        return p_atom(LinAtom.le(v - w, c))
    if kind == 4:
        return p_atom(DivAtom(v, 2))
    return p_atom(OpaqueAtom(f"f{rng.randrange(3)}", ()))


def _random_pred(rng: random.Random, depth: int = 3):
    if depth == 0 or rng.random() < 0.3:
        atom = _random_atom(rng)
        return p_not(atom) if rng.random() < 0.3 else atom
    op = p_and if rng.random() < 0.5 else p_or
    return op(_random_pred(rng, depth - 1), _random_pred(rng, depth - 1))


def _corpus(seed: int, n: int):
    rng = random.Random(seed)
    return [_random_pred(rng) for _ in range(n)]


def test_unsat_matches_ground():
    preds = _corpus(seed=7, n=300) + [TRUE, FALSE]
    for p in preds:
        assert oracle.is_unsat(p) == oracle.ground_is_unsat(p), p


def test_unsat_memo_is_stable():
    """A memoized answer equals the freshly computed one."""
    preds = _corpus(seed=11, n=100)
    first = [oracle.is_unsat(p) for p in preds]
    second = [oracle.is_unsat(p) for p in preds]  # all memo hits
    assert first == second


def test_implies_and_equivalent_match_ground():
    preds = _corpus(seed=13, n=40)
    pairs = [(p, q) for p in preds[:20] for q in preds[20:]]
    pairs += [(p, p) for p in preds]

    def ground_implies(p, q):
        if p.is_false() or q.is_true():
            return True
        return oracle.ground_is_unsat(p_and(p, p_not(q)))

    with_oracle = [
        (oracle.implies(p, q), oracle.equivalent(p, q)) for p, q in pairs
    ]
    ground = [
        (
            ground_implies(p, q),
            ground_implies(p, q) and ground_implies(q, p),
        )
        for p, q in pairs
    ]
    assert with_oracle == ground


def test_simplify_preserves_meaning():
    preds = _corpus(seed=17, n=200)
    for p in preds:
        s = simplify(p)
        assert equivalent(p, s), (p, s)


def test_intervals_classifier_agrees_with_fm():
    """Every definitive interval verdict must match exact feasibility."""
    rng = random.Random(23)
    definitive = 0
    for _ in range(400):
        constraints = []
        for _ in range(rng.randrange(1, 5)):
            v = V[rng.randrange(len(V))]
            c = C(rng.randrange(-4, 5))
            kind = rng.randrange(4)
            if kind == 0:
                constraints.append(Constraint.ge(v, c))
            elif kind == 1:
                constraints.append(Constraint.le(v, c))
            elif kind == 2:
                constraints.append(Constraint.eq(v, c))
            else:
                w = V[rng.randrange(len(V))]
                constraints.append(Constraint.le(v - w, c))
        verdict = intervals.classify_constraints(constraints)
        rows = sorted(constraints, key=Constraint.sort_key)
        exact = is_feasible(LinearSystem(rows))
        if verdict == intervals.INFEASIBLE:
            definitive += 1
            assert not exact, constraints
        elif verdict == intervals.FEASIBLE:
            definitive += 1
            assert exact, constraints
    assert definitive > 100  # the fast tier must actually fire


def test_structural_complement_skips_fm():
    """Complementary literals that only meet after DNF distribution
    settle in tier 0, without any ground feasibility call.  (Direct
    ``p ∧ ¬p`` never reaches the oracle — ``p_and`` folds it to FALSE.)"""
    x_le = p_atom(LinAtom.le(V[0], C(5)))
    flag = p_atom(OpaqueAtom("t", ()))
    div = p_atom(DivAtom(V[0], 2))
    assert p_and(flag, p_not(flag)).is_false()  # folded pre-oracle
    for p in (
        p_and(p_or(div, flag), p_not(div), p_not(flag)),
        p_and(p_or(x_le, flag), p_not(x_le), p_not(flag)),
    ):
        assert oracle.is_unsat(p)
    snap = perf.snapshot()["counters"]
    assert snap.get("pred.oracle.tier0", 0) >= 4
    assert snap.get("feasibility.ground", 0) == 0


def test_tier_counters_cover_all_tiers():
    preds = _corpus(seed=29, n=300)
    for p in preds:
        oracle.is_unsat(p)
    snap = perf.snapshot()["counters"]
    assert snap.get("pred.oracle.tier0", 0) > 0
    assert snap.get("pred.oracle.tier1", 0) > 0
    assert snap.get("pred.oracle.tier2", 0) > 0
    # cheap tiers must settle a meaningful share of the conjuncts
    cheap = snap["pred.oracle.tier0"] + snap["pred.oracle.tier1"]
    assert cheap > snap["pred.oracle.tier2"] / 4


def test_memo_tables_reset_with_perf_caches():
    # x <= 0 ∧ x >= 2: infeasible but not a structural complement, so it
    # survives `p_and` folding and actually populates the memo tables
    oracle.is_unsat(p_and(p_atom(LinAtom.le(V[0], C(0))),
                          p_atom(LinAtom.ge(V[0], C(2)))))
    snap = perf.snapshot()["caches"]
    assert any(
        name.startswith("pred.oracle.") and stats["size"] > 0
        for name, stats in snap.items()
    )
    perf.reset_all_caches()
    snap = perf.snapshot()["caches"]
    assert all(
        stats["size"] == 0
        for name, stats in snap.items()
        if name.startswith("pred.oracle.")
    )
