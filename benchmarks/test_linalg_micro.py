"""Micro-benchmarks of the linalg elimination kernel.

Each workload runs from cold caches on a deterministic constraint
corpus; the deterministic ``fm.*`` counters of one cold run are
recorded in ``extra_info`` (``benchmarks/check_regression.py`` gates
them against the baseline's, when it has them).  The ``_packed`` names
are kept so the committed ``BENCH_*.json`` records stay comparable.

Compare runs against the committed recordings with
``benchmarks/check_regression.py`` (which runs this file alongside the
other micro files).
"""

import random
import warnings

from repro import perf
from repro.linalg.constraint import Constraint, Rel
from repro.linalg.feasibility import is_feasible
from repro.linalg.fourier_motzkin import eliminate_all
from repro.linalg.system import LinearSystem
from repro.symbolic.affine import AffineExpr

FM_COUNTERS = ("fm.eliminate", "fm.pair_combine", "fm.fallback_drop")


def _corpus(seed=7, count=120):
    """Deterministic mixed corpus: the shapes FM sees from region algebra
    (mostly small inequality systems, some equalities, occasional
    contradictions)."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        nv = rng.randint(3, 6)
        vars_ = [f"v{i}" for i in range(nv)]
        cons = []
        for _ in range(rng.randint(4, 10)):
            coeffs = {
                v: rng.randint(-5, 5) for v in vars_ if rng.random() < 0.7
            }
            coeffs = {v: c for v, c in coeffs.items() if c}
            rel = Rel.EQ if rng.random() < 0.25 else Rel.LE
            cons.append(
                Constraint(AffineExpr(coeffs, rng.randint(-10, 10)), rel)
            )
        systems.append(LinearSystem(tuple(cons)))
    return systems


def _cold_run(workload):
    perf.reset_all_caches()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return workload()


def _bench(benchmark, workload):
    """Record one cold run's fm counters, then time cold runs."""
    before = {c: perf.counter(c) for c in FM_COUNTERS}
    _cold_run(workload)
    for key in FM_COUNTERS:
        benchmark.extra_info[key] = perf.counter(key) - before[key]
    return benchmark(lambda: _cold_run(workload))


def _eliminate_workload():
    systems = _corpus(seed=7)

    def run():
        acc = 0
        for s in systems:
            acc += len(eliminate_all(s, s.variables()))
        return acc

    return run


def _feasibility_workload():
    systems = _corpus(seed=11)

    def run():
        return sum(1 for s in systems if is_feasible(s))

    return run


def test_linalg_eliminate_packed(benchmark):
    _bench(benchmark, _eliminate_workload())


def test_linalg_feasibility_packed(benchmark):
    feasible = _bench(benchmark, _feasibility_workload())
    assert 0 < feasible <= 120
