"""Fourier–Motzkin against brute-force integer enumeration.

Seeded random systems — mixed ``<=``/``==`` rows, rational coefficients
(scaled integral by constraint normalization), degenerate and
contradictory rows — are conjoined with a box ``-BOX <= v <= BOX`` on
every variable, so their integer points are finite and a plain loop
over the box lists them all.  That enumeration is the oracle; it shares
no code with the elimination kernel.  Three properties:

* **sound projection** — every enumerated point, with the eliminated
  variables dropped, satisfies ``eliminate`` / ``eliminate_all``'s
  result (the projection over-approximates the integer shadow);
* **exact projection** — when every eliminated variable has only unit
  coefficients (±1), the projection's integer points are exactly the
  projected enumerated points;
* **sound feasibility** — ``is_feasible`` answers False only for a
  system with no integer point.
"""

import random
import warnings
from fractions import Fraction
from itertools import product

import pytest

from repro import perf
from repro.linalg.constraint import Constraint, Rel
from repro.linalg.feasibility import is_feasible
from repro.linalg.fourier_motzkin import eliminate, eliminate_all
from repro.linalg.system import LinearSystem
from repro.symbolic.affine import AffineExpr

BOX = 3


@pytest.fixture(autouse=True)
def _cold():
    perf.reset_all_caches()
    yield
    perf.reset_all_caches()


def _random_system(rng, nvars, nrows, unit):
    vars_ = [f"v{i}" for i in range(nvars)]
    cons = []
    for _ in range(nrows):
        coeffs = {}
        for v in vars_:
            if rng.random() < 0.6:
                c = rng.choice((-1, 1)) if unit else rng.randint(-6, 6)
                if c and not unit and rng.random() < 0.2:
                    c = Fraction(c, rng.randint(1, 4))
                if c:
                    coeffs[v] = c
        const = rng.randint(-12, 12)
        if not unit and rng.random() < 0.15:
            const = Fraction(const, rng.randint(1, 3))
        rel = Rel.EQ if rng.random() < 0.3 else Rel.LE
        cons.append(Constraint(AffineExpr(coeffs, const), rel))
    for v in vars_:
        x = AffineExpr.var(v)
        cons.append(Constraint.ge(x, AffineExpr.const(-BOX)))
        cons.append(Constraint.le(x, AffineExpr.const(BOX)))
    return vars_, LinearSystem(tuple(cons))


def _corpus(seed, count=40):
    rng = random.Random(seed)
    return [
        _random_system(rng, rng.randint(1, 4), rng.randint(1, 7), i % 2 == 1)
        for i in range(count)
    ]


def _points(system, vars_):
    """Every integer point of *system* in the box, as tuples over *vars_*."""
    rows = [
        (
            [c.expr.coeff(v) for v in vars_],
            c.expr.constant,
            c.rel is Rel.EQ,
        )
        for c in system
    ]
    out = set()
    for point in product(range(-BOX, BOX + 1), repeat=len(vars_)):
        for coeffs, const, is_eq in rows:
            value = const + sum(a * x for a, x in zip(coeffs, point))
            if value > 0 or (is_eq and value != 0):
                break
        else:
            out.add(point)
    return out


def _unit_in(system, var):
    return all(c.expr.coeff(var) in (-1, 0, 1) for c in system)


def _check_projection(system, vars_, drop):
    """Returns True when the exactness property applied."""
    keep = [v for v in vars_ if v not in drop]
    if len(drop) == 1:
        projected = eliminate(system, drop[0])
    else:
        projected = eliminate_all(system, drop)
    assert not (projected.variables() - set(keep)), drop
    shadow = {
        tuple(p for v, p in zip(vars_, point) if v in keep)
        for point in _points(system, vars_)
    }
    fm_points = _points(projected, keep)
    assert shadow <= fm_points, (system, drop, projected)
    if len(drop) == 1 and _unit_in(system, drop[0]):
        assert shadow == fm_points, (system, drop, projected)
        return True
    return False


@pytest.mark.parametrize("seed", [1234, 777, 20260806, 42, 9001])
def test_projection_and_feasibility_match_enumeration(seed):
    exact = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for vars_, system in _corpus(seed):
            points = _points(system, vars_)
            assert is_feasible(system) or not points, system
            for v in vars_:
                exact += _check_projection(system, vars_, [v])
            if len(vars_) > 1:
                _check_projection(system, vars_, vars_[:-1])
            # memo hits return the very same interned result
            assert eliminate(system, vars_[0]) is eliminate(system, vars_[0])
    assert exact > 0  # the corpus exercised the exactness property


def test_degenerate_systems():
    assert is_feasible(LinearSystem())
    assert not is_feasible(LinearSystem.empty())
    assert eliminate(LinearSystem(), "x") is LinearSystem()
    assert eliminate_all(LinearSystem.empty(), ("x",)) is LinearSystem.empty()


def test_blowup_fallback_drops_the_variable():
    """Past the pair-combination guard the kernel drops every
    constraint on the variable — a sound superset — and counts it."""
    n = 60  # 60 lowers x 60 uppers = 3600 pairs > MAX_CONSTRAINTS * 4
    x = AffineExpr.var("x")
    cons = []
    for k in range(n):
        y = AffineExpr.var(f"y{k}")
        cons.append(Constraint.le(x, y * (k + 2)))  # upper bounds on x
        cons.append(Constraint.ge(x, y * -(k + 2)))  # lower bounds on x
    cons.append(Constraint.ge(AffineExpr.var("y0"), AffineExpr.const(1)))
    before = perf.counter("fm.fallback_drop")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = eliminate(LinearSystem(tuple(cons)), "x")
    assert perf.counter("fm.fallback_drop") == before + 1
    assert out is LinearSystem(
        (Constraint.ge(AffineExpr.var("y0"), AffineExpr.const(1)),)
    )
