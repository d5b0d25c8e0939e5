"""Reference Fourier–Motzkin elimination on interned symbolic objects.

This is the kernel the analysis ran before the packed integer-matrix
kernel (:mod:`repro.linalg.packed`) replaced it: every intermediate
bound pair is built as an interned :class:`Constraint`, which makes it
slow but easy to check by eye.  :func:`symbolic_kernel` swaps it in for
the packed kernel behind :func:`repro.linalg.fourier_motzkin.eliminate`
and :func:`~repro.linalg.fourier_motzkin.eliminate_all`, so a test can
run the whole analysis on either kernel and compare the answers
(``tests/integration/test_packed_identity.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Tuple
from unittest import mock

from repro.linalg import packed
from repro.linalg.constraint import Constraint, Rel
from repro.linalg.fourier_motzkin import (
    MAX_CONSTRAINTS,
    SIMPLIFY_THRESHOLD,
    _note_fallback,
)
from repro.linalg.system import LinearSystem
from repro.symbolic.affine import AffineExpr


def _split_bounds(
    system: LinearSystem, var: str
) -> Tuple[List[Constraint], List[Constraint], List[Constraint], List[Constraint]]:
    """(lower bounds, upper bounds, equalities with *var*, the rest).

    For ``a*var + rest <= 0``: ``a > 0`` is an upper bound on *var*,
    ``a < 0`` a lower bound.
    """
    lowers: List[Constraint] = []
    uppers: List[Constraint] = []
    eqs: List[Constraint] = []
    others: List[Constraint] = []
    for c in system:
        a = c.expr.coeff(var)
        if a == 0:
            others.append(c)
        elif c.rel is Rel.EQ:
            eqs.append(c)
        elif a > 0:
            uppers.append(c)
        else:
            lowers.append(c)
    return lowers, uppers, eqs, others


def eliminate(system: LinearSystem, var: str) -> LinearSystem:
    """Project *var* out of *system*: unit-equality substitution if one
    pins it, otherwise every lower bound combined with every upper."""
    if var not in system.variables():
        return system
    lowers, uppers, eqs, others = _split_bounds(system, var)

    for eq in eqs:
        a = eq.expr.coeff(var)
        if abs(a) == 1:
            # a*var + rest == 0  =>  var = -rest/a  (a is ±1)
            rest = eq.expr + AffineExpr.var(var, -a)
            solution = -rest if a == 1 else rest
            remaining = [c for c in system if c is not eq]
            return LinearSystem(c.substitute({var: solution}) for c in remaining)

    for eq in eqs:
        a = eq.expr.coeff(var)
        le = Constraint(eq.expr, Rel.LE)
        ge = Constraint(-eq.expr, Rel.LE)
        if a > 0:
            uppers.append(le)
            lowers.append(ge)
        else:
            lowers.append(le)
            uppers.append(ge)

    n_pairs = len(lowers) * len(uppers)
    if n_pairs > MAX_CONSTRAINTS * 4:
        _note_fallback(var, n_pairs)
        return LinearSystem(others)

    combined: List[Constraint] = list(others)
    for lo in lowers:
        a_lo = lo.expr.coeff(var)  # negative
        for up in uppers:
            a_up = up.expr.coeff(var)  # positive
            # a_up * lo - a_lo * up cancels var (-a_lo > 0)
            combined.append(Constraint(lo.expr * a_up - up.expr * a_lo, Rel.LE))
    result = LinearSystem(combined)
    if len(result) > MAX_CONSTRAINTS:
        result = result.simplified()
    return result


def eliminate_all(system: LinearSystem, todo0: Tuple[str, ...]) -> LinearSystem:
    """Eliminate *todo0* cheapest-first, re-ranked every round: unit
    equalities first, then the smallest lower×upper product, ties by
    name; simplify once a system grows past ``SIMPLIFY_THRESHOLD``."""
    todo = list(todo0)
    current = system
    while todo:
        live = current.variables()
        todo = [v for v in todo if v in live]
        if not todo:
            break
        costs = {}
        for v in todo:
            n_lo = n_up = 0
            unit_eq = False
            for c in current:
                a = c.expr.coeff(v)
                if a == 0:
                    continue
                if c.rel is Rel.EQ:
                    unit_eq = unit_eq or abs(a) == 1
                    n_lo += 1
                    n_up += 1
                elif a > 0:
                    n_up += 1
                else:
                    n_lo += 1
            costs[v] = (0 if unit_eq else 1, n_lo * n_up)
        todo.sort(key=lambda v: (costs[v], v))
        current = eliminate(current, todo.pop(0))
        if len(current) > SIMPLIFY_THRESHOLD:
            current = current.simplified()
    return current


@contextmanager
def symbolic_kernel():
    """Run every Fourier–Motzkin projection on the reference kernel."""
    with mock.patch.multiple(
        packed, eliminate_packed=eliminate, eliminate_all_packed=eliminate_all
    ):
        yield
