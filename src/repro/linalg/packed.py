"""Packed integer-matrix Fourier–Motzkin kernel.

Materializing a fully interned :class:`~repro.symbolic.affine.AffineExpr`
+ :class:`~repro.linalg.constraint.Constraint` +
:class:`~repro.linalg.system.LinearSystem` object for every intermediate
bound pair would make elimination time object construction and
intern-table traffic rather than arithmetic.  This module lowers an
interned system **once** into a packed dense form — a shared variable
order plus rows of plain integer coefficients — and runs the whole
elimination pipeline (gcd normalization and integer tightening,
duplicate/trivial-row dropping, lower×upper pair combination,
the min-pair-product elimination-order heuristic, the
``SIMPLIFY_THRESHOLD`` redundancy sweep, and ground feasibility) on that
form, re-interning ``Constraint``/``LinearSystem`` objects only for the
final projected system.

**Canonical-form contract.**  Every normalization helper here is a
line-for-line mirror of one step of the symbolic constructors:

* ``_norm_le_row`` ≡ :func:`repro.symbolic.simplify.tighten_le` (content-1
  scaling plus gcd tightening with a floored constant);
* ``_norm_eq_row`` ≡ :func:`repro.symbolic.simplify.integerize`;
* ``_row_class``   ≡ ``Constraint._classify`` (tautology / integer
  contradiction detection);
* ``_canon``       ≡ ``LinearSystem.__new__`` canonicalization
  (taut/contra folding, dedup, sort by the constraint sort key);
* ``_simplify_rows`` ≡ ``LinearSystem.simplified``.

Because the packed pipeline produces the same canonical constraint
tuples at every materialization boundary, lifting a packed form back
through the hash-consing constructors yields the **pointer-equal**
interned system, so cached summaries and rendered predicates do not
depend on which representation computed them.  ``_eliminate_rows``
keeps the ``MAX_CONSTRAINTS`` fallback-drop semantics, the
``charge_fm`` budget checkpoints and the ``fm.eliminate`` /
``fm.pair_combine`` / ``fm.fallback_drop`` counters.

Memo tables (registered with :mod:`repro.perf`):

``fm.packed.lower``
    the system ⇄ packed bijection, stored in both directions: an interned
    ``LinearSystem`` keys its packed form, and a canonical packed form
    keys its (re-)interned system, so repeated lowering *and* lifting of
    the same value are dictionary lookups;
``fm.packed.reuse``
    per-step elimination results keyed on ``(canonical packed form,
    variable)``.  The key is a pure function of the underlying
    constraint set, so the kernel reuses work across queries.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import Dict, Iterable, List, Tuple

from repro import perf
from repro.linalg.constraint import Constraint, Rel
from repro.linalg.fourier_motzkin import (
    MAX_CONSTRAINTS,
    SIMPLIFY_THRESHOLD,
    _note_fallback,
)
from repro.linalg.system import LinearSystem
from repro.service.budgets import charge_fm
from repro.symbolic.affine import AffineExpr

_LOWER = perf.memo_table("fm.packed.lower")
_REUSE = perf.memo_table("fm.packed.reuse")

#: a packed row is ``(is_eq, coeffs, const)`` with integer coefficients
#: aligned to the packed system's variable order
Row = Tuple[bool, Tuple[int, ...], int]
#: a packed system is ``(variable order, canonically sorted rows)``
Packed = Tuple[Tuple[str, ...], Tuple[Row, ...]]

#: canonical infeasible packed system — mirrors ``LinearSystem.empty()``
#: (the single FALSE constraint ``1 <= 0``, which mentions no variables)
_FALSE_PACKED: Packed = ((), ((False, (), 1),))

_TAUT, _OPEN, _CONTRA = -1, 0, 1


# ----------------------------------------------------------------------
# row normalization (mirrors Constraint.__new__ on all-integer input)
# ----------------------------------------------------------------------
def _norm_le_row(
    coeffs: Tuple[int, ...], const: int
) -> Tuple[Tuple[int, ...], int]:
    """Mirror of ``tighten_le`` on an all-integer ``expr <= 0`` row."""
    # integerize (all-int fast path): divide out the overall content,
    # constant included
    g = const if const >= 0 else -const
    for c in coeffs:
        g = gcd(g, c if c >= 0 else -c)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        const //= g
    if not any(coeffs):
        return coeffs, const
    # gcd tightening: primitive variable part, floored constant
    g2 = 0
    for c in coeffs:
        g2 = gcd(g2, c if c >= 0 else -c)
    if g2 > 1:
        coeffs = tuple(c // g2 for c in coeffs)
        const = -((-const) // g2)
    return coeffs, const


def _norm_eq_row(
    coeffs: Tuple[int, ...], const: int
) -> Tuple[Tuple[int, ...], int]:
    """Mirror of ``integerize`` on an all-integer ``expr == 0`` row."""
    g = const if const >= 0 else -const
    for c in coeffs:
        g = gcd(g, c if c >= 0 else -c)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        const //= g
    return coeffs, const


def _row_class(is_eq: bool, coeffs: Tuple[int, ...], const: int) -> int:
    """Mirror of ``Constraint._classify`` on a normalized row."""
    if not any(coeffs):
        if is_eq:
            return _TAUT if const == 0 else _CONTRA
        return _TAUT if const <= 0 else _CONTRA
    if is_eq:
        g = 0
        for c in coeffs:
            g = gcd(g, c if c >= 0 else -c)
        if g > 1 and const % g != 0:
            return _CONTRA
    return _OPEN


def _row_sort_key(vars_: Tuple[str, ...], row: Row):
    """Mirror of ``Constraint.sort_key`` (structural, denominators are 1)."""
    is_eq, coeffs, const = row
    return (
        "==" if is_eq else "<=",
        tuple((vars_[i], c, 1) for i, c in enumerate(coeffs) if c),
        const,
        1,
    )


def _canon(vars_: Tuple[str, ...], rows: Iterable[Row]) -> Packed:
    """Mirror of ``LinearSystem.__new__`` canonicalization.

    Drops tautologies, folds any contradiction to the canonical false
    system, deduplicates, compresses to the live variable columns and
    sorts rows by the constraint sort key — so a canonical packed form is
    a bijective image of the interned system it lifts to.
    """
    kept: List[Row] = []
    seen = set()
    for row in rows:
        cls = _row_class(*row)
        if cls == _TAUT:
            continue
        if cls == _CONTRA:
            return _FALSE_PACKED
        if row not in seen:
            seen.add(row)
            kept.append(row)
    if not kept:
        return ((), ())
    n = len(vars_)
    live = [i for i in range(n) if any(r[1][i] for r in kept)]
    if len(live) != n:
        vars_ = tuple(vars_[i] for i in live)
        kept = [
            (is_eq, tuple(coeffs[i] for i in live), const)
            for is_eq, coeffs, const in kept
        ]
    kept.sort(key=lambda r: _row_sort_key(vars_, r))
    return (vars_, tuple(kept))


# ----------------------------------------------------------------------
# lowering / lifting (the only places symbolic objects are touched)
# ----------------------------------------------------------------------
def lower(system: LinearSystem) -> Packed:
    """Lower an interned system to its canonical packed form (memoized).

    Normalized constraints are all-integer by construction
    (:func:`~repro.symbolic.simplify.tighten_le` /
    :func:`~repro.symbolic.simplify.integerize`); ``operator.index``
    guards the invariant rather than silently truncating.
    """
    cached = _LOWER.data.get(system)
    if cached is not None:
        _LOWER.hits += 1
        return cached
    _LOWER.misses += 1
    vars_ = tuple(sorted(system.variables()))
    index = {v: i for i, v in enumerate(vars_)}
    zeros = [0] * len(vars_)
    rows: List[Row] = []
    for c in system:
        coeffs = zeros[:]
        for v, cf in c.expr.terms():
            coeffs[index[v]] = operator.index(cf)
        rows.append(
            (c.rel is Rel.EQ, tuple(coeffs), operator.index(c.expr.constant))
        )
    packed: Packed = (vars_, tuple(rows))
    _LOWER.data[system] = packed
    _LOWER.data.setdefault(packed, system)
    return packed


def lift(packed: Packed) -> LinearSystem:
    """Re-intern a canonical packed form as a ``LinearSystem`` (memoized).

    Rows are already normalized and canonically ordered, so the interning
    constructors are no-op re-normalizations and the result is pointer
    equal to interning the same constraints directly.
    """
    cached = _LOWER.data.get(packed)
    if cached is not None:
        _LOWER.hits += 1
        return cached
    _LOWER.misses += 1
    vars_, rows = packed
    constraints = []
    for is_eq, coeffs, const in rows:
        expr = AffineExpr(
            {v: c for v, c in zip(vars_, coeffs) if c}, const
        )
        constraints.append(Constraint(expr, Rel.EQ if is_eq else Rel.LE))
    system = LinearSystem(tuple(constraints))
    _LOWER.data[packed] = system
    _LOWER.data.setdefault(system, packed)
    return system


# ----------------------------------------------------------------------
# the elimination pipeline
# ----------------------------------------------------------------------
def _combine_pairs(
    lowers: List[Row], uppers: List[Row], vi: int
) -> List[Row]:
    out: List[Row] = []
    for lo in lowers:
        lc, lk = lo[1], lo[2]
        a_lo = lc[vi]  # negative
        for up in uppers:
            uc, uk = up[1], up[2]
            a_up = uc[vi]  # positive
            coeffs = tuple(
                x * a_up - y * a_lo for x, y in zip(lc, uc)
            )
            nc, nk = _norm_le_row(coeffs, lk * a_up - uk * a_lo)
            out.append((False, nc, nk))
    return out


def _eliminate_rows(packed: Packed, var: str) -> Packed:
    """One Fourier–Motzkin step on packed rows (see
    :func:`repro.linalg.fourier_motzkin.eliminate`)."""
    perf.bump("fm.eliminate")
    vars_, rows = packed
    vi = vars_.index(var)
    lowers: List[Row] = []
    uppers: List[Row] = []
    eqs: List[Row] = []
    others: List[Row] = []
    for row in rows:
        a = row[1][vi]
        if a == 0:
            others.append(row)
        elif row[0]:
            eqs.append(row)
        elif a > 0:
            uppers.append(row)
        else:
            lowers.append(row)

    # Exact substitution via a unit-coefficient equality.
    for eq in eqs:
        a = eq[1][vi]
        if a == 1 or a == -1:
            # a*var + rest == 0  =>  var = -rest/a  (a is ±1)
            if a == 1:
                sol = tuple(
                    0 if i == vi else -c for i, c in enumerate(eq[1])
                )
                sol_const = -eq[2]
            else:
                sol = tuple(
                    0 if i == vi else c for i, c in enumerate(eq[1])
                )
                sol_const = eq[2]
            out: List[Row] = []
            for row in rows:
                if row is eq:
                    continue
                b = row[1][vi]
                if b == 0:
                    out.append(row)
                    continue
                coeffs = tuple(
                    0 if i == vi else c + b * s
                    for i, (c, s) in enumerate(zip(row[1], sol))
                )
                const = row[2] + b * sol_const
                if row[0]:
                    nc, nk = _norm_eq_row(coeffs, const)
                else:
                    nc, nk = _norm_le_row(coeffs, const)
                out.append((row[0], nc, nk))
            return _canon(vars_, out)

    # Demote equalities to inequality pairs.
    for eq in eqs:
        a = eq[1][vi]
        le = (False,) + _norm_le_row(eq[1], eq[2])
        ge = (False,) + _norm_le_row(
            tuple(-c for c in eq[1]), -eq[2]
        )
        if a > 0:
            uppers.append(le)
            lowers.append(ge)
        else:
            lowers.append(le)
            uppers.append(ge)

    n_pairs = len(lowers) * len(uppers)
    if n_pairs > MAX_CONSTRAINTS * 4:
        # Combinatorial blowup: drop the variable's constraints (sound
        # superset), warned once per analysis context.
        _note_fallback(var, n_pairs)
        return _canon(vars_, others)

    charge_fm(n_pairs)
    combined: List[Row] = list(others)
    combined.extend(_combine_pairs(lowers, uppers, vi))
    perf.bump("fm.pair_combine", n_pairs)
    result = _canon(vars_, combined)
    if len(result[1]) > MAX_CONSTRAINTS:
        result = _simplify_rows(result)
    return result


def _simplify_rows(packed: Packed) -> Packed:
    """Mirror of ``LinearSystem.simplified`` on packed rows."""
    vars_, rows = packed
    by_varpart: Dict[Tuple[int, ...], Row] = {}
    eqs: List[Row] = []
    for row in rows:
        if row[0]:
            eqs.append(row)
            continue
        prev = by_varpart.get(row[1])
        if prev is None or row[2] > prev[2]:
            # larger constant = tighter upper bound for e + c <= 0
            by_varpart[row[1]] = row
    eq_consts = {coeffs: const for _, coeffs, const in eqs}
    kept = list(eqs)
    for var_part, row in by_varpart.items():
        const = row[2]
        if var_part in eq_consts and -eq_consts[var_part] >= -const:
            if eq_consts[var_part] >= const:
                continue
        neg = tuple(-c for c in var_part)
        if neg in eq_consts and -eq_consts[neg] >= const:
            continue
        kept.append(row)
    return _canon(vars_, kept)


def _eliminate_step(packed: Packed, var: str) -> Packed:
    """One memoized elimination step on a canonical packed form."""
    key = (packed, var)
    cached = _REUSE.data.get(key)
    if cached is not None:
        _REUSE.hits += 1
        return cached
    _REUSE.misses += 1
    result = _eliminate_rows(packed, var)
    _REUSE.data[key] = result
    return result


# ----------------------------------------------------------------------
# entry points (called from repro.linalg.fourier_motzkin dispatch)
# ----------------------------------------------------------------------
def eliminate_packed(system: LinearSystem, var: str) -> LinearSystem:
    """Packed-kernel body of :func:`~repro.linalg.fourier_motzkin.eliminate`.

    The caller has already handled the ``var`` ∉ ``system`` fast path.
    """
    return lift(_eliminate_step(lower(system), var))


def eliminate_all_packed(
    system: LinearSystem, todo0: Tuple[str, ...]
) -> LinearSystem:
    """Packed-kernel body of
    :func:`~repro.linalg.fourier_motzkin.eliminate_all`.

    Cheapest-first order (unit-coefficient equalities first, then
    minimal lower×upper pair product, ties by name), re-ranked every
    round, with the ``SIMPLIFY_THRESHOLD`` sweep between rounds; the
    caller owns the ``fm.eliminate_all`` memo.
    """
    current = lower(system)
    todo = list(todo0)
    while todo:
        vars_, rows = current
        # re-rank each round: elimination changes occurrence counts
        live = set(vars_)
        todo = [v for v in todo if v in live]
        if not todo:
            break
        costs = {}
        for v in todo:
            vi = vars_.index(v)
            n_lo = n_up = 0
            unit_eq = False
            for row in rows:
                a = row[1][vi]
                if a == 0:
                    continue
                if row[0]:
                    if a == 1 or a == -1:
                        unit_eq = True
                    n_lo += 1
                    n_up += 1
                elif a > 0:
                    n_up += 1
                else:
                    n_lo += 1
            costs[v] = (0 if unit_eq else 1, n_lo * n_up)
        todo.sort(key=lambda v: (costs[v], v))
        var = todo.pop(0)
        current = _eliminate_step(current, var)
        if len(current[1]) > SIMPLIFY_THRESHOLD:
            current = _simplify_rows(current)
    return lift(current)
