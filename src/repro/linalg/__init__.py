"""Integer linear-inequality substrate.

This package provides the exact machinery that SUIF obtained from its
Omega/Fourier–Motzkin substrate:

* :class:`~repro.linalg.constraint.Constraint` — a single normalized
  ``e <= 0`` or ``e == 0`` over affine expressions;
* :class:`~repro.linalg.system.LinearSystem` — a conjunction of
  constraints (a convex polyhedron, interpreted over the integers);
* :mod:`~repro.linalg.fourier_motzkin` — exact projection (variable
  elimination) with integer tightening, run by the packed
  integer-matrix kernel in :mod:`~repro.linalg.packed`;
* :mod:`~repro.linalg.feasibility` — emptiness testing;
* :mod:`~repro.linalg.implication` — containment and entailment tests.
"""

from repro.linalg.constraint import Constraint, Rel
from repro.linalg.system import LinearSystem
from repro.linalg.fourier_motzkin import eliminate, eliminate_all
from repro.linalg.feasibility import is_feasible, is_rationally_feasible
from repro.linalg.implication import entails, system_implies
from repro.linalg.intervals import classify_constraints

__all__ = [
    "Constraint",
    "Rel",
    "LinearSystem",
    "eliminate",
    "eliminate_all",
    "is_feasible",
    "is_rationally_feasible",
    "entails",
    "system_implies",
    "classify_constraints",
]
