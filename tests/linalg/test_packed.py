"""Unit tests for the packed integer-matrix FM kernel.

The enumeration fuzz suite (``test_packed_fuzz.py``) checks projections
and feasibility against brute-force integer points broadly; these tests
pin the packed form itself — lowering/lifting round trips, row
normalization against the symbolic normalizers, canonicalization, small
hand-checked projections, and the memo tables.
"""

from fractions import Fraction

import pytest

from repro import perf
from repro.linalg import packed
from repro.linalg.constraint import Constraint, Rel
from repro.linalg.system import LinearSystem
from repro.symbolic.affine import AffineExpr

C = AffineExpr.const
I = AffineExpr.var("i")
J = AffineExpr.var("j")
K = AffineExpr.var("k")


@pytest.fixture(autouse=True)
def _fresh_caches():
    perf.reset_all_caches()
    perf.reset_counters()
    yield


def _sys(*constraints):
    return LinearSystem(tuple(constraints))


class TestLowerLift:
    def test_round_trip_is_pointer_equal(self):
        s = _sys(
            Constraint.le(I, C(10)),
            Constraint.ge(I, C(0)),
            Constraint.eq(J, I + C(1)),
        )
        assert packed.lift(packed.lower(s)) is s

    def test_lower_is_memoized_both_directions(self):
        s = _sys(Constraint.le(I, C(5)))
        p1 = packed.lower(s)
        hits = packed._LOWER.hits
        p2 = packed.lower(s)
        assert p2 is p1
        assert packed._LOWER.hits == hits + 1
        # lifting the lowered form is a pure lookup, not a rebuild
        hits = packed._LOWER.hits
        assert packed.lift(p1) is s
        assert packed._LOWER.hits == hits + 1

    def test_variable_order_is_sorted(self):
        s = _sys(Constraint.le(K + J + I, C(0)))
        vars_, rows = packed.lower(s)
        assert vars_ == ("i", "j", "k")
        assert len(rows) == 1

    def test_universe_and_false(self):
        assert packed.lower(LinearSystem()) == ((), ())
        assert packed.lower(LinearSystem.empty()) == packed._FALSE_PACKED
        assert packed.lift(packed._FALSE_PACKED) is LinearSystem.empty()

    def test_lower_rejects_non_integer_rows(self):
        # normalization makes every interned constraint all-integer, so a
        # rational coefficient surviving to lower() is an invariant break
        s = _sys(Constraint.le(I * Fraction(1, 3), C(1)))
        for c in s:
            for _, cf in c.expr.terms():
                assert cf == int(cf)  # tighten_le scaled it integral


class TestRowNormalization:
    def test_norm_le_matches_tighten(self):
        # 4i + 6j + 10 <= 0 -> content 2 -> 2i + 3j + 5 <= 0 (gcd(2,3)=1)
        assert packed._norm_le_row((4, 6), 10) == ((2, 3), 5)
        # 4i + 7 <= 0 -> tighten: i <= -7/4 -> i + 2 <= 0 (floor)
        assert packed._norm_le_row((4,), 7) == ((1,), 2)
        # constant-only rows keep content-1 scaling (3 <= 0 -> 1 <= 0,
        # the canonical FALSE row), matching integerize
        assert packed._norm_le_row((0, 0), 3) == ((0, 0), 1)
        assert packed._norm_le_row((0, 0), -3) == ((0, 0), -1)

    def test_norm_le_agrees_with_constraint_interning(self):
        for coeffs, const in [
            ((4,), 7),
            ((-6, 9), 4),
            ((2, 4), -6),
            ((0,), 5),
            ((3, -3), 0),
        ]:
            vars_ = ("i", "j")[: len(coeffs)]
            expr = AffineExpr(
                {v: c for v, c in zip(vars_, coeffs) if c}, const
            )
            c = Constraint(expr, Rel.LE)
            nc, nk = packed._norm_le_row(coeffs, const)
            rebuilt = Constraint(
                AffineExpr(
                    {v: x for v, x in zip(vars_, nc) if x}, nk
                ),
                Rel.LE,
            )
            assert rebuilt is c

    def test_norm_eq_matches_integerize(self):
        assert packed._norm_eq_row((4, 6), 10) == ((2, 3), 5)
        # no gcd tightening for equalities beyond content removal
        assert packed._norm_eq_row((2, 4), 5) == ((2, 4), 5)

    def test_row_class(self):
        TAUT, OPEN, CONTRA = (
            packed._TAUT,
            packed._OPEN,
            packed._CONTRA,
        )
        assert packed._row_class(False, (0, 0), 0) == TAUT
        assert packed._row_class(False, (0, 0), 1) == CONTRA
        assert packed._row_class(True, (0,), 0) == TAUT
        assert packed._row_class(True, (0,), 2) == CONTRA
        # 2i + 4j == 5 has no integer solution
        assert packed._row_class(True, (2, 4), 5) == CONTRA
        assert packed._row_class(True, (2, 3), 5) == OPEN
        assert packed._row_class(False, (1,), 3) == OPEN


class TestCanon:
    def test_contradiction_folds_to_false(self):
        out = packed._canon(("i",), [(False, (1,), 0), (False, (0,), 2)])
        assert out == packed._FALSE_PACKED

    def test_dedup_and_dead_column_compression(self):
        rows = [
            (False, (1, 0), -5),
            (False, (1, 0), -5),
            (False, (0, 0), 0),  # tautology dropped
        ]
        vars_, kept = packed._canon(("i", "j"), rows)
        assert vars_ == ("i",)  # j column was dead
        assert kept == ((False, (1,), -5),)

    def test_sort_matches_system_order(self):
        s = _sys(
            Constraint.le(I, C(9)),
            Constraint.ge(J, C(2)),
            Constraint.eq(K, C(4)),
        )
        lowered = packed.lower(s)
        shuffled = packed._canon(lowered[0], list(reversed(lowered[1])))
        assert shuffled == lowered


class TestEliminationStep:
    def test_eliminate_combines_bound_pairs(self):
        s = _sys(
            Constraint.ge(I, C(0)),
            Constraint.le(I, J),
            Constraint.le(J, C(10)),
        )
        # 0 <= i <= j  =>  0 <= j
        expected = _sys(Constraint.ge(J, C(0)), Constraint.le(J, C(10)))
        assert packed.eliminate_packed(s, "i") is expected

    def test_unit_eq_substitution_matches(self):
        s = _sys(
            Constraint.eq(I, J + C(3)),
            Constraint.le(I, C(10)),
            Constraint.ge(I, C(0)),
        )
        # substitute i = j + 3 into both bounds
        expected = _sys(Constraint.le(J, C(7)), Constraint.ge(J, C(-3)))
        assert packed.eliminate_packed(s, "i") is expected

    def test_reuse_memo_hits_on_repeat(self):
        s = _sys(Constraint.ge(I, C(0)), Constraint.le(I, C(5)))
        packed.eliminate_packed(s, "i")
        misses = packed._REUSE.misses
        hits = packed._REUSE.hits
        packed.eliminate_packed(s, "i")
        assert packed._REUSE.misses == misses
        assert packed._REUSE.hits == hits + 1

    def test_eliminate_all_projects_chain(self):
        from repro.linalg.fourier_motzkin import eliminate_all

        s = _sys(
            Constraint.ge(I, C(1)),
            Constraint.le(I, J),
            Constraint.le(J, K),
            Constraint.le(K, C(100)),
        )
        # 1 <= i <= j <= k  =>  1 <= k
        expected = _sys(Constraint.ge(K, C(1)), Constraint.le(K, C(100)))
        assert packed.eliminate_all_packed(s, ("i", "j")) is expected
        # and the public entry point routes to the same result
        assert eliminate_all(s, ("i", "j")) is expected


class TestMemoRegistration:
    def test_packed_memos_clear_on_reset(self):
        s = _sys(Constraint.ge(I, C(0)), Constraint.le(I, C(5)))
        packed.eliminate_packed(s, "i")
        assert packed._LOWER.data and packed._REUSE.data
        perf.reset_all_caches()
        assert not packed._LOWER.data
        assert not packed._REUSE.data

    def test_registered_names(self):
        assert perf.tracked_cache(packed._LOWER) == (
            "fm.packed.lower",
            "memo",
        )
        assert perf.tracked_cache(packed._REUSE) == (
            "fm.packed.reuse",
            "memo",
        )
