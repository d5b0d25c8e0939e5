"""Cache-correctness regression tests for the interning/memo layer.

Three guarantees the performance work must never silently break:

* interning — structurally equal ``AffineExpr`` / ``Constraint`` /
  ``LinearSystem`` / ``ArrayRegion`` values are the *same object*;
* memoization — the memoized region operations agree with their
  unmemoized implementations on randomized inputs;
* resettability — :func:`repro.perf.reset_all_caches` empties every
  registered table and re-seeds the module singletons.
"""

import random
from fractions import Fraction

from repro import perf
from repro.linalg.constraint import Constraint, FALSE, TRUE
from repro.linalg.system import LinearSystem
from repro.regions.operations import _try_coalesce_impl, try_coalesce
from repro.regions.region import ArrayRegion
from repro.regions.subtract import _subtract_region_impl, subtract_region
from repro.symbolic.affine import AffineExpr

C = AffineExpr.const
V = AffineExpr.var


class TestInternIdentity:
    def test_affine_expr_interned(self):
        a = V("i") * 2 + V("j") - 3
        b = V("j") + V("i") * 2 - 3
        assert a == b and a is b

    def test_affine_expr_distinct(self):
        assert V("i") is not V("j")
        assert (V("i") + 1) is not V("i")

    def test_fraction_and_int_keys_coincide(self):
        assert C(2) is C(Fraction(4, 2))

    def test_constraint_interned(self):
        a = Constraint.le(V("i"), V("n"))
        b = Constraint.le(V("i") - V("n"), C(0))
        assert a == b and a is b

    def test_system_interned_modulo_order(self):
        c1 = Constraint.ge(V("i"), C(1))
        c2 = Constraint.le(V("i"), V("n"))
        assert LinearSystem([c1, c2]) is LinearSystem([c2, c1])

    def test_system_interned_modulo_duplicates(self):
        c1 = Constraint.ge(V("i"), C(1))
        assert LinearSystem([c1, c1]) is LinearSystem([c1])

    def test_region_interned(self):
        s = LinearSystem([Constraint.ge(V("__d0"), C(1))])
        assert ArrayRegion("a", 1, s) is ArrayRegion("a", 1, s)
        assert ArrayRegion("a", 1, s) is not ArrayRegion("b", 1, s)


def _random_interval_region(rng, array="a"):
    """A 1-D region  lo <= __d0 <= hi  with small random symbolic bounds."""
    d = V("__d0")
    lo = C(rng.randint(-3, 3)) + V("n") * rng.choice([0, 0, 1])
    hi = C(rng.randint(2, 9)) + V("n") * rng.choice([0, 1, 1])
    return ArrayRegion(
        array, 1, LinearSystem([Constraint.ge(d, lo), Constraint.le(d, hi)])
    )


class TestMemoizedOpsMatchImpl:
    def test_subtract_matches_impl_randomized(self):
        rng = random.Random(1234)
        for _ in range(60):
            a = _random_interval_region(rng)
            b = _random_interval_region(rng)
            assert subtract_region(a, b) == _subtract_region_impl(a, b)
            # cached second call must agree too
            assert subtract_region(a, b) == _subtract_region_impl(a, b)

    def test_subtract_result_not_aliased(self):
        rng = random.Random(7)
        a = _random_interval_region(rng)
        b = _random_interval_region(rng)
        first = subtract_region(a, b)
        first.append(None)  # caller mutation must not poison the memo
        assert None not in subtract_region(a, b)

    def test_coalesce_matches_impl_randomized(self):
        rng = random.Random(99)
        for _ in range(60):
            a = _random_interval_region(rng)
            b = _random_interval_region(rng)
            assert try_coalesce(a, b) == _try_coalesce_impl(a, b)
            assert try_coalesce(a, b) == _try_coalesce_impl(a, b)

    def test_coalesce_caches_none_results(self):
        # disjoint arrays can never coalesce: result is None, and the
        # second call must be a memo *hit* (MISS sentinel discriminates)
        s = LinearSystem([Constraint.ge(V("__d0"), C(1))])
        a, b = ArrayRegion("p", 1, s), ArrayRegion("q", 1, s)
        assert try_coalesce(a, b) is None
        table = perf.memo_table("region.coalesce")
        hits = table.hits
        assert try_coalesce(a, b) is None
        assert table.hits == hits + 1


class TestResetAllCaches:
    def test_every_registered_table_empties(self):
        # populate a few tables, then reset and check the registry view
        rng = random.Random(5)
        a, b = _random_interval_region(rng), _random_interval_region(rng)
        subtract_region(a, b)
        try_coalesce(a, b)
        perf.reset_all_caches()
        stats = perf.snapshot()["caches"]
        assert stats  # the registry is populated
        for name, st in stats.items():
            # reseeded singletons leave at most a handful of entries
            assert st["size"] <= 4, f"{name} not cleared (size {st['size']})"
            assert st["hits"] == 0 and st["misses"] <= 4, name

    def test_singletons_survive_reset(self):
        perf.reset_all_caches()
        assert AffineExpr.const(0) is AffineExpr.ZERO
        assert AffineExpr.const(1) is AffineExpr.ONE
        assert Constraint(AffineExpr.ZERO, TRUE.rel) is TRUE
        assert LinearSystem(()) is LinearSystem.universe()
        assert LinearSystem((FALSE,)) is LinearSystem.empty()

    def test_interning_still_canonical_after_reset(self):
        e1 = V("i") + 3
        perf.reset_all_caches()
        e2 = V("i") + 3
        # e1 predates the reset so identity with e2 is not guaranteed,
        # but equality and post-reset canonicalization must hold
        assert e1 == e2 and hash(e1) == hash(e2)
        assert (V("i") + 3) is e2

    def test_results_unchanged_after_reset(self):
        rng = random.Random(31)
        pairs = [
            (_random_interval_region(rng), _random_interval_region(rng))
            for _ in range(10)
        ]
        warm = [subtract_region(a, b) for a, b in pairs]
        perf.reset_all_caches()
        cold = [subtract_region(a, b) for a, b in pairs]
        assert warm == cold


class TestMemoTrim:
    def test_trim_drops_oldest_entries_down_to_cap(self):
        memo = perf.Memo("trim-basic", cap=2)
        for i in range(5):
            memo.data[i] = i
        assert memo.trim() == 3
        assert list(memo.data) == [3, 4]
        assert memo.trim() == 0

    def test_concurrent_trims_of_one_table_never_raise(self):
        """Fleet threads all trim at job end; two trimming one table
        pick the same victim keys, and the second delete used to raise
        ``KeyError``."""
        import sys
        import threading

        errors = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(5):
                memo = perf.Memo(f"trim-race-{trial}", cap=10)
                memo.data.update((i, i) for i in range(50_000))
                dropped = []
                start = threading.Barrier(4, timeout=10)

                def trim():
                    start.wait()
                    try:
                        dropped.append(memo.trim())
                    except Exception as exc:  # pragma: no cover - the bug
                        errors.append(exc)

                threads = [threading.Thread(target=trim) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                assert len(memo.data) == 10
                assert sum(dropped) == 50_000 - 10
        finally:
            sys.setswitchinterval(old)
        assert errors == []
