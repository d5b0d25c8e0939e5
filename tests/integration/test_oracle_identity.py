"""Byte-identity of experiment outputs with the oracle and on the
ground path.

The tiered oracle is a pure cost optimization: every `is_unsat` /
`implies` / `equivalent` answer must equal the ground path's (no tiers,
no memo tables), so the formatted experiment outputs — the paper's
tables — must match byte for byte between the two modes.  (Cost figures
like the fig_overhead op counts legitimately differ; identity is
asserted on the result tables.)
"""

from contextlib import contextmanager, nullcontext
from unittest import mock

from repro import perf
from repro.experiments import fig1_examples, table2_programs
from repro.predicates import oracle
from repro.predicates.formula import p_and, p_not
from repro.predicates.simplify import conjunct_infeasible, to_dnf


class _Forgetful(dict):
    """A memo table that never keeps an entry: every lookup misses."""

    def __setitem__(self, key, value):
        pass


def _cached_dnf(pred):
    dnf = to_dnf(pred)
    return None if dnf is None else tuple(dnf)


def _implies(p, q):
    if p.is_false() or q.is_true():
        return True
    return oracle.ground_is_unsat(p_and(p, p_not(q)))


@contextmanager
def ground_path():
    """Answer every predicate query untiered, with no ``pred.oracle.*``
    memo table keeping an answer."""
    tables = [
        perf.memo_table(name)
        for name, kind in perf.registered_names().items()
        if kind == "memo" and name.startswith("pred.oracle.")
    ]
    with mock.patch.multiple(
        oracle,
        is_unsat=oracle.ground_is_unsat,
        implies=_implies,
        conjunct_unsat=conjunct_infeasible,
        cached_dnf=_cached_dnf,
    ):
        saved = [table.data for table in tables]
        for table in tables:
            table.data = _Forgetful()
        try:
            yield
        finally:
            for table, data in zip(tables, saved):
                table.data = data


def _formatted(mode):
    perf.reset_all_caches()
    with mode:
        return (
            table2_programs.run().format(),
            fig1_examples.run().format(),
        )


def test_experiment_outputs_identical_both_modes():
    try:
        with_oracle = _formatted(nullcontext())
        ground = _formatted(ground_path())
    finally:
        perf.reset_all_caches()
    assert with_oracle[0] == ground[0]  # Table 2 (predicated)
    assert with_oracle[1] == ground[1]  # Figure 1 examples
