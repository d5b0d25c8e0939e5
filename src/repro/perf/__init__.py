"""Observability layer: counters, phase timers, cache registry.

See :mod:`repro.perf.counters` for the implementation.  Typical uses::

    from repro import perf

    perf.bump("fm.fallback_drop")
    with perf.phase("arraydf"):
        ...
    perf.reset_all_caches()   # cold-path benchmarking
    perf.snapshot()           # --profile JSON
"""

from repro.perf.counters import (
    MISS,
    Memo,
    absorb_snapshot,
    analysis_context,
    bump,
    bump_epoch,
    counter,
    current_context,
    declare,
    enforce_memo_caps,
    epoch,
    exempt_cache,
    memo_caps,
    memo_table,
    on_reset,
    phase,
    register_cache,
    registered_names,
    reset_all_caches,
    reset_counters,
    set_memo_cap,
    snapshot,
    snapshot_delta,
    snapshot_max,
    total_ops,
    track_cache_object,
    tracked_cache,
)

__all__ = [
    "MISS",
    "Memo",
    "absorb_snapshot",
    "analysis_context",
    "bump",
    "bump_epoch",
    "counter",
    "current_context",
    "declare",
    "enforce_memo_caps",
    "epoch",
    "exempt_cache",
    "memo_caps",
    "memo_table",
    "on_reset",
    "phase",
    "register_cache",
    "registered_names",
    "reset_all_caches",
    "reset_counters",
    "set_memo_cap",
    "snapshot",
    "snapshot_delta",
    "snapshot_max",
    "total_ops",
    "track_cache_object",
    "tracked_cache",
]
