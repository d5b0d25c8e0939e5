"""Performance observability: counters, phase timers and the cache registry.

Every memo/intern table in the analysis substrate registers itself here so
that

* ``reset_all_caches()`` restores a genuinely cold state (benchmarks and
  the deterministic cost measurements in FIGO rely on this), and
* ``snapshot()`` reports hit/miss statistics for every table plus the
  event counters (Fourier–Motzkin fallbacks, elimination steps, …) in one
  JSON-able dict for ``--profile``.

The module is dependency-free: the symbolic/linalg/regions layers import
it, never the other way around.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: sentinel for memo lookups (``None`` is a legitimate cached value)
MISS = object()


class Memo:
    """A dict-backed memo table with hit/miss accounting.

    Hot paths access ``data``/``hits``/``misses`` directly instead of
    going through method calls; the object exists so the registry can
    clear and report every table uniformly.

    *cap*, when set, bounds the table for long-lived warm workers:
    :func:`enforce_memo_caps` trims capped tables back down in
    insertion order.  Enforcement runs at run/chunk/job boundaries —
    never per insert — so the direct ``data[key] = value`` hot paths
    stay method-call free.
    """

    __slots__ = ("name", "data", "hits", "misses", "cap")

    def __init__(self, name: str, cap: Optional[int] = None) -> None:
        self.name = name
        self.data: Dict = {}
        self.hits = 0
        self.misses = 0
        self.cap = cap

    def get(self, key, default=None):
        hit = self.data.get(key, MISS)
        if hit is not MISS:
            self.hits += 1
            return hit
        self.misses += 1
        return default

    def clear(self) -> None:
        self.data.clear()
        self.hits = 0
        self.misses = 0

    def trim(self) -> int:
        """Drop oldest entries down to ``cap``; returns entries dropped.

        Serialized by one lock: the service runs :func:`enforce_memo_caps`
        at every job end, so several fleet threads may trim one table at
        once, and each would pick the same victim keys.
        """
        with _trim_lock:
            cap = self.cap
            if cap is None or len(self.data) <= cap:
                return 0
            data = self.data
            dropped = 0
            for key in list(islice(iter(data), len(data) - cap)):
                if data.pop(key, MISS) is not MISS:
                    dropped += 1
            return dropped

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self.data),
            "hit_rate": (self.hits / total) if total else 0.0,
        }


_memos: Dict[str, Memo] = {}
#: serializes :meth:`Memo.trim` across threads (see there)
_trim_lock = threading.Lock()
#: external caches (e.g. ``functools.lru_cache``) as (stats_fn, clear_fn)
_external: Dict[str, Tuple[Callable[[], Dict], Callable[[], None]]] = {}
#: callbacks run after a reset (re-seed interned module singletons)
_reseeders: List[Callable[[], None]] = []
#: identity map of every cache-like *object* known to the registry
#: (``id(obj) -> (name, kind)`` with kind "memo" | "external" |
#: "exempt").  The registry-completeness test scans the package for
#: cache-like objects and fails when one was created without passing
#: through :func:`memo_table`, :func:`register_cache` or
#: :func:`exempt_cache`, so a new memo table cannot silently escape
#: :func:`reset_all_caches`.
_tracked_objects: Dict[int, Tuple[str, str]] = {}


def track_cache_object(obj: object, name: str, kind: str) -> None:
    """Record *obj* as a registry-known cache (identity-keyed)."""
    _tracked_objects[id(obj)] = (name, kind)


def tracked_cache(obj: object) -> Optional[Tuple[str, str]]:
    """The (name, kind) registration of *obj*, or ``None``."""
    return _tracked_objects.get(id(obj))


def exempt_cache(obj: object, name: str, reason: str) -> None:
    """Declare *obj* deliberately outside :func:`reset_all_caches`.

    Use for tables whose content is immutable program text or pure
    configuration (clearing them would only force identical
    recomputation); *reason* documents why at the declaration site.
    """
    track_cache_object(obj, f"{name} (exempt: {reason})", "exempt")

_counters: Dict[str, int] = {}
_phases: Dict[str, float] = {}
#: cache statistics absorbed from worker processes (name -> hits/misses/size)
_foreign: Dict[str, Dict[str, float]] = {}
#: per-thread stack of analysis-context labels ("unit:Ln" /
#: "unit:<proc>"); the top entry attributes substrate events (FM
#: fallback drops, budget trips) to the procedure/loop being analyzed.
#: Thread-local so batch and service worker threads cannot pop each
#: other's labels.
_context_local = threading.local()


def _context_stack() -> List[str]:
    stack = getattr(_context_local, "stack", None)
    if stack is None:
        stack = _context_local.stack = []
    return stack


def memo_table(name: str, cap: Optional[int] = None) -> Memo:
    """Create (or return) the registered memo table *name*.

    *cap* (optional) registers a boundedness cap at the declaration
    site; see :func:`enforce_memo_caps`.
    """
    table = _memos.get(name)
    if table is None:
        table = _memos[name] = Memo(name, cap=cap)
        track_cache_object(table, name, "memo")
    elif cap is not None:
        table.cap = cap
    return table


def set_memo_cap(name: str, cap: Optional[int]) -> None:
    """(Re)bound the registered memo table *name* at *cap* entries."""
    _memos[name].cap = cap


def memo_caps() -> Dict[str, int]:
    """Every capped memo table, mapped to its registered cap."""
    return {n: t.cap for n, t in _memos.items() if t.cap is not None}


def enforce_memo_caps() -> int:
    """Trim every capped memo table back down to its cap.

    Long-lived warm workers keep memo tables alive across runs; this is
    the boundedness half of that bargain.  Trimming is insertion-ordered
    (oldest entries first) and runs only at run/chunk/job boundaries, so
    per-lookup hot paths never pay for it.  Returns (and counts, as
    ``perf.memo_trims``) the entries dropped.
    """
    trimmed = 0
    for table in _memos.values():
        trimmed += table.trim()
    if trimmed:
        bump("perf.memo_trims", trimmed)
    return trimmed


def register_cache(
    name: str,
    stats: Callable[[], Dict],
    clear: Callable[[], None],
    obj: Optional[object] = None,
) -> None:
    """Register an externally managed cache (stats dict + clear fn).

    Pass the cache object itself as *obj* (e.g. the ``lru_cache``
    wrapper) so the registry-completeness test can prove it is covered.
    """
    _external[name] = (stats, clear)
    if obj is not None:
        track_cache_object(obj, name, "external")


def on_reset(callback: Callable[[], None]) -> None:
    """Run *callback* after every :func:`reset_all_caches` (used to
    re-seed interned module singletons like ``AffineExpr.ZERO``)."""
    _reseeders.append(callback)


def reset_all_caches() -> None:
    """Clear every registered memo/intern table and external cache.

    The one entry point benchmarks use to measure cold paths honestly.
    Module singletons are re-interned afterwards so identity stays
    canonical across resets.  Bumps the fleet epoch: warm pool workers
    holding pre-reset memos or interned values must not serve them to
    post-reset runs (§ the warm-fleet contract in ``docs/EXECUTION.md``).
    """
    bump_epoch()
    for table in _memos.values():
        table.clear()
    for _stats, clear in _external.values():
        clear()
    _foreign.clear()
    for callback in _reseeders:
        callback()


# ----------------------------------------------------------------------
# the fleet epoch
# ----------------------------------------------------------------------
# One monotonic integer versions every process-wide cache in the
# substrate: memo/intern tables and the predicate-oracle tiers.
# :func:`reset_all_caches` is the only thing that bumps it; batch pool
# workers compare the epoch shipped with each chunk against the one
# their warm state was built under and drop everything on a mismatch.
# That is the entire invalidation story for the warm fleet: state is
# valid exactly as long as the epoch it was built under is current.
# (Budgets need no bump: they ship per chunk and degraded results are
# never cached — pinned by tests/pipeline/test_warm_fleet.py.)

_epoch = 0


def epoch() -> int:
    """The current fleet epoch (monotonic, process-local)."""
    return _epoch


def bump_epoch() -> int:
    """Invalidate every warm fleet's caches; returns the new epoch."""
    global _epoch
    _epoch += 1
    bump("perf.epoch_bumps")
    return _epoch


def bump(name: str, n: int = 1) -> None:
    """Increment event counter *name* by *n*."""
    _counters[name] = _counters.get(name, 0) + n


def declare(name: str) -> None:
    """Ensure *name* appears in snapshots even while zero."""
    _counters.setdefault(name, 0)


def counter(name: str) -> int:
    return _counters.get(name, 0)


def reset_counters() -> None:
    """Zero every event counter and phase timer (keeps declarations)."""
    for name in _counters:
        _counters[name] = 0
    _phases.clear()
    _foreign.clear()


def snapshot_delta(snap: Dict, base: Dict) -> Dict:
    """Subtract *base* from *snap*, clamping at zero.

    Worker processes forked from a warm parent inherit its counters and
    cache statistics; subtracting the parent's snapshot taken at pool
    creation leaves only the work the worker itself performed.  (Under a
    ``spawn`` start method workers begin cold, so the clamp keeps the
    delta correct there too.)
    """
    counters = {
        k: max(0, v - base.get("counters", {}).get(k, 0))
        for k, v in snap.get("counters", {}).items()
    }
    phases = {
        k: max(0.0, v - base.get("phases", {}).get(k, 0.0))
        for k, v in snap.get("phases", {}).items()
    }
    caches = {}
    for name, stats in snap.get("caches", {}).items():
        ref = base.get("caches", {}).get(name, {})
        caches[name] = {
            k: max(0, stats.get(k, 0) - ref.get(k, 0))
            for k in ("hits", "misses", "size")
        }
    return {"counters": counters, "phases": phases, "caches": caches}


def snapshot_max(a: Dict, b: Dict) -> Dict:
    """Field-wise maximum of two snapshots from the *same* process.

    Per-process statistics only grow, so the maximum over any set of a
    worker's snapshots equals its latest one — this lets the driver keep
    one cumulative snapshot per worker PID without ordering assumptions.
    """
    counters = dict(a.get("counters", {}))
    for k, v in b.get("counters", {}).items():
        counters[k] = max(counters.get(k, 0), v)
    phases = dict(a.get("phases", {}))
    for k, v in b.get("phases", {}).items():
        phases[k] = max(phases.get(k, 0.0), v)
    caches = {name: dict(stats) for name, stats in a.get("caches", {}).items()}
    for name, stats in b.get("caches", {}).items():
        ref = caches.setdefault(name, {"hits": 0, "misses": 0, "size": 0})
        for k in ("hits", "misses", "size"):
            ref[k] = max(ref.get(k, 0), stats.get(k, 0))
    return {"counters": counters, "phases": phases, "caches": caches}


def absorb_snapshot(snap: Dict) -> None:
    """Fold a worker process's (delta) snapshot into this process.

    Counters and phase timers add into the local tables; cache
    statistics accumulate in a side table that :func:`snapshot` sums
    onto the local stats, so ``--profile`` reflects work done in worker
    processes under ``--jobs N`` as well.
    """
    for name, value in snap.get("counters", {}).items():
        if value:
            _counters[name] = _counters.get(name, 0) + value
    for name, value in snap.get("phases", {}).items():
        if value:
            _phases[name] = _phases.get(name, 0.0) + value
    for name, stats in snap.get("caches", {}).items():
        agg = _foreign.setdefault(name, {"hits": 0, "misses": 0, "size": 0})
        for k in ("hits", "misses", "size"):
            agg[k] += stats.get(k, 0)


@contextmanager
def analysis_context(label: str) -> Iterator[None]:
    """Attribute substrate events to *label* while the block runs.

    The analysis walker pushes ``unit:<proc>`` around each procedure and
    the driver pushes the loop label around each loop decision, so
    low-level kernels (Fourier–Motzkin) can report *where* a
    precision-losing event happened without depending on the layers
    above them.
    """
    stack = _context_stack()
    stack.append(label)
    try:
        yield
    finally:
        stack.pop()


def current_context() -> str:
    """The innermost analysis-context label, or ``"<toplevel>"``."""
    stack = _context_stack()
    return stack[-1] if stack else "<toplevel>"


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Accumulate wall-clock time under *name* in the phase table."""
    start = time.perf_counter()
    try:
        yield
    finally:
        _phases[name] = _phases.get(name, 0.0) + time.perf_counter() - start


def total_ops() -> int:
    """Deterministic substrate-work proxy: the sum of the kernel-level
    event counters.  Used by FIGO for machine-independent cost ratios."""
    return sum(
        v for k, v in _counters.items() if k in _OP_COUNTERS
    )


#: counters that measure substrate kernel work (deterministic given a
#: cold cache state); extend when instrumenting new kernels
_OP_COUNTERS = frozenset(
    {
        "affine.new",
        "constraint.norm",
        "system.norm",
        "fm.eliminate",
        "fm.pair_combine",
        "feasibility.ground",
    }
)


def registered_names() -> Dict[str, str]:
    """Every name the observability registry knows, mapped to its kind.

    Kinds: ``"memo"`` (registered :class:`Memo` tables), ``"external"``
    (externally managed caches), ``"exempt"`` (cache objects declared
    outside :func:`reset_all_caches`), ``"counter"`` (declared or
    bumped event counters) and ``"phase"`` (accumulated phase timers).
    The PERF.md counter-namespace table is tested against this, so a
    new prefix cannot ship undocumented.
    """
    names: Dict[str, str] = {}
    for name, kind in _tracked_objects.values():
        # exempt registrations carry their reason in the display name
        names[name.split(" (", 1)[0]] = kind
    names.update({name: "memo" for name in _memos})
    names.update({name: "external" for name in _external})
    names.update({name: "counter" for name in _counters})
    names.update({name: "phase" for name in _phases})
    return names


def snapshot() -> Dict:
    """One JSON-able dict of counters, phases and per-cache statistics."""
    caches = {name: table.stats() for name, table in _memos.items()}
    for name, (stats, _clear) in _external.items():
        caches[name] = stats()
    for name, agg in _foreign.items():
        merged = dict(
            caches.get(name, {"hits": 0, "misses": 0, "size": 0})
        )
        for k in ("hits", "misses", "size"):
            merged[k] = merged.get(k, 0) + agg[k]
        total = merged["hits"] + merged["misses"]
        merged["hit_rate"] = (merged["hits"] / total) if total else 0.0
        caches[name] = merged
    return {
        "counters": dict(sorted(_counters.items())),
        "phases": {k: round(v, 6) for k, v in sorted(_phases.items())},
        "caches": {k: caches[k] for k in sorted(caches)},
        "total_ops": total_ops(),
    }


# epoch bumps and bounded-memo evictions are this module's own events;
# declared so they appear in snapshots (and the namespace table) at zero
declare("perf.epoch_bumps")
declare("perf.memo_trims")
