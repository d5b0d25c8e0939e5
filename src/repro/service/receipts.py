"""Per-job provenance receipts.

Every job the service finishes leaves a ``receipt.json`` next to its
result: a self-contained record of **what was analyzed, under which
knobs, with which budgets, and what it cost**.  Receipts answer the
operational questions a result alone cannot — "was the oracle on when
this shipped?", "did this answer degrade under its budget?", "is this
the same input we analyzed last week?" — without re-running anything.

A receipt has a **stable part** and an explicit ``timings`` section.
The stable part is a pure function of the job's inputs and the knobs in
effect, so two runs of the same job under the same configuration produce
byte-identical stable parts (the acceptance tests pin this); everything
volatile — wall-clock, perf-counter deltas, budget consumption, worker
identity — lives under ``timings`` and is excluded from the stability
contract.

Stable sections::

    schema       "repro.receipt/1"
    job          id, kind, priority
    inputs       program name / experiment id, the per-procedure
                 content keys (chained exactly like the summary cache:
                 source + callee keys + options), and a combined hash
                 recomputable from the receipt alone
    knobs        analysis options + fingerprint, cache attached?
    budgets      the limits *granted* (consumption is volatile → timings)
    degradation  the degraded flag and per-kind budget-trip counts
    result       terminal state and a deterministic result summary

:func:`validate_receipt` checks a parsed receipt against this schema and
recomputes the combined inputs hash from the recorded unit keys — a
receipt that cannot reproduce its own hash is corrupt.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

#: bump when the receipt layout changes incompatibly
RECEIPT_SCHEMA = "repro.receipt/1"

#: required top-level sections of every receipt
SECTIONS = (
    "schema",
    "job",
    "inputs",
    "knobs",
    "budgets",
    "degradation",
    "result",
    "timings",
)


# ----------------------------------------------------------------------
# inputs fingerprint
# ----------------------------------------------------------------------
def program_unit_keys(program, opts) -> Dict[str, str]:
    """Chained content keys for every procedure of *program*.

    Uses the same chaining scheme as the summary cache
    (:func:`repro.service.cache.unit_key`): a procedure's key covers its
    canonical source, its callees' keys (transitively, its whole
    subtree) and the analysis options — so the receipt pinpoints *which*
    procedure changed between two jobs, not just *that* something did.
    Computed bottom-up over the (acyclic) call graph; a pure function of
    source + options, independent of cache warmth or analysis outcome.
    """
    from repro.ir.callgraph import CallGraph
    from repro.lang.prettyprint import unit_str
    from repro.service.cache import unit_key

    graph = CallGraph(program)
    keys: Dict[str, str] = {}
    for name in graph.bottom_up_order():
        callee_keys = [(c, keys[c]) for c in sorted(graph.callees(name))]
        keys[name] = unit_key(
            unit_str(program.units[name]), callee_keys, opts
        )
    return keys


def combined_hash(inputs: Dict) -> str:
    """The inputs-section hash, recomputable from the receipt alone."""
    h = hashlib.sha256()
    h.update(str(inputs.get("program")).encode())
    h.update(b"\x00")
    h.update(str(inputs.get("which")).encode())
    for name, key in sorted((inputs.get("unit_keys") or {}).items()):
        h.update(b"\x00")
        h.update(name.encode())
        h.update(b"\x01")
        h.update(key.encode())
    return h.hexdigest()


def analyze_inputs(program, opts) -> Dict:
    """Inputs section for an ``analyze`` job."""
    inputs = {
        "program": program.main,
        "which": None,
        "unit_keys": program_unit_keys(program, opts),
    }
    inputs["combined"] = combined_hash(inputs)
    return inputs


def experiment_inputs(which: Optional[str]) -> Dict:
    """Inputs section for an ``experiment`` job."""
    inputs = {"program": None, "which": which, "unit_keys": {}}
    inputs["combined"] = combined_hash(inputs)
    return inputs


def empty_inputs() -> Dict:
    """Inputs section for a job that failed before its input existed."""
    inputs = {"program": None, "which": None, "unit_keys": {}}
    inputs["combined"] = combined_hash(inputs)
    return inputs


# ----------------------------------------------------------------------
# knobs
# ----------------------------------------------------------------------
def knobs_in_effect(options_name: Optional[str], opts) -> Dict:
    """The analysis options that shaped this job's answer, and whether a
    summary cache served it."""
    from repro.service.cache import default_cache, options_fingerprint

    return {
        "options": options_name,
        "options_fingerprint": (
            options_fingerprint(opts) if opts is not None else None
        ),
        "cache": default_cache() is not None,
    }


# ----------------------------------------------------------------------
# assembly / serialization
# ----------------------------------------------------------------------
def build_receipt(
    job_id: str,
    kind: str,
    priority: int,
    inputs: Dict,
    knobs: Dict,
    budget_granted: Dict,
    degraded: bool,
    trips: Dict[str, int],
    result_summary: Dict,
    timings: Dict,
) -> Dict:
    """Assemble one receipt dict (stable sections + ``timings``)."""
    return {
        "schema": RECEIPT_SCHEMA,
        "job": {"id": job_id, "kind": kind, "priority": int(priority)},
        "inputs": inputs,
        "knobs": knobs,
        "budgets": {"granted": budget_granted},
        "degradation": {
            "degraded": bool(degraded),
            "trips": {k: int(v) for k, v in sorted(trips.items())},
        },
        "result": result_summary,
        "timings": timings,
    }


def stable_part(receipt: Dict) -> Dict:
    """The receipt minus its volatile ``timings`` section."""
    return {k: v for k, v in receipt.items() if k != "timings"}


def receipt_bytes(receipt: Dict) -> bytes:
    """The canonical on-disk encoding (sorted keys, compact, newline).

    Compact separators keep json on its C encoder (``indent`` forces
    the pure-Python path, ~3x slower) — the receipt write is on every
    job's critical path.  Pipe through ``python -m json.tool`` to read
    one by eye.
    """
    return (
        json.dumps(receipt, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def validate_receipt(receipt: Dict) -> List[str]:
    """Schema-check a parsed receipt; returns problems (empty = valid).

    Beyond shape, this *recomputes* the combined inputs hash from the
    recorded unit keys — a receipt must reproduce its own inputs hash on
    re-read or it is corrupt.
    """
    problems: List[str] = []
    if not isinstance(receipt, dict):
        return ["receipt is not an object"]
    if receipt.get("schema") != RECEIPT_SCHEMA:
        problems.append(
            f"schema is {receipt.get('schema')!r}, expected {RECEIPT_SCHEMA!r}"
        )
    for section in SECTIONS:
        if section == "schema":
            continue
        if not isinstance(receipt.get(section), dict):
            problems.append(f"missing or non-object section {section!r}")
    if problems:
        return problems

    job = receipt["job"]
    for field in ("id", "kind"):
        if not isinstance(job.get(field), str):
            problems.append(f"job.{field} missing or not a string")
    if job.get("kind") not in ("analyze", "experiment", None):
        problems.append(f"job.kind {job.get('kind')!r} is unknown")

    inputs = receipt["inputs"]
    if not isinstance(inputs.get("unit_keys"), dict):
        problems.append("inputs.unit_keys missing or not an object")
    elif inputs.get("combined") != combined_hash(inputs):
        problems.append(
            "inputs.combined does not reproduce from the recorded unit keys"
        )

    if not isinstance(receipt["knobs"].get("cache"), bool):
        problems.append("knobs.cache missing or not a boolean")

    if "granted" not in receipt["budgets"]:
        problems.append("budgets.granted missing")
    degradation = receipt["degradation"]
    if not isinstance(degradation.get("degraded"), bool):
        problems.append("degradation.degraded missing or not a boolean")
    if not isinstance(degradation.get("trips"), dict):
        problems.append("degradation.trips missing or not an object")
    if receipt["result"].get("state") not in ("done", "failed"):
        problems.append(
            f"result.state {receipt['result'].get('state')!r} is not terminal"
        )
    return problems
