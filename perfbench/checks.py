"""Output checks against the generator's hand-written ground truth."""

from __future__ import annotations

from typing import Dict, List

#: ``analyze`` report tag -> loop status (codegen/report.py's listing)
REPORT_TAGS = {
    "PARALLEL": "parallel",
    "PARALLEL (privatized)": "parallel_private",
    "PARALLEL under run-time test": "runtime",
    "serial": "serial",
    "not a candidate": "not_candidate",
}

#: ELPD classifications each parallel status tolerates: a plain parallel
#: loop needs no conflict at all, a privatized one no cross-iteration
#: flow.  A run-time-tested loop is checked at run time, not here.
SOUND_UNDER = {
    "parallel": ("independent", "not_executed"),
    "parallel_private": ("independent", "privatizable", "not_executed"),
}


def parse_report(text: str) -> Dict[str, str]:
    """Loop label -> status from an ``analyze`` report."""
    out: Dict[str, str] = {}
    for line in text.splitlines():
        if not line.startswith("  ") or line.startswith("      "):
            continue
        label, _, rest = line.strip().partition(" ")
        tag = rest.strip().split("  [", 1)[0].strip()
        out[label] = REPORT_TAGS.get(tag, tag)
    return out


def parse_elpd(text: str) -> Dict[str, str]:
    """Loop label -> ELPD classification from ``elpd`` output."""
    out: Dict[str, str] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2:
            out[parts[0]] = parts[1]
    return out


def mismatches(got: Dict[str, str], expected: Dict[str, str]) -> List[str]:
    """Labels whose value differs from the ground truth (or is missing,
    or is reported but not expected)."""
    labels = sorted(set(got) | set(expected))
    return [
        f"{l}: got {got.get(l)!r}, expected {expected.get(l)!r}"
        for l in labels
        if got.get(l) != expected.get(l)
    ]


def unsound(statuses: Dict[str, str], elpd: Dict[str, str]) -> List[str]:
    """Loops claimed parallel although ELPD saw a conflict the claimed
    form of parallelism does not tolerate."""
    return [
        f"{l}: {s} but ELPD says {elpd.get(l)}"
        for l, s in sorted(statuses.items())
        if s in SOUND_UNDER and elpd.get(l, "not_executed") not in SOUND_UNDER[s]
    ]
