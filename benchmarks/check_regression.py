#!/usr/bin/env python
"""Benchmark regression gate.

Compares a pytest-benchmark JSON result file against the committed
baseline (``BENCH_baseline.json`` at the repo root) and fails when any
benchmark present in **both** files is more than ``--threshold`` slower
(by mean time).  New or removed benchmarks are reported but never fail
the check.

Usage::

    # run the micro-benchmarks and compare in one step
    python benchmarks/check_regression.py

    # compare a pre-recorded run
    python benchmarks/check_regression.py --current /tmp/bench_now.json

    # stricter gate
    python benchmarks/check_regression.py --threshold 0.10

Exit status: 0 when no gated regression, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_baseline.json")
#: the timed micro-benchmark files the gate runs (wall-clock + the
#: deterministic op counters some of them record in extra_info)
MICRO_BENCH = [
    os.path.join(REPO_ROOT, "benchmarks", "test_core_micro.py"),
    os.path.join(REPO_ROOT, "benchmarks", "test_predicates_micro.py"),
    os.path.join(REPO_ROOT, "benchmarks", "test_pipeline_micro.py"),
    os.path.join(REPO_ROOT, "benchmarks", "test_linalg_micro.py"),
    os.path.join(REPO_ROOT, "benchmarks", "test_runtime_micro.py"),
    os.path.join(REPO_ROOT, "benchmarks", "test_screen_micro.py"),
]


def _load_means(path: str) -> dict:
    with open(path) as f:
        data = json.load(f)
    return {
        b["name"]: b["stats"]["mean"] for b in data.get("benchmarks", [])
    }


def _load_extra_info(path: str) -> dict:
    """name -> {key: numeric value} for benchmarks with extra_info.

    Keys ending in ``_ms`` / ``_s`` are wall-clock readings recorded for
    information (e.g. the serve benchmarks' per-job p50); they are
    timing noise, not deterministic op counters, so the monotone
    not-above-baseline gate must not see them.
    """
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        info = {
            k: v
            for k, v in (b.get("extra_info") or {}).items()
            if isinstance(v, (int, float))
            and not isinstance(v, bool)
            and not k.endswith(("_ms", "_s"))
        }
        if info:
            out[b["name"]] = info
    return out


def _run_benchmarks(json_out: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *MICRO_BENCH,
        "-q",
        "--benchmark-json",
        json_out,
    ]
    subprocess.run(cmd, check=True, cwd=REPO_ROOT, env=env)


def compare(baseline: dict, current: dict, threshold: float):
    """Returns (regressions, improvements, only_in_one) summaries."""
    regressions = []
    rows = []
    for name in sorted(set(baseline) & set(current)):
        old, new = baseline[name], current[name]
        ratio = new / old if old else float("inf")
        rows.append((name, old, new, ratio))
        if ratio > 1.0 + threshold:
            regressions.append((name, old, new, ratio))
    skipped = sorted(set(baseline) ^ set(current))
    return regressions, rows, skipped


def compare_extra_info(baseline: dict, current: dict):
    """Gate the deterministic op counters recorded in ``extra_info``.

    For every (benchmark, numeric key) pair present in both files the
    current count must not exceed the baseline's — these counters are
    deterministic given cold caches, so any increase is a real cost
    regression, not timing noise.
    """
    regressions = []
    rows = []
    for name in sorted(set(baseline) & set(current)):
        for key in sorted(set(baseline[name]) & set(current[name])):
            old, new = baseline[name][key], current[name][key]
            rows.append((name, key, old, new))
            if new > old:
                regressions.append((name, key, old, new))
    return regressions, rows


def check_max_ratios(current: dict, specs):
    """Enforce ``NUM:DEN:R`` pairs on the *current* means.

    Fails when ``mean(NUM) > mean(DEN) * R``.  Used for benchmarks whose
    relationship — not absolute time — is the invariant: e.g. the
    parallel pipeline schedule may not cost more than a constant factor
    over the serial one, even on a single-core runner where it cannot
    be faster.
    """
    failures = []
    rows = []
    for spec in specs:
        try:
            num, den, ratio_s = spec.split(":")
            limit = float(ratio_s)
        except ValueError:
            failures.append((spec, "malformed; expected NUM:DEN:RATIO"))
            continue
        if num not in current or den not in current:
            failures.append((spec, "benchmark missing from current file"))
            continue
        ratio = current[num] / current[den] if current[den] else float("inf")
        rows.append((num, den, ratio, limit))
        if ratio > limit:
            failures.append(
                (spec, f"ratio {ratio:.2f}x exceeds limit {limit:.2f}x")
            )
    return failures, rows


def check_multicore() -> int:
    """Live multicore gate: the process pool must beat the serial loop.

    Runs ``benchmarks/test_pipeline_multicore.py`` (whole suite, serial
    vs ``run_pipeline_batch`` at 4 process workers) and enforces a
    cpu-aware speedup floor: >= 2x with 4+ cores, >= 1.2x with 2-3.
    On a single-core runner there is no true parallelism to measure —
    the gate skips with an explicit notice and exit 0.
    """
    cpus = os.cpu_count() or 1
    if cpus < 2:
        print(
            f"multicore gate: SKIPPED — os.cpu_count() = {cpus}; a "
            "process pool cannot beat the serial loop without a second "
            "core, so there is nothing to gate on this runner"
        )
        return 0
    floor = 2.0 if cpus >= 4 else 1.2
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        json_out = tmp.name
    try:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                os.path.join(
                    REPO_ROOT, "benchmarks", "test_pipeline_multicore.py"
                ),
                "-q",
                "--benchmark-json",
                json_out,
            ],
            check=True,
            cwd=REPO_ROOT,
            env=env,
        )
        means = _load_means(json_out)
    finally:
        os.unlink(json_out)
    serial = means.get("test_suite_serial")
    pooled = means.get("test_suite_process_pool")
    if not serial or not pooled:
        print("FAIL: multicore benchmarks missing from the recorded run")
        return 1
    speedup = serial / pooled
    print(
        f"multicore gate: serial {serial * 1e3:.1f}ms / "
        f"process-pool {pooled * 1e3:.1f}ms = {speedup:.2f}x speedup "
        f"({cpus} cpus; floor {floor:.1f}x)"
    )
    if speedup < floor:
        print(
            f"FAIL: whole-suite process-pool speedup {speedup:.2f}x "
            f"below the {floor:.1f}x floor for {cpus} cpus"
        )
        return 1
    return 0


def check_throughput() -> int:
    """Live warm-fleet gate: warm batch rounds must beat cold ones.

    Runs ``benchmarks/test_batch_throughput.py`` (the single-unit suite
    programs streamed through ``run_pipeline_batch`` at 4 process
    workers, cold-per-round vs warm fleet) and enforces a cpu-aware
    speedup floor: >= 2x with 4+ cores, >= 1.2x with 2-3.  On a
    single-core runner the process pool serializes anyway and the
    cold/warm delta is dominated by noise — the gate skips with an
    explicit notice and exit 0.
    """
    cpus = os.cpu_count() or 1
    if cpus < 2:
        print(
            f"throughput gate: SKIPPED — os.cpu_count() = {cpus}; the "
            "warm fleet cannot demonstrate its speedup without a second "
            "core, so there is nothing to gate on this runner"
        )
        return 0
    floor = 2.0 if cpus >= 4 else 1.2
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        json_out = tmp.name
    try:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                os.path.join(
                    REPO_ROOT, "benchmarks", "test_batch_throughput.py"
                ),
                "-q",
                "--benchmark-json",
                json_out,
            ],
            check=True,
            cwd=REPO_ROOT,
            env=env,
        )
        with open(json_out) as f:
            data = json.load(f)
        means = {
            b["name"]: b["stats"]["mean"] for b in data.get("benchmarks", [])
        }
        programs = {
            b["name"]: (b.get("extra_info") or {}).get("programs")
            for b in data.get("benchmarks", [])
        }
    finally:
        os.unlink(json_out)
    cold = means.get("test_batch_cold")
    warm = means.get("test_batch_warm")
    if not cold or not warm:
        print("FAIL: throughput benchmarks missing from the recorded run")
        return 1
    n = programs.get("test_batch_warm") or 0
    speedup = cold / warm
    print(
        f"throughput gate: cold {cold * 1e3:.1f}ms / warm "
        f"{warm * 1e3:.1f}ms per round = {speedup:.2f}x speedup"
        + (
            f" ({n / warm:.1f} programs/sec warm, {n / cold:.1f} cold)"
            if n
            else ""
        )
        + f" ({cpus} cpus; floor {floor:.1f}x)"
    )
    if speedup < floor:
        print(
            f"FAIL: warm-fleet batch speedup {speedup:.2f}x below the "
            f"{floor:.1f}x floor for {cpus} cpus"
        )
        return 1
    return 0


#: allowed end-to-end overhead of the job system (queue + fleet +
#: receipts) over calling the execution core directly
SERVE_OVERHEAD_LIMIT = 1.3


def check_serve() -> int:
    """Live serve-latency gate: the job system must stay cheap.

    Runs the paired-round driver in ``benchmarks/test_serve_latency.py``
    (every suite program as a closed-loop job through a persistent
    queue + 4-worker fleet, alternating round-for-round with the same
    requests through ``run_analyze`` directly) and enforces that the
    fleet path stays within ``SERVE_OVERHEAD_LIMIT`` of the direct
    path.  The fleet uses threads, so — unlike the multicore gate —
    this runs on any machine, single-core included.  The comparison is
    p50-to-p50 over the pooled per-request latencies (~150 samples a
    side), and the rounds interleave so machine drift on a shared
    runner cancels out of the ratio instead of landing on one side.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(REPO_ROOT, "benchmarks", "test_serve_latency.py"),
        ],
        check=True,
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    direct = stats.get("direct_p50_ms")
    fleet = stats.get("fleet_p50_ms")
    if not direct or not fleet:
        print("FAIL: serve latencies missing from the driver output")
        return 1
    overhead = fleet / direct
    print(
        f"serve gate: per-job p50 direct {direct:.2f}ms / "
        f"fleet {fleet:.2f}ms = {overhead:.2f}x overhead "
        f"(limit {SERVE_OVERHEAD_LIMIT:.1f}x)"
    )
    if overhead > SERVE_OVERHEAD_LIMIT:
        print(
            f"FAIL: job-system overhead {overhead:.2f}x exceeds the "
            f"{SERVE_OVERHEAD_LIMIT:.1f}x limit over direct invocation"
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help="baseline pytest-benchmark JSON (default: BENCH_baseline.json)",
    )
    parser.add_argument(
        "--current",
        default=None,
        help="pytest-benchmark JSON to check; omitted = run the "
        "micro-benchmarks now",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    parser.add_argument(
        "--require-faster",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless this benchmark's current mean is strictly "
        "below the baseline's (repeatable); used to enforce that a PR "
        "actually improves its headline benchmark",
    )
    parser.add_argument(
        "--max-ratio",
        action="append",
        default=[],
        metavar="NUM:DEN:RATIO",
        help="fail unless current mean(NUM) <= mean(DEN) * RATIO "
        "(repeatable); gates relative cost between two benchmarks of "
        "the same run",
    )
    parser.add_argument(
        "--multicore",
        action="store_true",
        help="run only the live multicore gate (whole suite serial vs "
        "process pool); skips with a notice on single-core runners",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="run only the live serve-latency gate (suite jobs through "
        "the queue + worker fleet vs direct invocation); thread-based, "
        "so it runs on any machine",
    )
    parser.add_argument(
        "--throughput",
        action="store_true",
        help="run only the live warm-fleet throughput gate (batched "
        "single-unit stream, warm vs cold rounds); skips with a notice "
        "on single-core runners",
    )
    args = parser.parse_args(argv)

    if args.multicore:
        return check_multicore()
    if args.serve:
        return check_serve()
    if args.throughput:
        return check_throughput()

    baseline = _load_means(args.baseline)
    baseline_info = _load_extra_info(args.baseline)
    if args.current is not None:
        current = _load_means(args.current)
        current_info = _load_extra_info(args.current)
    else:
        with tempfile.NamedTemporaryFile(
            suffix=".json", delete=False
        ) as tmp:
            json_out = tmp.name
        try:
            _run_benchmarks(json_out)
            current = _load_means(json_out)
            current_info = _load_extra_info(json_out)
        finally:
            os.unlink(json_out)

    failures = 0

    regressions, rows, skipped = compare(
        baseline, current, args.threshold
    )
    print(f"{'benchmark':<40} {'baseline':>12} {'current':>12} {'ratio':>8}")
    for name, old, new, ratio in rows:
        flag = "  << REGRESSION" if (name, old, new, ratio) in regressions else ""
        print(
            f"{name:<40} {old * 1e3:>10.3f}ms {new * 1e3:>10.3f}ms "
            f"{ratio:>7.2f}x{flag}"
        )
    for name in skipped:
        print(f"{name:<40} (present in only one file; not gated)")
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} benchmark(s) slower than "
            f"{args.threshold:.0%} over baseline"
        )
        failures += 1

    info_regressions, info_rows = compare_extra_info(
        baseline_info, current_info
    )
    if info_rows:
        print(f"\n{'op counter':<58} {'baseline':>10} {'current':>10}")
        for name, key, old, new in info_rows:
            flag = (
                "  << REGRESSION"
                if (name, key, old, new) in info_regressions
                else ""
            )
            print(f"{name + ': ' + key:<58} {old:>10} {new:>10}{flag}")
    if info_regressions:
        print(
            f"\nFAIL: {len(info_regressions)} op counter(s) above baseline"
        )
        failures += 1

    for name in args.require_faster:
        if name not in baseline or name not in current:
            print(f"\nFAIL: --require-faster {name}: not in both files")
            failures += 1
        elif current[name] >= baseline[name]:
            print(
                f"\nFAIL: --require-faster {name}: "
                f"{current[name] * 1e3:.3f}ms !< "
                f"{baseline[name] * 1e3:.3f}ms baseline"
            )
            failures += 1
        else:
            print(
                f"\nrequired-faster {name}: "
                f"{current[name] * 1e3:.3f}ms < "
                f"{baseline[name] * 1e3:.3f}ms baseline"
            )

    ratio_failures, ratio_rows = check_max_ratios(current, args.max_ratio)
    for num, den, ratio, limit in ratio_rows:
        print(
            f"\nmax-ratio {num} / {den}: {ratio:.2f}x "
            f"(limit {limit:.2f}x)"
        )
    for spec, reason in ratio_failures:
        print(f"\nFAIL: --max-ratio {spec}: {reason}")
        failures += 1

    if failures:
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
