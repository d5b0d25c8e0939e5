"""Benchmark entry point.

    python3 perfbench/run.py --workload {cli-cold,farm,service-mix,all}
        --seed N --seconds S --trace {0,1} [--record FILE]

Run from the root of a checkout.  Generates the workload's programs from
the seed, drives the program through its public entry points for about
S seconds, checks every answer against the generator's ground truth and
prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See NOTES.md
for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict

import common

#: end-to-end metrics every workload reports (see NOTES.md)
END_TO_END = {
    "p50_rel": "x",
    "tail_rel": "x",
    "throughput_rel": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics; a layer a workload never enters reads 0
PER_LAYER = {
    "startup.interp_ms": "ms",
    "startup.import_ms": "ms",
    "startup.import_elpd_ms": "ms",
    "lang.parse_ms": "ms",
    "lang.parse_kb_per_s": "KB/s",
    "pass.scalarprop_ms": "ms",
    "pass.frontend_ms": "ms",
    "pass.screen_ms": "ms",
    "pass.summarize_ms": "ms",
    "pass.decide_ms": "ms",
    "pass.enclose_ms": "ms",
    "pass.plan_ms": "ms",
    "linalg.fm_ms": "ms",
    "predicates.oracle_ms": "ms",
    "regions.ops_ms": "ms",
    "pipeline.self_ms": "ms",
    "total_ops": "count",
    "fm.pair_combine": "count",
    "pred.oracle.tier2_share": "ratio",
    "fm.eliminate_all.hit_rate": "ratio",
    "affine.intern.hit_rate": "ratio",
    "screen.hit_ratio": "ratio",
    "batch.parent_cpu_ms": "ms",
    "executor.warm_ratio": "ratio",
    "executor.chunks": "count",
    "runtime.elpd_ms": "ms",
    "runtime.steps_per_s": "1/s",
    "runtime.vec_ratio": "ratio",
    "svc.admit_ms": "ms",
    "svc.polls_per_job": "count",
    "svc.backlog_max": "count",
    "svc.rejected": "count",
    "gen.late_p50_ms": "ms",
    "gen.late_max_ms": "ms",
    "svc.queued_ms": "ms",
    "svc.run_ms": "ms",
    "service.submit_ms": "ms",
    "service.claim_ms": "ms",
    "service.execute_ms": "ms",
    "service.analyze_ms": "ms",
    "service.receipt_ms": "ms",
    "service.finish_ms": "ms",
    "perf.snapshot_ms": "ms",
    "cache.program_hit_ratio": "ratio",
    "trace_overhead": "ratio",
    "fail_ratio": "ratio",
}

WORKLOADS = ("cli-cold", "farm", "service-mix")


def _module(workload: str):
    if workload == "cli-cold":
        import cli_cold as mod
    elif workload == "farm":
        import farm as mod
    else:
        import service_mix as mod
    return mod


def _pinned(workload: str, seed: int) -> str:
    with open(common.HERE / "pins.json") as f:
        return json.load(f).get(workload, {}).get(str(seed), "")


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> Dict:
    result = _module(workload).run(seed, seconds, traced)
    pin = _pinned(workload, seed)
    if pin and pin != result["input_hash"]:
        result["errors"].insert(
            0,
            f"generated inputs changed: hash {result['input_hash'][:16]} "
            f"!= pinned {pin[:16]} (perfbench/pins.json)",
        )
    return result


def relative(e2e: Dict[str, float]) -> Dict[str, float]:
    """The end-to-end metrics from a workload's figures: its timings in
    units of the reference task's median time in the same run, so that
    how fast the shared machine happens to be cancels out (NOTES.md)."""
    ref = e2e["ref_ms"]
    return {
        "p50_rel": e2e["p50_ms"] / ref,
        "tail_rel": e2e["tail_ms"] / ref,
        "throughput_rel": e2e["throughput_per_s"] * ref / 1000.0,
        "setup_s": e2e["setup_s"],
        "peak_rss_mb": e2e["peak_rss_mb"],
    }


def _print_named(workload: str, result: Dict) -> None:
    print(f"== {workload}")
    for name, (value, unit) in result["named"].items():
        tail = result.get("tail", {}).get(name)
        extra = f"  (p{tail['percentile']}, {tail['samples']} samples)" if tail else ""
        print(f"  {name:<24} {value:14.4f} {unit}{extra}")
    for name, info in result.get("tail", {}).items():
        if name not in result["named"]:
            print(f"  {name:<24} p{info['percentile']} of {info['samples']} samples")
    for name, value in result.get("client", {}).items():
        print(f"  {name:<24} {value:14.4f}")
    for name, value in result.get("e2e", {}).items():
        if name not in result["named"]:
            print(f"  {name:<24} {value:14.4f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", metavar="FILE", help="also write a JSON record (see compare.py)")
    args = p.parse_args(argv)

    common.check_checkout()
    common.clean_environ()
    sys.path.insert(0, str(common.SRC))
    common.WORK.mkdir(parents=True, exist_ok=True)
    profile = common.hardware_profile()
    print("profile:", json.dumps(profile, sort_keys=True))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    started = time.perf_counter()
    results = {w: run_one(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    for w, r in results.items():
        _print_named(w, r)
        for err in r["errors"][:10]:
            print(f"  ERROR {err}", file=sys.stderr)
        if len(r["errors"]) > 10:
            print(f"  ... {len(r['errors']) - 10} more errors", file=sys.stderr)

    errors = [e for r in results.values() for e in r["errors"]]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        # one command, every named metric of every workload
        metrics = {
            name: {"value": value, "unit": unit}
            for r in results.values()
            for name, (value, unit) in r["named"].items()
            if name not in ("setup_s", "peak_rss_mb", "fail_ratio", "ref_ms")
        }
        for name, unit in (("setup_s", "s"), ("peak_rss_mb", "MB")):
            metrics[name] = {"value": max(r["named"][name][0] for r in results.values()), "unit": unit}
        metrics["fail_ratio"] = {"value": failed / max(attempted, 1), "unit": "ratio"}
    elif args.trace:
        (r,) = results.values()
        layers = dict(r["layers"])
        layers["fail_ratio"] = failed / max(attempted, 1)
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER.items()}
        trace_path = common.WORK / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_path, "w") as f:
            json.dump({"traceEvents": r.pop("trace_events"), "displayTimeUnit": "ms"}, f)
        print(f"trace: {trace_path.relative_to(common.ROOT)}")
        print(f"{'per-layer metric':<28} value")
        for name, m in metrics.items():
            print(f"  {name:<26} {m['value']:.6g} {m['unit']}")
    else:
        (r,) = results.values()
        values = relative(r["e2e"])
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END.items()}

    if args.record:
        common.write_json(
            common.ROOT / args.record,
            {
                "profile": profile,
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "metrics": metrics,
                "named": {w: r["named"] for w, r in results.items()},
                "tail": {w: r.get("tail", {}) for w, r in results.items()},
                "input_hash": {w: r["input_hash"] for w, r in results.items()},
                "rungs": {w: r["rungs"] for w, r in results.items() if "rungs" in r},
                "client": {w: r["client"] for w, r in results.items() if "client" in r},
                "wall_s": time.perf_counter() - started,
            },
        )
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
