"""``cli-cold``: one client, closed loop, fresh CLI processes.

Runs a seeded sequence of ``python -m repro analyze FILE`` and (every
fourth command) ``python -m repro elpd FILE INPUTS`` subprocesses, each
started only after the previous one exited.  A one-shot user pays for
interpreter start and imports on every call; the ``elpd`` commands show
whether a lazy-import change only moves NumPy's cost into the runtime.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List

import checks
import common
import gen
import spans
import stats
from launch import MARKER

#: commands generated per seed; a run cycles through them
POOL = 256
#: set-up repetitions (``setup_s`` is their median)
SETUPS = 5
#: one reference task (``common.reference_s``) after every this many commands
REF_EVERY = 4
#: ``peak_rss_mb`` covers the first this many commands, the same programs
#: however many commands a run's time allows
RSS_COMMANDS = 64


def _write(stream) -> List[str]:
    d = common.WORK / "cli"
    d.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (_cmd, prog) in enumerate(stream):
        path = d / f"c{i}.f"
        path.write_text(prog.source)
        paths.append(str(path.relative_to(common.ROOT)))
    return paths


def _argv(cmd: str, path: str, prog: gen.GenProgram) -> List[str]:
    return [cmd, path] + ([str(v) for v in prog.inputs] if cmd == "elpd" else [])


def _check(cmd: str, out: str, prog: gen.GenProgram) -> List[str]:
    if cmd == "analyze":
        return checks.mismatches(checks.parse_report(out), prog.expected)
    return checks.mismatches(checks.parse_elpd(out), prog.elpd)


def input_hash(seed: int, stream=None) -> str:
    """Digest of the commands and programs a run of *seed* is fed."""
    stream = stream or gen.cli_stream(seed, POOL)
    return gen.stream_hash([p for _, p in stream], [c for c, _ in stream])


def run(seed: int, seconds: float, traced: bool) -> Dict:
    stream = gen.cli_stream(seed, POOL)
    digest = input_hash(seed, stream)
    paths = _write(stream)
    env = common.child_env()
    py = sys.executable
    errors: List[str] = []

    # set-up: the first call of each subcommand (fills the bytecode cache
    # the first time, as installing the package would)
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        for i in (0, 3):
            cmd, prog = stream[i]
            _w, rc, out, err, _rss = common.run_timed([py, "-m", "repro"] + _argv(cmd, paths[i], prog), env)
            if rc != 0:
                errors.append(f"setup {cmd} exited {rc}: {err[-300:]}")
        setups.append(time.perf_counter() - start)

    lat: Dict[str, List[float]] = {"analyze": [], "elpd": []}
    traced_lat: List[float] = []
    untraced_lat: List[float] = []
    trace_docs = []
    import_ms: Dict[str, List[float]] = {"analyze": [], "elpd": []}
    refs: List[float] = []
    attempted = failed = 0
    peak = 0.0  # highest peak RSS of the first RSS_COMMANDS timed commands
    source_bytes = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        k = i % len(stream)
        cmd, prog = stream[k]
        if i % REF_EVERY == 0:
            refs.append(common.reference_s(env))
        i += 1
        argv = _argv(cmd, paths[k], prog)
        attempted += 1
        wall, rc, out, err, rss = common.run_timed([py, "-m", "repro"] + argv, env)
        if i <= RSS_COMMANDS:
            peak = max(peak, rss)
        if rc != 0:
            failed += 1
            errors.append(f"{cmd} {paths[k]} exited {rc}: {err[-300:]}")
            continue
        bad = _check(cmd, out, prog)
        if bad:
            errors.append(f"{cmd} {paths[k]}: " + "; ".join(bad[:3]))
        lat[cmd].append(wall)
        if traced:
            tpath = common.WORK / "cli" / f"trace-{k}.json"
            twall, rc, out, err, _rss = common.run_timed(
                [py, "-X", "importtime", str(common.HERE / "launch.py"), str(tpath), cmd] + argv,
                env,
            )
            if rc != 0:
                errors.append(f"traced {cmd} {paths[k]} exited {rc}: {err[-300:]}")
                continue
            bad = _check(cmd, out, prog)
            if bad:
                errors.append(f"traced {cmd} {paths[k]}: " + "; ".join(bad[:3]))
            untraced_lat.append(wall)
            traced_lat.append(twall)
            import_ms[cmd].append(common.import_ms(err, MARKER))
            with open(tpath) as f:
                trace_docs.append(json.load(f))
            source_bytes += len(prog.source.encode())

    analyze, elpd = lat["analyze"], lat["elpd"]
    tail_v, tail_p, tail_n = stats.tail([x * 1000 for x in analyze])
    total = sum(analyze) + sum(elpd)
    named = {
        "cli_analyze_p50_ms": (stats.median(analyze) * 1000, "ms"),
        "cli_analyze_tail_ms": (tail_v, "ms"),
        "cli_elpd_p50_ms": (stats.median(elpd) * 1000, "ms"),
        "setup_s": (stats.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
        "fail_ratio": (failed / max(attempted, 1), "ratio"),
        "ref_ms": (stats.median(refs) * 1000, "ms"),
    }
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "input_hash": digest,
        "named": named,
        "tail": {"cli_analyze_tail_ms": {"percentile": tail_p, "samples": tail_n}},
        "e2e": {
            "p50_ms": named["cli_analyze_p50_ms"][0],
            "tail_ms": tail_v,
            "throughput_per_s": (len(analyze) + len(elpd)) / total,
            "setup_s": named["setup_s"][0],
            "peak_rss_mb": named["peak_rss_mb"][0],
            "ref_ms": named["ref_ms"][0],
        },
    }
    if traced:
        result["layers"] = _layers(trace_docs, import_ms, traced_lat, untraced_lat, source_bytes, errors)
        events = [e for doc in trace_docs for e in doc["traceEvents"]]
        result["trace_events"] = events
    return result


def _layers(docs, import_ms, traced_lat, untraced_lat, source_bytes, errors) -> Dict[str, float]:
    env = common.child_env()
    interp = [common.run_timed([sys.executable, "-c", "pass"], env)[0] for _ in range(5)]
    aggs: Dict[str, Dict[str, float]] = {}
    for doc in docs:
        for name, a in doc["perfbench"]["aggregates"].items():
            acc = aggs.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += a[key]
        for row in doc["perfbench"].get("coverage", []):
            if not row["ok"]:
                errors.append(f"wrapper coverage: {row}")
    n = max(len(docs), 1)
    layers = {m: row["value"] for m, row in spans.layer_table(aggs, n).items()}
    layers["startup.interp_ms"] = stats.median(interp) * 1000
    layers["startup.import_ms"] = stats.median(import_ms["analyze"]) if import_ms["analyze"] else 0.0
    layers["startup.import_elpd_ms"] = stats.median(import_ms["elpd"]) if import_ms["elpd"] else 0.0
    parse = aggs.get("lang.parse", {}).get("total_s", 0.0)
    layers["lang.parse_kb_per_s"] = (source_bytes / 1024.0) / parse if parse else 0.0
    # counters: summed over the single-threaded CLI processes
    before = {"counters": {}, "caches": {}, "total_ops": 0}
    after = {"counters": {}, "caches": {}, "total_ops": 0}
    for doc in docs:
        b, a = doc["perfbench"]["snapshots"]
        for acc, snap in ((before, b), (after, a)):
            acc["total_ops"] += snap["total_ops"]
            for k, v in snap["counters"].items():
                acc["counters"][k] = acc["counters"].get(k, 0) + v
            for k, c in snap["caches"].items():
                dst = acc["caches"].setdefault(k, {"hits": 0, "misses": 0})
                dst["hits"] += c.get("hits", 0)
                dst["misses"] += c.get("misses", 0)
    layers.update(spans.snapshot_metrics(before, after, n))
    steps = sum(doc["perfbench"]["counts"].get("runtime.steps", 0) for doc in docs)
    elpd_s = aggs.get("runtime.elpd", {}).get("total_s", 0.0)
    layers["runtime.steps_per_s"] = steps / elpd_s if elpd_s else 0.0
    layers["trace_overhead"] = sum(traced_lat) / sum(untraced_lat) if untraced_lat else 0.0
    return layers
