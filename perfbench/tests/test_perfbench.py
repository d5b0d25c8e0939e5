"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import service_mix  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


# ----------------------------------------------------------------------
# generator determinism
# ----------------------------------------------------------------------
def _bytes(seed):
    cli = [p for _, p in gen.cli_stream(seed, 12)]
    farm = gen.farm_stream(seed, 0, 12)
    svc = [j.program for j in gen.service_stream(seed, 24)]
    return [gen.stream_hash(x) for x in (cli, farm, svc)], [p.source for p in cli + farm + svc]


def test_same_seed_same_bytes():
    assert _bytes(3) == _bytes(3)


def test_other_seed_other_bytes():
    h3, _ = _bytes(3)
    h4, _ = _bytes(4)
    assert all(a != b for a, b in zip(h3, h4))


def test_stream_prefix_independent_of_length():
    short = [p.source for _, p in gen.cli_stream(5, 4)]
    long = [p.source for _, p in gen.cli_stream(5, 40)][:4]
    assert short == long
    assert gen.farm_stream(5, 10, 3)[0].source == gen.farm_stream(5, 0, 13)[10].source


def test_service_repeats_resend_earlier_sources():
    jobs = gen.service_stream(2, 64)
    earlier = set()
    for job in jobs:
        if job.repeat:
            assert job.program.source in earlier
        earlier.add(job.program.source)
    assert sum(j.repeat for j in jobs) == 12  # every fourth slot from 19 on


# ----------------------------------------------------------------------
# the tail rule
# ----------------------------------------------------------------------
def test_tail_percentile_needs_ten_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(39) == 50.0
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(199) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9


def test_tail_value_and_fallback():
    values = list(range(1, 101))  # 1..100
    v, p, n = stats.tail(values)
    assert (p, n) == (90.0, 100)
    assert abs(v - 90.1) < 1e-9
    assert stats.tail([5.0, 7.0]) == (7.0, None, 2)
    assert stats.median([3.0, 1.0, 2.0]) == 2.0


# ----------------------------------------------------------------------
# self time on a synthetic span tree
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_children():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)

    def at(t):
        clock.t = t

    # A [0, 10] with children B [1, 3] (holding C [1.5, 2.5]) and B [4, 6]
    at(0); rec.open("A")
    at(1); rec.open("B")
    at(1.5); rec.open("C")
    at(2.5); rec.close()
    at(3); rec.close()
    at(4); rec.open("B")
    at(6); rec.close()
    at(10); rec.close()
    aggs = rec.aggregates()
    assert aggs["A"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert aggs["B"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert aggs["C"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    events = {e["args"]["id"]: e for e in rec.chrome_events()}
    parents = {e["name"]: events.get(e["args"]["parent"], {}).get("name") for e in events.values()}
    assert parents == {"A": None, "B": "A", "C": "B"}


def test_wrapped_calls_share_a_group_and_layer_table():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)

    def kernel():
        clock.t += 1.0

    def job(_x):
        clock.t += 2.0
        wrapped_kernel()

    wrapped_kernel = rec.wrap("linalg.fm.eliminate", kernel)
    wrapped_job = rec.wrap("service.execute", job, group_of=lambda args: args[0])
    wrapped_job("j1")
    groups = {e["args"]["group"] for e in rec.chrome_events()}
    assert groups == {"j1"}
    table = spans.layer_table(rec.aggregates(), per=1)
    assert table["linalg.fm_ms"] == {"value": 1000.0, "calls": 1}
    assert table["service.execute_ms"] == {"value": 2000.0, "calls": 1}


# ----------------------------------------------------------------------
# open-loop lateness and failure accounting
# ----------------------------------------------------------------------
class FakeServer:
    """POST admits slowly (so the sender falls behind); job 3 is refused
    with 429, job 5 fails, job 7 never finishes."""

    POST_S = 0.02

    def __init__(self):
        self.lock = threading.Lock()
        self.posts = 0

    def client(self, _port):
        return self

    def post(self, path, doc):
        time.sleep(self.POST_S)
        with self.lock:
            i = self.posts
            self.posts += 1
        if i == 3:
            return 429, {"ok": False}
        return 202, {"id": f"j{i}"}

    def get(self, path):
        i = int(path.split("/")[3][1:])
        if path.endswith("/receipt"):
            return 200, {}
        if i == 7:
            return 200, {"id": f"j{i}", "state": "running"}
        return 200, {"id": f"j{i}", "state": "failed" if i == 5 else "done"}


def test_open_loop_lateness_and_failures(monkeypatch):
    monkeypatch.setattr(service_mix, "JOB_TIMEOUT_S", 0.3)
    server = FakeServer()
    jobs = gen.service_stream(1, 10)

    def check(job, status, receipt, rung):
        return [] if status["state"] == "done" else ["job failed"]

    rung = service_mix.open_loop(0, jobs, rate=200.0, seconds=0.05, check=check, client=server.client)
    assert rung.scheduled == 10
    # due every 5 ms, admitted every 20 ms: lateness grows ~15 ms a job
    assert len(rung.late_ms) == 10
    assert rung.late_ms[-1] - rung.late_ms[0] > 100
    assert all(b >= a for a, b in zip(rung.late_ms, rung.late_ms[1:]))
    # 429, failed job and timed-out job each count once as failed
    assert rung.rejected == 1
    assert rung.failed == 3
    assert len(rung.latencies_ms) == 7
    assert not rung.passed
    # latency runs from the scheduled send, so it includes the lateness
    assert max(rung.latencies_ms) >= rung.late_ms[-2]


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def test_parse_report_and_soundness():
    report = (
        "=== f.f ===\n"
        "loops: 3  candidates: 3  parallelized: 2  (run-time tested: 1)  analysis: 1.0 ms\n"
        "  p:L1                     PARALLEL (privatized)  [private: w]\n"
        "      copy-in w: {...}\n"
        "  p:L2                     PARALLEL under run-time test  [test: k >= 30]\n"
        "  p:L3                     PARALLEL  [enclosed]\n"
    )
    got = checks.parse_report(report)
    assert got == {"p:L1": "parallel_private", "p:L2": "runtime", "p:L3": "parallel"}
    assert checks.mismatches(got, dict(got)) == []
    assert checks.mismatches(got, {"p:L1": "serial"})
    elpd = {"p:L1": "privatizable", "p:L2": "dependent", "p:L3": "privatizable"}
    assert checks.unsound(got, elpd) == ["p:L3: parallel but ELPD says privatizable"]


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def test_metrics_match_benchmark_json():
    import json

    import run

    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_relative_divides_out_the_reference():
    import run

    e2e = {"p50_ms": 300.0, "tail_ms": 450.0, "throughput_per_s": 4.0, "setup_s": 0.5, "peak_rss_mb": 40.0, "ref_ms": 150.0}
    slow = {k: v * 2 if k.endswith("_ms") else v / 2 if k == "throughput_per_s" else v for k, v in e2e.items()}
    got = run.relative(e2e)
    assert got == {"p50_rel": 2.0, "tail_rel": 3.0, "throughput_rel": 0.6, "setup_s": 0.5, "peak_rss_mb": 40.0}
    # a machine twice as slow moves the timings and the reference alike
    assert run.relative(slow) == got
