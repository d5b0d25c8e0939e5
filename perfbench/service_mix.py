"""``service-mix``: open loop against ``python -m repro serve --http``.

The server runs as a subprocess with ``--workers nproc --cache DIR``.
A sender thread posts ``analyze`` jobs on a fixed schedule, rung by rung
up a fixed ladder of rates; the main thread polls ``GET /v1/jobs/<id>``
for each outstanding job with a per-job backoff, as a client would, and
fetches each receipt once the job is done.  Latency runs from a job's
*scheduled* send time to the first poll that sees it done, so a stalled
sender or server charges every job behind the stall.

The mix combines small and large programs (head-of-line blocking) and
repeats of earlier sources (program-cache reads) with fresh ones (cache
misses and stores).  This is the only workload that exercises journal,
claim and receipt I/O and the cache write path under queueing.
"""

from __future__ import annotations

import http.client
import json
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import checks
import common
import gen
import stats

#: (rate in jobs/s, seconds as a share of the run) per rung; ``low`` and
#: ``high`` name two of them
LADDER = ((10.0, 0.45), (20.0, 0.25), (35.0, 0.07), (55.0, 0.07), (85.0, 0.04))
LOW, HIGH = 10.0, 20.0
#: jobs posted at once after the ladder; their completion rate is the
#: service's saturated throughput (at most the queue's 256 slots)
BURST = 160
#: a rung passes when its tail stays under this and its backlog does not grow
LIMIT_MS = 200.0
#: a job not done this long after its scheduled send counts as failed
JOB_TIMEOUT_S = 30.0
#: a job is polled again after a tenth of its age, within these limits
#: (seconds): latency is then seen within about 10%, with no coarse
#: steps for a median to jump between
POLL_FIRST, POLL_CAP = 0.001, 0.01
#: warm-up jobs per set-up, and set-up repetitions
WARMUP = 12
SETUPS = 5
#: reference tasks (``common.reference_s``) after each rung, while the
#: server is idle: an open loop leaves no gap for them inside a rung
REFS_PER_RUNG = 3
#: jobs covered by the pinned input hash
PINNED = 256


# ----------------------------------------------------------------------
# server subprocess
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One ``serve --http`` subprocess with its own cache and queue."""

    def __init__(self, tag: str, trace_path: Optional[str] = None) -> None:
        self.dir = common.WORK / "svc" / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.trace_path = trace_path
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        args = [
            "serve", "--http", "", "--workers", str(common.nproc()),
            "--cache", str(self.dir / "cache"),
        ]
        py = [sys.executable]
        if self.trace_path:
            head = py + [str(common.HERE / "launch.py"), self.trace_path, "serve"]
        else:
            head = py + ["-m", "repro"]
        for _attempt in range(5):
            self.port = _free_port()
            args[2] = f"127.0.0.1:{self.port}"
            log = open(self.dir / "server.log", "w")
            self.proc = subprocess.Popen(
                head + args, cwd=str(common.ROOT), env=common.child_env(),
                stdout=log, stderr=subprocess.STDOUT,
            )
            log.close()
            if self._wait_ready(30.0):
                return
            self.stop()
        raise RuntimeError(f"server did not start: {(self.dir / 'server.log').read_text()[-500:]}")

    def _wait_ready(self, timeout: float) -> bool:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                return False
            try:
                code, _ = Client(self.port).get("/v1/healthz")
                if code == 200:
                    return True
            except OSError:
                pass
            time.sleep(0.01)
        return False

    def peak_rss_mb(self) -> float:
        return common.vm_hwm_mb(self.proc.pid) if self.proc else 0.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


class Client:
    """HTTP requests to the server, one fresh connection per request, as
    ``urllib`` makes them.  (A kept-alive connection stalls about 40 ms
    per request on this server: it writes each response in two small
    segments without TCP_NODELAY, and the client's delayed ACK holds the
    second; see NOTES.md.)"""

    def __init__(self, port: int) -> None:
        self.port = port

    def _request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, Dict]:
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=JOB_TIMEOUT_S)
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"null")
        finally:
            conn.close()

    def get(self, path: str) -> Tuple[int, Dict]:
        return self._request("GET", path)

    def post(self, path: str, doc: Dict) -> Tuple[int, Dict]:
        return self._request("POST", path, json.dumps(doc).encode())


# ----------------------------------------------------------------------
# the open loop
# ----------------------------------------------------------------------
@dataclass
class Rung:
    """What one fixed-rate stretch measured."""

    rate: float
    scheduled: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    admit_ms: List[float] = field(default_factory=list)
    queued_ms: List[float] = field(default_factory=list)
    run_ms: List[float] = field(default_factory=list)
    polls: int = 0
    rejected: int = 0
    failed: int = 0
    backlog_max: int = 0
    backlog_end: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def tail(self) -> Tuple[float, Optional[float], int]:
        return stats.tail(self.latencies_ms) if self.latencies_ms else (float("inf"), None, 0)

    @property
    def passed(self) -> bool:
        """Tail under the limit, nothing failed, backlog not growing."""
        return (
            self.failed == 0
            and bool(self.latencies_ms)
            and self.tail[0] < LIMIT_MS
            and self.backlog_end <= max(5, self.scheduled // 10)
        )


def open_loop(
    port: int,
    jobs: List[gen.ServiceJob],
    rate: float,
    seconds: float,
    check=None,
    client=None,
) -> Rung:
    """Send ``rate * seconds`` of *jobs* on a fixed schedule and follow
    each to its receipt.  *check* judges a finished job and *client*
    builds a connection from a port; tests replace both to drive the
    accounting without a server."""
    rung = Rung(rate)
    n = min(len(jobs), max(1, int(rate * seconds)))
    rung.scheduled = n
    check = check or check_job
    client = client or Client
    clock = time.perf_counter
    t0 = clock() + 0.01
    schedule = [t0 + i / rate for i in range(n)]
    lock = threading.Lock()
    outstanding: Dict[str, List] = {}  # id -> [job, scheduled, next poll]
    sent = threading.Event()

    def sender() -> None:
        conn = client(port)
        for job, due in zip(jobs, schedule):
            now = clock()
            if due > now:
                time.sleep(due - now)
            start = clock()
            rung.late_ms.append((start - due) * 1000)
            try:
                code, body = conn.post("/v1/jobs", {"source": job.program.source})
            except OSError as exc:
                code, body = 0, {"error": str(exc)}
            admitted = clock()
            rung.admit_ms.append((admitted - start) * 1000)
            if code == 202:
                with lock:
                    outstanding[body["id"]] = [job, due, admitted + POLL_FIRST]
            else:
                with lock:
                    if code == 429:
                        rung.rejected += 1
                    rung.failed += 1
                    rung.errors.append(f"POST answered {code}: {body}")
        sent.set()

    thread = threading.Thread(target=sender, name="perfbench-sender")
    thread.start()
    try:
        _poll(client(port), rung, outstanding, lock, sent, schedule[-1] + JOB_TIMEOUT_S, t0 + n / rate, check)
    finally:
        thread.join()
    return rung


def _poll(client, rung, outstanding, lock, sent, deadline, rung_end, check) -> None:
    clock = time.perf_counter
    end_seen = False
    while True:
        now = clock()
        with lock:
            due = [(jid, st) for jid, st in outstanding.items() if st[2] <= now]
            backlog = len(outstanding)
            empty = not outstanding
        rung.backlog_max = max(rung.backlog_max, backlog)
        if not end_seen and now >= rung_end:
            rung.backlog_end, end_seen = backlog, True
        if empty and sent.is_set():
            break
        if now > deadline:
            with lock:
                for jid in list(outstanding):
                    rung.failed += 1
                    rung.errors.append(f"job {jid} timed out")
                outstanding.clear()
            break
        for jid, st in due:
            code, body = client.get(f"/v1/jobs/{jid}")
            rung.polls += 1
            seen = clock()
            if code == 200 and body.get("state") in ("done", "failed"):
                job, scheduled = st[0], st[1]
                with lock:
                    del outstanding[jid]
                    if body["state"] == "failed":
                        rung.failed += 1
                if body["state"] == "done":
                    rung.latencies_ms.append((seen - scheduled) * 1000)
                _, receipt = client.get(f"/v1/jobs/{jid}/receipt")
                bad = check(job, body, receipt, rung)
                if bad:
                    rung.errors.append(f"job {jid} ({job.program.name}): " + "; ".join(bad[:3]))
            else:
                st[2] = seen + min(POLL_CAP, max(POLL_FIRST, (seen - st[1]) / 10))
        with lock:
            nxt = min((st[2] for st in outstanding.values()), default=clock() + 0.001)
        wait = nxt - clock()
        if wait > 0:
            time.sleep(min(wait, 0.005))
    if not end_seen:
        rung.backlog_end = 0


def burst(port: int, jobs: List[gen.ServiceJob], rung: Rung) -> float:
    """Post *jobs* back to back, then wait for each in order; returns
    jobs per second from the first post to the last completion.  Jobs
    are polled one at a time (the fleet finishes them roughly in order),
    so the poller adds no load while the backlog drains."""
    client = Client(port)
    start = time.perf_counter()
    ids = []
    for job in jobs:
        code, body = client.post("/v1/jobs", {"source": job.program.source})
        rung.scheduled += 1
        if code == 202:
            ids.append((body["id"], job))
        else:
            rung.failed += 1
            rung.rejected += code == 429
            rung.errors.append(f"burst POST answered {code}: {body}")
    deadline = start + JOB_TIMEOUT_S
    done_at = start
    for jid, job in ids:
        while True:
            code, st = client.get(f"/v1/jobs/{jid}")
            rung.polls += 1
            if st.get("state") in ("done", "failed"):
                break
            if time.perf_counter() > deadline:
                break
            time.sleep(POLL_FIRST)
        done_at = time.perf_counter()
        if st.get("state") == "done":
            rung.latencies_ms.append((done_at - start) * 1000)
        else:
            rung.failed += 1
        _, receipt = client.get(f"/v1/jobs/{jid}/receipt")
        bad = check_job(job, st, receipt, rung)
        if bad:
            rung.errors.append(f"job {jid} ({job.program.name}): " + "; ".join(bad[:3]))
    return len(ids) / (done_at - start)


def check_job(job: gen.ServiceJob, status: Dict, receipt: Dict, rung: Rung) -> List[str]:
    """Response loops against the ground truth; receipt validity."""
    from repro.service.receipts import validate_receipt

    resp = status.get("response") or {}
    if status.get("state") != "done" or not resp.get("ok"):
        return [f"job {status.get('state')}: {resp.get('error')}"]
    got = {l["label"]: l["status"] for l in resp.get("loops", [])}
    bad = checks.mismatches(got, job.program.expected)
    problems = validate_receipt(receipt)
    bad += [f"receipt: {p}" for p in problems]
    if not problems:
        wall = receipt["timings"]["wall_s"]
        if wall.get("queued") is not None:
            rung.queued_ms.append(wall["queued"] * 1000)
        rung.run_ms.append(wall["run"] * 1000)
    return bad


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def _setup(tag: str, warm: List[gen.ServiceJob], trace_path: Optional[str] = None) -> Tuple[Server, float]:
    """Start a server and push the warm-up jobs through it, one by one."""
    start = time.perf_counter()
    server = Server(tag, trace_path)
    server.start()
    try:
        client = Client(server.port)
        for job in warm:
            code, body = client.post("/v1/jobs", {"source": job.program.source})
            if code != 202:
                raise RuntimeError(f"warm-up POST answered {code}: {body}")
            deadline = time.perf_counter() + JOB_TIMEOUT_S
            while client.get(f"/v1/jobs/{body['id']}")[1].get("state") not in ("done", "failed"):
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"warm-up job {body['id']} timed out")
                time.sleep(0.002)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


def _max_rate(rungs: List[Rung]) -> float:
    """Highest passing rate on the ladder, refined by interpolating the
    tail linearly up to the limit between the last passing rung and the
    next one (or down from the first rung when none passes)."""
    passing = [i for i, r in enumerate(rungs) if r.passed]
    if not passing:
        first = rungs[0]
        return first.rate * min(1.0, LIMIT_MS / first.tail[0])
    i = passing[-1]
    if i + 1 >= len(rungs):
        return rungs[i].rate
    lo, hi = rungs[i], rungs[i + 1]
    t_lo, t_hi = lo.tail[0], hi.tail[0]
    if hi.passed or t_hi <= t_lo or t_hi == float("inf"):
        return lo.rate
    frac = min(1.0, max(0.0, (LIMIT_MS - t_lo) / (t_hi - t_lo)))
    return lo.rate + frac * (hi.rate - lo.rate)


def input_hash(seed: int, stream=None) -> str:
    """Digest of the first :data:`PINNED` jobs of *seed*'s stream."""
    jobs = (stream or gen.service_stream(seed, PINNED))[:PINNED]
    return gen.stream_hash([j.program for j in jobs], [j.repeat for j in jobs])


def run(seed: int, seconds: float, traced: bool) -> Dict:
    total = sum(rate * share * seconds for rate, share in LADDER) + BURST
    stream = gen.service_stream(seed, max(PINNED, int(total) + 64))
    digest = input_hash(seed, stream)
    # the same warm-up for every seed, so set-up time compares across seeds
    warm = gen.service_stream(0, WARMUP)

    setups = []
    for k in range(SETUPS - 1):
        server, took = _setup(f"setup{k}", warm)
        server.stop()
        setups.append(took)
    trace_path = str(common.WORK / "svc" / "server-trace.json") if traced else None
    server, took = _setup("run", warm)
    setups.append(took)

    rungs: List[Rung] = []
    refs: List[float] = []
    env = common.child_env()
    peak = saturated = 0.0
    try:
        offset = 0
        ladder = LADDER if not traced else ((LOW, 0.5),)
        for rate, share in ladder:
            rung = open_loop(server.port, stream[offset:], rate, share * seconds)
            offset += rung.scheduled
            rungs.append(rung)
            refs += [common.reference_s(env) for _ in range(REFS_PER_RUNG)]
        if not traced:
            rung = Rung(0.0)
            saturated = burst(server.port, stream[offset : offset + BURST], rung)
            offset += rung.scheduled
            rungs.append(rung)
        peak = server.peak_rss_mb()
    finally:
        server.stop()

    result = _summary(rungs, setups, peak, digest, traced, saturated, refs)
    result["client"] = client_figures(rungs)
    if traced:
        result["layers"], result["trace_events"] = _traced(seconds, stream[offset:], warm, rungs, trace_path)
    attempted = sum(r.scheduled for r in rungs)
    failed = sum(r.failed for r in rungs)
    result["named"]["fail_ratio"] = (failed / max(attempted, 1), "ratio")
    result.update(attempted=attempted, failed=failed, errors=[e for r in rungs for e in r.errors])
    return result


def _summary(
    rungs: List[Rung], setups: List[float], peak: float, digest: str, traced: bool, saturated: float, refs: List[float]
) -> Dict:
    by_rate = {r.rate: r for r in rungs}
    named: Dict[str, Tuple[float, str]] = {}
    tails = {}
    for label, rate in (("low", LOW), ("high", HIGH)):
        r = by_rate.get(rate)
        if r is None or not r.latencies_ms:
            continue
        tv, tp, tn = r.tail
        named[f"svc_{label}_p50_ms"] = (stats.median(r.latencies_ms), "ms")
        named[f"svc_{label}_tail_ms"] = (tv, "ms")
        tails[f"svc_{label}_tail_ms"] = {"percentile": tp, "samples": tn}
    if not traced:
        named["svc_max_rate_jps"] = (_max_rate([r for r in rungs if r.rate]), "1/s")
        named["svc_saturated_jps"] = (saturated, "1/s")
    named["setup_s"] = (stats.median(setups), "s")
    named["peak_rss_mb"] = (peak, "MB")
    named["ref_ms"] = (stats.median(refs) * 1000, "ms")
    result = {"input_hash": digest, "named": named, "tail": tails, "rungs": [
        {"rate": r.rate, "jobs": r.scheduled, "tail_ms": r.tail[0], "backlog_end": r.backlog_end, "passed": r.passed}
        for r in rungs if r.rate
    ]}
    if not traced:
        result["e2e"] = {
            "p50_ms": named["svc_low_p50_ms"][0],
            "tail_ms": named["svc_low_tail_ms"][0],
            "throughput_per_s": saturated,
            "setup_s": named["setup_s"][0],
            "peak_rss_mb": peak,
            "ref_ms": named["ref_ms"][0],
        }
    return result


def client_figures(rungs: List[Rung]) -> Dict[str, float]:
    """What the client saw: admission, polling, backlog, refusals,
    generator lateness, and each receipt's own queued and run time."""
    admit = [x for r in rungs for x in r.admit_ms]
    late = [x for r in rungs for x in r.late_ms]
    queued = [x for r in rungs for x in r.queued_ms]
    run = [x for r in rungs for x in r.run_ms]
    done = sum(len(r.latencies_ms) for r in rungs)
    return {
        "svc.admit_ms": stats.median(admit) if admit else 0.0,
        "svc.polls_per_job": sum(r.polls for r in rungs) / max(done, 1),
        "svc.backlog_max": max(r.backlog_max for r in rungs),
        "svc.rejected": sum(r.rejected for r in rungs),
        "gen.late_p50_ms": stats.median(late) if late else 0.0,
        "gen.late_max_ms": max(late) if late else 0.0,
        "svc.queued_ms": stats.median(queued) if queued else 0.0,
        "svc.run_ms": stats.median(run) if run else 0.0,
    }


def _traced(seconds, stream, warm, untraced_rungs, trace_path) -> Tuple[Dict[str, float], List[Dict]]:
    """The ``low`` and ``high`` rungs once more against a server started
    through the traced launcher; per-layer figures per job."""
    server, _took = _setup("traced", warm, trace_path)
    rungs = []
    try:
        offset = 0
        for rate in (LOW, HIGH):
            rung = open_loop(server.port, stream[offset:], rate, 0.25 * seconds)
            offset += rung.scheduled
            rungs.append(rung)
    finally:
        server.stop()
    with open(trace_path) as f:
        doc = json.load(f)
    import spans

    jobs = sum(r.scheduled for r in rungs) + len(warm)
    aggs = doc["perfbench"]["aggregates"]
    layers = {m: row["value"] for m, row in spans.layer_table(aggs, jobs).items()}
    counts = doc["perfbench"]["counts"]
    lookups = counts.get("cache.program_lookups", 0)
    layers["cache.program_hit_ratio"] = counts.get("cache.program_hits", 0) / lookups if lookups else 0.0
    layers.update(client_figures(untraced_rungs + rungs))
    # traced over untraced run time per job, at the low rate
    layers["trace_overhead"] = stats.median(rungs[0].run_ms) / stats.median(untraced_rungs[0].run_ms)
    return layers, doc["traceEvents"]
