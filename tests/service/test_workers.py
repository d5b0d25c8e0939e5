"""Tests for the worker fleet draining the job queue."""

import os
import subprocess
import sys
import threading
import time
import warnings

import pytest

import repro
from repro.service.queue import JobQueue
from repro.service.workers import WorkerFleet

SRC = (
    "program cli\n"
    "  integer n, k\n"
    "  real a(100)\n"
    "  read n, k\n"
    "  do i = 1, n\n"
    "    a(i + k) = a(i) + 1.0\n"
    "  enddo\n"
    "  print a(n)\n"
    "end\n"
)

# SRC with every name changed: none of its Fourier–Motzkin systems or
# predicates is one SRC's analysis interns, so a concurrent SRC job
# cannot warm a memo table this one's budget is meant to meter
RENAMED = (
    "program tiny\n"
    "  integer m, j\n"
    "  real b(100)\n"
    "  read m, j\n"
    "  do k = 1, m\n"
    "    b(k + j) = b(k) + 1.0\n"
    "  enddo\n"
    "  print b(m)\n"
    "end\n"
)

INDEPENDENT = (
    "program ind\n"
    "  integer n\n"
    "  real a(100)\n"
    "  read n\n"
    "  do i = 1, n\n"
    "    a(i) = 2.0\n"
    "  enddo\n"
    "end\n"
)


class TestFleet:
    def test_drains_queue_and_records_receipts(self, tmp_path):
        q = JobQueue(tmp_path)
        ids = [
            q.submit("analyze", {"id": i, "source": SRC}) for i in range(6)
        ]
        with WorkerFleet(q, workers=3):
            responses = [q.wait(i, timeout=60.0) for i in ids]
        assert all(r is not None and r["ok"] for r in responses)
        assert [r["id"] for r in responses] == list(range(6))
        for jid in ids:
            assert q.state(jid) == "done"
            assert q.receipt(jid) is not None

    def test_claim_limit_divides_depth_across_the_fleet(self, tmp_path):
        q = JobQueue(tmp_path)
        fleet = WorkerFleet(q, workers=4, claim_chunk_limit=8)
        # shallow queue: stay polite (one at a time)
        q.submit_batch("analyze", [{"source": INDEPENDENT}] * 3)
        assert fleet._claim_limit() == 1
        # deep backlog: chunk up to the cap, never the whole backlog
        q.submit_batch("analyze", [{"source": INDEPENDENT}] * 13)
        assert fleet._claim_limit() == 4  # 16 pending / 4 workers
        q.submit_batch("analyze", [{"source": INDEPENDENT}] * 64)
        assert fleet._claim_limit() == 8  # capped at claim_chunk_limit
        # limit <= 1 disables chunking entirely
        assert WorkerFleet(q, workers=4, claim_chunk_limit=1)._claim_limit() == 1

    def test_batch_submit_drains_with_chunked_claims(self, tmp_path):
        q = JobQueue(tmp_path)
        ids = q.submit_batch(
            "analyze", [{"id": i, "source": INDEPENDENT} for i in range(10)]
        )
        with WorkerFleet(q, workers=2, claim_chunk_limit=4):
            responses = [q.wait(i, timeout=60.0) for i in ids]
        assert all(r is not None and r["ok"] for r in responses)
        assert [r["id"] for r in responses] == list(range(10))
        for jid in ids:  # chunked claims still receipt per job
            assert q.receipt(jid) is not None

    def test_failed_job_recorded_not_fatal(self, tmp_path):
        q = JobQueue(tmp_path)
        bad = q.submit("analyze", {"id": 0, "source": "not fortran"})
        good = q.submit("analyze", {"id": 1, "source": INDEPENDENT})
        with WorkerFleet(q, workers=1):
            bad_resp = q.wait(bad, timeout=60.0)
            good_resp = q.wait(good, timeout=60.0)
        assert not bad_resp["ok"] and "ParseError" in bad_resp["error"]
        assert q.state(bad) == "failed"
        assert good_resp["ok"]  # the worker survived the poisoned job

    def test_concurrent_budgets_do_not_cross_meter(self, tmp_path):
        """One tiny-budget job degrades; its unlimited neighbors don't.

        This is the thread-local budget contract: before it, a fleet
        thread's budget metered every other thread's work.
        """
        from repro import perf

        perf.reset_all_caches()  # make the FM budget bite
        q = JobQueue(tmp_path)
        tiny = q.submit(
            "analyze",
            {"id": 0, "source": RENAMED, "budget": {"max_fm_constraints": 1}},
        )
        frees = [
            q.submit("analyze", {"id": i, "source": SRC})
            for i in range(1, 4)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with WorkerFleet(q, workers=4):
                tiny_resp = q.wait(tiny, timeout=60.0)
                free_resps = [q.wait(i, timeout=60.0) for i in frees]
        assert tiny_resp["ok"] and tiny_resp["degraded"]
        assert tiny_resp["loops"][0]["status"] == "serial"
        for resp in free_resps:
            assert resp["ok"] and not resp["degraded"]
            assert resp["loops"][0]["status"] == "runtime"
        # the degraded receipt says so; the others' receipts do not
        assert q.receipt(tiny)["degradation"]["degraded"]
        assert not any(
            q.receipt(i)["degradation"]["degraded"] for i in frees
        )

    def test_graceful_drain_finishes_running_jobs(self, tmp_path):
        q = JobQueue(tmp_path)
        running = q.submit("analyze", {"id": 0, "source": SRC})
        fleet = WorkerFleet(q, workers=1).start()
        # wait until the worker picked the job up
        deadline = time.monotonic() + 30.0
        while q.state(running) == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.005)
        fleet.request_drain()
        queued_late = q.submit("analyze", {"id": 1, "source": SRC})
        assert fleet.drain(timeout=60.0)
        # the in-flight job finished; the late one was never claimed
        assert q.state(running) in ("done", "failed")
        assert q.state(queued_late) == "queued"

    def test_stats_shape(self, tmp_path):
        q = JobQueue(tmp_path)
        jid = q.submit("analyze", {"id": 0, "source": INDEPENDENT})
        fleet = WorkerFleet(q, workers=2).start()
        q.wait(jid, timeout=60.0)
        fleet.drain(timeout=10.0)
        stats = fleet.stats()
        assert stats["workers"] == 2
        assert stats["completed"] == 1
        assert stats["busy"] == 0 and stats["running"] == []
        assert stats["draining"] is True
        assert 0.0 <= stats["utilization"] <= 1.0

    def test_two_fleets_share_one_queue_exactly_once(self, tmp_path):
        q = JobQueue(tmp_path)
        ids = [
            q.submit("analyze", {"id": i, "source": INDEPENDENT})
            for i in range(8)
        ]
        a = WorkerFleet(q, workers=2).start()
        b = WorkerFleet(JobQueue(tmp_path, recover=False), workers=2).start()
        try:
            responses = [q.wait(i, timeout=60.0) for i in ids]
        finally:
            a.drain(timeout=10.0)
            b.drain(timeout=10.0)
        assert all(r is not None and r["ok"] for r in responses)
        # every job ran exactly once across both fleets
        total = a.stats()["completed"] + b.stats()["completed"]
        assert total == 8


class TestPreload:
    @pytest.mark.parametrize(
        "kind, body",
        [
            ("analyze", {"id": 0, "source": SRC, "report": True}),
            ("experiment", {"id": 0, "which": "fig1"}),
        ],
    )
    def test_jobs_import_nothing_after_preload(self, kind, body):
        """Fleet threads start jobs at once in a cold process; a job that
        imported a module cycle of its own could be handed another
        thread's half-initialized module and fail.  After the preload a
        job of that kind imports no further ``repro`` module."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys\n"
            "from repro.service import jobs\n"
            "from repro.service.queue import Job\n"
            f"jobs.preload({kind!r})\n"
            "before = set(sys.modules)\n"
            f"resp, _ = jobs.execute_job(Job('x', {kind!r}, {body!r}, 0, 0, None))\n"
            "assert resp['ok'], resp\n"
            "print(sorted(m for m in set(sys.modules) - before"
            " if m.startswith('repro')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip().splitlines()[-1] == "[]"
