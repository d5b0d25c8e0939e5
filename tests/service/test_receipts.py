"""Tests for per-job provenance receipts."""

import json

from repro.arraydf.options import AnalysisOptions
from repro.lang.parser import parse_program
from repro.service import receipts
from repro.service.jobs import execute_job
from repro.service.queue import Job

SRC = (
    "program main\n"
    "  integer n\n"
    "  real a(100)\n"
    "  read n\n"
    "  call init(a, n)\n"
    "  do i = 1, n\n"
    "    a(i) = a(i) + 1.0\n"
    "  enddo\n"
    "end\n"
    "subroutine init(x, m)\n"
    "  integer m\n"
    "  real x(100)\n"
    "  do i = 1, m\n"
    "    x(i) = 0.0\n"
    "  enddo\n"
    "end\n"
)


def _job(body, kind="analyze", jid="j00000001"):
    return Job(jid, kind, body, 0, 1, None)


def _execute(body, **kwargs):
    return execute_job(_job(body), **kwargs)


class TestInputsFingerprint:
    def test_unit_keys_cover_every_unit(self):
        program = parse_program(SRC)
        keys = receipts.program_unit_keys(program, AnalysisOptions.predicated())
        assert set(keys) == {"main", "init"}
        assert all(len(k) == 64 for k in keys.values())

    def test_editing_a_callee_dirties_the_caller(self):
        opts = AnalysisOptions.predicated()
        before = receipts.program_unit_keys(parse_program(SRC), opts)
        edited = SRC.replace("x(i) = 0.0", "x(i) = 1.0")
        after = receipts.program_unit_keys(parse_program(edited), opts)
        # the callee changed, and through key chaining so did its caller
        assert after["init"] != before["init"]
        assert after["main"] != before["main"]

    def test_options_change_every_key(self):
        program = parse_program(SRC)
        pred = receipts.program_unit_keys(program, AnalysisOptions.predicated())
        base = receipts.program_unit_keys(program, AnalysisOptions.base())
        assert all(pred[name] != base[name] for name in pred)

    def test_combined_hash_reproduces(self):
        inputs = receipts.analyze_inputs(
            parse_program(SRC), AnalysisOptions.predicated()
        )
        assert inputs["combined"] == receipts.combined_hash(inputs)


class TestReceiptContract:
    def test_validates_against_schema(self):
        resp, receipt = _execute({"id": 1, "source": SRC})
        assert resp["ok"]
        assert receipts.validate_receipt(receipt) == []
        assert receipt["job"] == {
            "id": "j00000001",
            "kind": "analyze",
            "priority": 0,
        }
        assert receipt["inputs"]["program"] == "main"
        assert receipt["result"]["state"] == "done"
        assert receipt["result"]["loops"] == len(resp["loops"])

    def test_knobs_record_every_switch(self):
        _, receipt = _execute({"source": SRC})
        knobs = receipt["knobs"]
        # the analysis options and the cache are the only settings that
        # shape a job; one program runs serially, so no fan-out knob
        assert set(knobs) == {"options", "options_fingerprint", "cache"}
        assert isinstance(knobs["cache"], bool)
        assert knobs["options"] == "predicated"
        assert "predicates=True" in knobs["options_fingerprint"]

    def test_budget_granted_recorded(self):
        _, receipt = _execute(
            {"source": SRC, "budget": {"max_fm_constraints": 10**9}}
        )
        assert receipt["budgets"]["granted"] == {
            "max_wall_s": None,
            "max_ops": None,
            "max_fm_constraints": 10**9,
        }
        assert receipt["degradation"] == {"degraded": False, "trips": {}}

    def test_degradation_recorded_on_budget_trip(self):
        import warnings

        from repro import perf

        perf.reset_all_caches()  # make the FM budget bite
        fm_heavy = (
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resp, receipt = _execute(
                {"source": fm_heavy, "budget": {"max_fm_constraints": 1}}
            )
        assert resp["ok"] and resp["degraded"]
        assert receipt["degradation"]["degraded"]
        assert receipt["degradation"]["trips"].get("fm", 0) >= 1
        assert receipts.validate_receipt(receipt) == []

    def test_failed_job_still_gets_a_receipt(self):
        resp, receipt = _execute({"id": 9, "source": "not fortran"})
        assert not resp["ok"]
        assert receipts.validate_receipt(receipt) == []
        assert receipt["result"]["state"] == "failed"
        assert "ParseError" in receipt["result"]["error"]
        assert receipt["inputs"]["unit_keys"] == {}

    def test_experiment_receipt(self):
        resp, receipt = execute_job(
            _job({"id": 2, "which": "fig1"}, kind="experiment")
        )
        assert resp["ok"] and "output" in resp
        assert receipts.validate_receipt(receipt) == []
        assert receipt["inputs"]["which"] == "fig1"

    def test_corrupt_combined_hash_detected(self):
        _, receipt = _execute({"source": SRC})
        receipt["inputs"]["unit_keys"]["main"] = "0" * 64
        problems = receipts.validate_receipt(receipt)
        assert any("reproduce" in p for p in problems)


class TestByteStability:
    def test_stable_modulo_timings(self):
        """Two runs of the same job + knobs: identical stable bytes."""
        a_resp, a = _execute({"id": 5, "source": SRC})
        b_resp, b = _execute({"id": 5, "source": SRC})
        assert a_resp == b_resp
        assert a["timings"] != {} and b["timings"] != {}
        stable_a = receipts.receipt_bytes(receipts.stable_part(a))
        stable_b = receipts.receipt_bytes(receipts.stable_part(b))
        assert stable_a == stable_b

    def test_canonical_encoding_roundtrips(self):
        _, receipt = _execute({"source": SRC})
        raw = receipts.receipt_bytes(receipt)
        assert raw.endswith(b"\n")
        parsed = json.loads(raw)
        assert receipts.validate_receipt(parsed) == []
        assert receipts.receipt_bytes(parsed) == raw
