"""Paths, environment, hardware profile and process measurements."""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: everything the benchmark writes lives here (listed in .gitignore)
WORK = ROOT / ".perfbench_work"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def check_checkout() -> None:
    """Refuse to run without the program's sources next to us."""
    if not (SRC / "repro" / "__main__.py").is_file():
        raise SystemExit(
            f"perfbench: no program sources at {SRC}/repro; run from a full checkout"
        )


def clean_environ() -> None:
    """Drop ``REPRO_*`` knobs so every run measures the program's
    defaults, whatever the caller's environment holds."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: defaults for every knob,
    and a bytecode cache as an installed package has (kept in WORK so
    the source tree is not written to)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONPATH"] = str(SRC)
    return env


def hardware_profile() -> Dict[str, object]:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": nproc(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": platform.release(),
    }


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children(pid: int) -> List[int]:
    """Direct children of *pid* (Linux ``/proc/<pid>/task/*/children``)."""
    out: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as f:
                out.extend(int(x) for x in f.read().split())
    except OSError:
        pass
    return out


def run_timed(argv: List[str], env: Dict[str, str], timeout: float = 120.0) -> Tuple[float, int, str, str, float]:
    """Run *argv* to completion from the checkout root: ``(wall_s,
    returncode, stdout, stderr, peak_rss_mb)``, the peak being the
    process's own (from ``wait4``).  A timeout kills it (code -9)."""
    with tempfile.TemporaryFile("w+", dir=WORK) as out, tempfile.TemporaryFile("w+", dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=str(ROOT), env=env, stdout=out, stderr=err, text=True)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return wall, proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024.0


#: the reference task: an interpreter start that imports NumPy, the
#: program's one compiled dependency.  It runs no code of the program, so
#: no change to the program moves it; it moves with how fast the shared
#: machine is at that moment, and of the tasks tried it tracks the
#: workloads' own times best (NOTES.md, "Steadiness").
REFERENCE = "import numpy"


def reference_s(env: Dict[str, str]) -> float:
    """Wall time of one run of the reference task."""
    wall, rc, _out, err, _rss = run_timed([sys.executable, "-c", REFERENCE], env)
    if rc != 0:
        raise RuntimeError(f"reference task {REFERENCE!r} exited {rc}: {err[-300:]}")
    return wall


def write_json(path: Path, doc: Dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)


IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|")


def import_ms(stderr: str, marker: str) -> float:
    """Sum of ``-X importtime`` self times after *marker*, in ms."""
    total_us = 0
    seen = False
    for line in stderr.splitlines():
        if marker in line:
            seen = True
            continue
        if seen:
            m = IMPORT_LINE.match(line)
            if m:
                total_us += int(m.group(1))
    return total_us / 1000.0
