"""Traced launcher: ``python3 perfbench/launch.py TRACE LAYERS ARGV...``.

Installs the span wrappers of :mod:`spans` for *LAYERS* (a key of
``spans.LAYERS``), then runs ``repro.__main__.main(ARGV)`` -- the same
command the untraced run starts as ``python -m repro ARGV`` -- and
writes the spans to *TRACE* once, when the command returns.  Run under
``python -X importtime``, it prints a marker line on stderr first so the
caller can sum the import time of everything loaded after it.
"""

import os
import sys

MARKER = "perfbench: imports start"


def main() -> int:
    trace_path, layers, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [here, os.path.join(os.path.dirname(here), "src")]
    import spans

    print(MARKER, file=sys.stderr, flush=True)
    rec = spans.Recorder()
    rec.set_group(" ".join(argv[:1]))
    spans.install(rec, spans.LAYERS[layers])
    from repro import perf
    from repro.__main__ import main as repro_main

    # the program's counters are read only in this single-threaded CLI
    # process, never in the threaded server
    serial = layers != "serve"
    before = perf.snapshot() if serial else None
    try:
        return repro_main(argv)
    finally:
        extra = {}
        if serial:
            after = perf.snapshot()
            extra = {
                "coverage": spans.coverage(rec, before, after),
                "snapshots": [before, after],
            }
        rec.dump(trace_path, pid=os.getpid(), extra=extra)


if __name__ == "__main__":
    sys.exit(main())
