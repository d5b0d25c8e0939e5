"""Command-line driver.

Usage::

    python -m repro analyze FILE [--base] [--report] [--emit]
                    [--cache DIR] [--profile] [--explain-pipeline]
                    [--max-wall S] [--max-ops N] [--max-fm N]
    python -m repro run FILE [inputs...]
    python -m repro elpd FILE [inputs...]
    python -m repro experiments [fig1|tab1|tab2|tab3|figs|figo|all]
                    [--jobs N] [--profile] [--cache DIR]
    python -m repro serve [--stdio] [--jobs N] [--cache DIR] [--profile]
                    [--queue-dir DIR]
    python -m repro serve --http HOST:PORT [--workers N] [--max-queue N]
                    [--queue-dir DIR] [--cache DIR]

``analyze`` parses a mini-Fortran source file and prints the
parallelization report (``--base`` switches to the non-predicated
analysis; ``--emit`` additionally prints the two-version transformed
source).  ``run`` interprets the program, reading ``read`` inputs from
the command line.  ``elpd`` runs the dynamic oracle.  ``experiments``
regenerates paper tables/figures.  ``serve`` is the analysis job
service: by default the JSON-lines loop (requests on stdin, one JSON
result per line on stdout); with ``--http HOST:PORT`` the HTTP front
door over the persistent job queue and a worker fleet (see
``docs/SERVICE.md``).

``--cache DIR`` attaches the content-addressed procedure-summary cache;
``--max-wall``/``--max-ops``/``--max-fm`` bound one request's resources
(exhaustion degrades the answer soundly instead of failing).

``analyze`` runs the pass pipeline serially; ``--explain-pipeline``
dumps the pass graph, the per-unit schedule and per-pass timings as
JSON.  The execution model is documented in ``docs/EXECUTION.md``.

The module is a small subcommand registry: each command contributes a
``(name, help, configure, run)`` record via :func:`command`, and
:func:`main` assembles the parser from the registry — adding a
subcommand never touches the others' wiring.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


class Command:
    """One subcommand: argparse wiring plus its entry point."""

    def __init__(
        self,
        name: str,
        help: str,
        configure: Optional[Callable[[argparse.ArgumentParser], None]],
        run: Callable[[argparse.Namespace], int],
    ) -> None:
        self.name = name
        self.help = help
        self.configure = configure
        self.run = run


#: registration order is display order in ``--help``
COMMANDS: Dict[str, Command] = {}


def command(name: str, help: str, configure=None):
    """Register the decorated function as subcommand *name*."""

    def register(run):
        COMMANDS[name] = Command(name, help, configure, run)
        return run

    return register


# ----------------------------------------------------------------------
# shared flag groups
# ----------------------------------------------------------------------
def _print_profile(stream=None) -> None:
    import json

    from repro import perf

    print(
        json.dumps(perf.snapshot(), indent=2, sort_keys=True),
        file=stream or sys.stdout,
    )


def _add_cache_flag(p: argparse.ArgumentParser, help: str) -> None:
    p.add_argument("--cache", metavar="DIR", default=None, help=help)


def _add_profile_flag(p: argparse.ArgumentParser, help: str) -> None:
    p.add_argument("--profile", action="store_true", help=help)


def _parse_inputs(values: List[str]) -> List:
    return [int(v) if "." not in v else float(v) for v in values]


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------
def _configure_analyze(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--base", action="store_true", help="base analysis only")
    p.add_argument(
        "--emit", action="store_true", help="print two-version output"
    )
    _add_cache_flag(
        p,
        "content-addressed summary cache directory (reused across "
        "runs; only edited procedures are re-analyzed)",
    )
    _add_profile_flag(
        p, "append a JSON performance snapshot after the report"
    )
    p.add_argument(
        "--max-wall",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget in seconds (exhaustion degrades soundly)",
    )
    p.add_argument(
        "--max-ops",
        type=int,
        default=None,
        metavar="N",
        help="substrate-operation budget (see perf.total_ops)",
    )
    p.add_argument(
        "--max-fm",
        type=int,
        default=None,
        metavar="N",
        help="Fourier-Motzkin bound-pair budget",
    )
    p.add_argument(
        "--explain-pipeline",
        action="store_true",
        help="append a JSON dump of the pass graph, the per-unit schedule "
        "and per-pass timings",
    )


@command("analyze", "analyze a source file", _configure_analyze)
def _cmd_analyze(args) -> int:
    import json

    from repro.arraydf.options import AnalysisOptions
    from repro.codegen.report import format_report
    from repro.lang.parser import parse_program
    from repro.lang.prettyprint import pretty
    from repro.pipeline import run_pipeline
    from repro.service import Budget, budget_scope, default_cache
    from repro.service import set_default_cache_dir

    if args.cache:
        set_default_cache_dir(args.cache)
    source = open(args.file).read()
    opts = AnalysisOptions.base() if args.base else AnalysisOptions.predicated()
    program = parse_program(source)
    budget = Budget(
        max_wall_s=args.max_wall,
        max_ops=args.max_ops,
        max_fm_constraints=args.max_fm,
    )
    goals = ("result", "transformed") if args.emit else ("result",)
    with budget_scope(budget):
        ctx = run_pipeline(
            program,
            opts,
            cache=default_cache(),
            goals=goals,
            explain=args.explain_pipeline,
        )
    result = ctx.get("result")
    print(format_report(result, title=args.file))
    if args.emit:
        print()
        print(pretty(ctx.get("transformed")))
    if args.explain_pipeline:
        print(json.dumps(ctx.explain, indent=2, sort_keys=True))
    if args.profile:
        _print_profile()
    return 0


# ----------------------------------------------------------------------
# run / elpd
# ----------------------------------------------------------------------
def _configure_run(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("inputs", nargs="*", default=[])


@command("run", "interpret a program", _configure_run)
def _cmd_run(args) -> int:
    from repro.lang.parser import parse_program
    from repro.runtime.interp import run_program

    program = parse_program(open(args.file).read())
    result = run_program(program, _parse_inputs(args.inputs))
    for line in result.outputs:
        print(line)
    print(f"[{result.steps} steps]", file=sys.stderr)
    return 0


@command("elpd", "run the ELPD dynamic oracle", _configure_run)
def _cmd_elpd(args) -> int:
    from repro.lang.parser import parse_program
    from repro.runtime.elpd import run_oracle

    program = parse_program(open(args.file).read())
    report = run_oracle(program, _parse_inputs(args.inputs))
    for label in sorted(report.observations):
        obs = report.observations[label]
        extras = []
        if obs.conflict_arrays:
            extras.append(f"conflicts: {', '.join(sorted(obs.conflict_arrays))}")
        if obs.flow_arrays:
            extras.append(f"flow: {', '.join(sorted(obs.flow_arrays))}")
        suffix = f"  [{'; '.join(extras)}]" if extras else ""
        print(f"{label:<24} {obs.classification}{suffix}")
    return 0


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------
def _configure_experiments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "which",
        nargs="?",
        default="all",
        choices=["fig1", "tab1", "tab2", "tab3", "figs", "figo", "all"],
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan per-program analyses over N worker processes "
        "(output is byte-identical for any N)",
    )
    _add_profile_flag(
        p,
        "append a JSON performance snapshot (counters, phase timers, "
        "cache hit rates) after the tables",
    )
    _add_cache_flag(
        p,
        "summary cache directory shared by the whole run (and by "
        "worker processes under --jobs)",
    )


@command("experiments", "regenerate paper tables/figures", _configure_experiments)
def _cmd_experiments(args) -> int:
    from repro.experiments import (
        fig1_examples,
        fig_overhead,
        fig_speedups,
        table1_loops,
        table2_programs,
        table3_categories,
    )

    modules = {
        "fig1": fig1_examples,
        "tab1": table1_loops,
        "tab2": table2_programs,
        "tab3": table3_categories,
        "figs": fig_speedups,
        "figo": fig_overhead,
    }
    if args.cache:
        from repro.service import set_default_cache_dir

        set_default_cache_dir(args.cache)
    chosen = modules.values() if args.which == "all" else [modules[args.which]]
    for mod in chosen:
        print(mod.run(jobs=args.jobs).format())
        print()
    if args.profile:
        _print_profile()
    return 0


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _configure_serve(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--http",
        metavar="HOST:PORT",
        default=None,
        help="start the HTTP front door (POST /v1/jobs, GET /v1/jobs/ID, "
        "GET /v1/jobs/ID/receipt, /v1/healthz, /v1/stats) instead of the "
        "stdin/stdout JSON-lines loop",
    )
    p.add_argument(
        "--stdio",
        action="store_true",
        help="serve the JSON-lines loop on stdin/stdout (the default)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker fleet size for the stdio loop (results stream in "
        "request order; responses are byte-identical for any N)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker fleet size for --http (default 2)",
    )
    p.add_argument(
        "--queue-dir",
        metavar="DIR",
        default=None,
        help="persistent job-queue directory (journal, claims, results, "
        "receipts; survives restarts — interrupted jobs are re-run). "
        "Default: a temporary directory for --stdio, "
        "<cache-dir-or-cwd>/queue for --http",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=256,
        metavar="N",
        help="bound on pending jobs; beyond it --http answers 429 with "
        "Retry-After and --stdio applies backpressure (default 256)",
    )
    _add_cache_flag(p, "summary cache directory shared by all workers")
    _add_profile_flag(
        p, "write a JSON performance snapshot to stderr at exit"
    )


@command(
    "serve",
    "analysis job service: JSON-lines on stdio, or an HTTP front door "
    "with --http HOST:PORT",
    _configure_serve,
)
def _cmd_serve(args) -> int:
    if args.http and args.stdio:
        print("serve: --http and --stdio are mutually exclusive", file=sys.stderr)
        return 2
    if args.http:
        import os

        from repro.service.http import serve_http

        queue_dir = args.queue_dir
        if queue_dir is None:
            base = args.cache or os.getcwd()
            queue_dir = os.path.join(base, "queue")
        serve_http(
            args.http,
            queue_dir=queue_dir,
            workers=args.workers,
            capacity=args.max_queue,
            cache_dir=args.cache,
        )
    else:
        from repro.service.server import serve

        serve(
            sys.stdin,
            sys.stdout,
            jobs=args.jobs,
            cache_dir=args.cache,
            queue_dir=args.queue_dir,
        )
    if args.profile:
        _print_profile(stream=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Predicated array data-flow analysis (PPoPP'99 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS.values():
        p = sub.add_parser(cmd.name, help=cmd.help)
        if cmd.configure is not None:
            cmd.configure(p)
        p.set_defaults(func=cmd.run)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
