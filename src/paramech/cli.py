"""Command-line front end.

Subcommands:
  run       integrate one or more scenario files in order, writing
            trajectory tables and summaries
  verify    run the exact identity audit and print the report; --report
            also writes it to a file, atomically like the run outputs
  plotdata  extract named columns from a trajectory table as plot-ready CSV

Exit codes: 0 success, 2 parse/validation error or a run too large for
memory (MemoryError), 3 singular system, 4 integrator non-convergence, 5 I/O
failure.  A failure prints one ``error:`` line on stderr; in ``run`` it ends
with the scenario file it came from, as ``(in FILE)``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from pathlib import Path

from .audit import verify_all
from .errors import (
    ConvergenceError,
    ParamechError,
    ScenarioError,
    SingularSystemError,
)
from .scenario import _atomic_write, run_scenario_files

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SINGULAR = 3
EXIT_NO_CONVERGENCE = 4
EXIT_IO = 5


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, SingularSystemError):
        return EXIT_SINGULAR
    if isinstance(exc, ConvergenceError):
        return EXIT_NO_CONVERGENCE
    if isinstance(exc, OSError):
        return EXIT_IO
    if isinstance(exc, (ValueError, ParamechError, MemoryError)):
        return EXIT_VALIDATION
    raise exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="paramech",
        description="Mechanics on flat para-quaternionic space: verification and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate scenario files")
    run.add_argument("scenarios", nargs="+", metavar="scenario-file")
    run.add_argument("--out", default=None, help="output directory (default: cwd)")

    verify = sub.add_parser("verify", help="run the exact identity audit")
    verify.add_argument("--n", type=int, default=2, help="largest block size n (default 2)")
    verify.add_argument("--report", default=None, help="also write the report to this file")

    plotdata = sub.add_parser("plotdata", help="extract columns from a trajectory table")
    plotdata.add_argument("trajectory", metavar="trajectory-file")
    plotdata.add_argument(
        "--cols", required=True, help="comma-separated column names, e.g. t,x_1,x_2"
    )
    return parser


def _cmd_run(args) -> int:
    for summary, trajectory_path, summary_path in run_scenario_files(
        args.scenarios, out_dir=args.out
    ):
        print(
            f"{summary['scenario']}: {summary['samples']} samples, "
            f"energy drift {summary['energy_drift_max']}, "
            f"endpoint distance {summary['endpoint_distance_from_start']}"
        )
        print(f"  trajectory -> {trajectory_path}")
        print(f"  summary    -> {summary_path}")
        if "warning" in summary:
            print(f"  warning: {summary['warning']}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify_all(args.n)
    text = report.render()
    print(text)
    if args.report:
        _atomic_write(Path(args.report), [text, "\n"])
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    wanted = [name.strip() for name in args.cols.split(",") if name.strip()]
    if not wanted:
        raise ScenarioError("no columns requested", field="cols")
    with open(args.trajectory, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ScenarioError("trajectory file is empty", field="trajectory") from None
        missing = [name for name in wanted if name not in header]
        if missing:
            raise ScenarioError(
                f"unknown columns {missing}; available: {', '.join(header)}",
                field="cols",
            )
        indices = [header.index(name) for name in wanted]
        # Buffered, so a malformed row fails before anything reaches stdout.
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(wanted)
        for row in reader:
            if len(row) != len(header):
                message = f"row has {len(row)} fields, header has {len(header)}"
                raise ScenarioError(message, reader.line_num, "trajectory")
            writer.writerow([row[k] for k in indices])
    sys.stdout.write(buffer.getvalue())
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "verify": _cmd_verify,
        "plotdata": _cmd_plotdata,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the pipe; not a failure.
        sys.stderr.close()
        return EXIT_OK
    except BaseException as exc:  # mapped to documented exit codes
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        code = _exit_code(exc)
        # A bare MemoryError() names its class; notes (the file of a run) follow.
        words = [str(exc) or type(exc).__name__, *getattr(exc, "__notes__", ())]
        print("error:", *words, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
