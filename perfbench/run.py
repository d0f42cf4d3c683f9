"""paramech benchmark runner.

    python3 perfbench/run.py --workload {samples,sweep,audit,all} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory and all outputs go under ``.perfbench/`` at the repository root.

``--trace 0`` measures the end-to-end metrics: set-up several times, then
whole passes of the workload for ``--seconds`` seconds.  ``--trace 1`` runs
untraced passes for ``--seconds`` seconds, then exactly one pass with every
layer traced, and reports the per-layer metrics of that pass.  Each run prints
a table with units, the environment and an output digest, and as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process and prints every
table.  See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("samples", "sweep", "audit")

# Metrics in the result line; BENCHMARK.json lists the same names and units.
# The result line carries every one of them on every workload and none may
# read 0, so metrics that exist on some workloads only (us_per_step,
# op_p50_ms, op_p90_ms) and fail_ratio, 0 when all is well, are printed in
# the table only.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics that are measured on every workload and never read 0
# there; test_perfbench checks both on full traced passes.  The table and the
# JSON record also hold the ones that read 0 on some workload: the scenario
# layer on audit, rk4 and symplectic_euler where no scenario uses them, and
# ext_d, lagrangian_two_form and vertical_differential outside audit.  The
# all-method rhs_evals_per_step and the exterior.calls total stand in for
# them here.
PER_LAYER = {
    "cli.self_s": "s",
    "fields.evaluate_calls": "count",
    "fields.evaluate_us": "us",
    "integrators.steps": "count",
    "integrators.rhs_evals_per_step": "1/step",
    "integrators.rhs_evals_per_step.implicit_midpoint": "1/step",
    "integrators.step_us.implicit_midpoint": "us",
    "integrators.solve_linear_calls": "count",
    "integrators.solve_linear_us": "us",
    "lagrangian.postpass_s": "s",
    "lagrangian.residuals_s": "s",
    "hamiltonian.field_us": "us",
    "hamiltonian.residuals_s": "s",
    "exterior.self_s": "s",
    "exterior.calls": "count",
    "exterior.calls.poly_gradient": "count",
    "exterior.calls.poly_hessian": "count",
    "structures.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

SETUP_REPEATS = 9
MIN_BEYOND = 10


def percentile(values, q: float):
    """Nearest-rank q-th percentile, or None unless >= 10 samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    # The ceiling keeps git from reporting the commit of an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def fresh_import_seconds() -> float:
    """Time of ``import paramech`` in a new interpreter."""
    code = (
        "import time; start = time.perf_counter(); import paramech; "
        "print(time.perf_counter() - start)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip())


def setup_seconds(workload) -> float:
    """Median over repeats of a fresh import plus building every input."""
    import workloads

    totals = []
    for _ in range(SETUP_REPEATS):
        imported = fresh_import_seconds()
        start = time.perf_counter()
        workloads.build_inputs(workload.inputs)
        totals.append(imported + time.perf_counter() - start)
    return statistics.median(totals)


def make_workload(name: str, seed: int):
    import workloads

    work_dir = WORK / name
    if name == "samples":
        return workloads.Samples(work_dir, sorted((ROOT / "scenarios").glob("*.scn")))
    if name == "sweep":
        return workloads.Sweep(work_dir, seed)
    return workloads.Audit(work_dir)


def run_passes(workload, seconds: float) -> list[list]:
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(workload.run_pass())
    return passes


def end_to_end(passes, setup_s: float) -> dict[str, tuple[float, str]]:
    ops = [op for one_pass in passes for op in one_pass]
    walls = [sum(op.seconds for op in one_pass) for one_pass in passes]
    steps = sum(op.steps for op in passes[0])
    wall_s = statistics.median(walls)
    metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s")}
    if steps:
        metrics["us_per_step"] = (wall_s / steps * 1e6, "us")
    latencies = [op.seconds * 1e3 for op in ops]
    for q in (50, 90):
        value = percentile(latencies, q)
        if value is not None:
            metrics[f"op_p{q}_ms"] = (value, "ms")
    failed = sum(1 for op in ops if op.problems)
    metrics["fail_ratio"] = (failed / len(ops), "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def traced_pass(workload, untraced_passes):
    """One pass under the tracer; (per-layer metrics, its operations)."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    ops = workload.run_pass()
    traced_wall = time.perf_counter() - start
    spans = tracer.spans()
    spans.save(WORK / f"{workload.name}-spans.npz")
    metrics = tracing.layer_metrics(spans)
    tables = [*workload.out_dir.glob("*_trajectory.csv"), *workload.out_dir.glob("*_summary.txt")]
    metrics["scenario.bytes_written"] = (sum(p.stat().st_size for p in tables), "bytes")
    untraced = statistics.median(
        sum(op.seconds for op in one_pass) for one_pass in untraced_passes
    )
    metrics["trace.overhead_ratio"] = (sum(op.seconds for op in ops) / untraced, "ratio")
    metrics["trace.spans"] = (len(spans.name), "count")
    metrics["trace.pass_s"] = (traced_wall, "s")
    return metrics, ops


def print_table(metrics: dict, notes: dict[str, str]) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<{width}}  {text:>14} {unit}{note}")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    os.environ.pop("PARAMECH_THREADS", None)  # default thread settings
    env = environment(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    workload = make_workload(args.workload, args.seed)
    notes: dict[str, str] = {}
    if args.trace:
        passes = run_passes(workload, args.seconds)
        metrics, traced_ops = traced_pass(workload, passes)
        ops = [op for one_pass in passes for op in one_pass] + traced_ops
        wanted = PER_LAYER
        notes["trace.overhead_ratio"] = f"traced pass / median of {len(passes)} untraced"
    else:
        setup_s = setup_seconds(workload)
        passes = run_passes(workload, args.seconds)
        metrics = end_to_end(passes, setup_s)
        ops = [op for one_pass in passes for op in one_pass]
        wanted = END_TO_END
        notes["setup_s"] = f"median of {SETUP_REPEATS}"
        notes["wall_s"] = f"median of {len(passes)} passes"
        for name in ("op_p50_ms", "op_p90_ms"):
            if name in metrics:
                notes[name] = f"{len(ops)} operations"
    failed = sum(1 for op in ops if op.problems)
    notes["fail_ratio"] = f"{failed} of {len(ops)}"

    print_table(metrics, notes)
    digests = workload.digests()
    combined = hashlib.sha256(
        "".join(f"{name} {digest}\n" for name, digest in digests.items()).encode()
    ).hexdigest()
    print(f"outputs: {len(digests)} files, sha256 of digests {combined} (information only)")
    problems = [problem for op in ops for problem in op.problems]
    for problem in problems[:20]:
        print(f"  check failed: {problem}")

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": unit} for name, unit in wanted.items()
        },
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "output_digests": digests,
        "problems": problems,
    }
    (WORK / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
        print()
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "paramech" / "__init__.py").is_file():
        print(f"error: no paramech sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
