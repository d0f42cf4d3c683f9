"""The benchmark's workloads, their inputs, and the checks on their outputs.

Every workload is a closed loop in one process: each operation is an
in-process ``paramech`` command line, started when the previous one has
finished.  An operation fails on a nonzero exit code or a failed output
check.  The checks use the tolerances of the acceptance criteria and the
README rather than byte equality, so a legitimate change of the time grid
does not count as a failure; digests of the output files are reported for
information only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from paramech import cli
from paramech.scenario import Scenario, build_field, load_scenario
from paramech.structures import StructureKind, build_structure

import generate

# Residual tolerance of acceptance criteria 6 and 7 (Hamilton equations and
# derived Euler-Lagrange residuals along computed flows).
RESIDUAL_TOL = 1e-6

# Largest Hamiltonian energy drift, relative to max(1, |H(x0)|), accepted per
# method.  Measured maxima over the sweep seeds 1-30 and the sample
# scenarios, with a margin of at least 5x: rk4 1.1e-7, implicit_midpoint
# 2.4e-5 (exact for quadratic H, second order otherwise), symplectic_euler
# 4.0e-2 (first order).
DRIFT_BOUND = {"rk4": 1e-5, "implicit_midpoint": 1e-3, "symplectic_euler": 0.25}

F_WARNING = "boxed first-order system for structure F deviates"

AUDIT_N = 5
AUDIT_TALLY = re.compile(
    r"^(\d+) identities: (\d+) pass, (\d+) documented discrepancies, (\d+) fail$", re.M
)


@dataclass(frozen=True)
class Op:
    """One operation of a closed loop: its latency, steps taken and problems."""

    seconds: float
    steps: int
    problems: tuple[str, ...]


def _cli(argv: list[str]) -> tuple[int, float, str]:
    """Run one ``paramech`` command in-process; (exit code, seconds, output).

    An exception that escapes the command line counts as exit code 1, with
    its traceback in the output, so the loop goes on and reports it.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue()


def _exit_problem(code: int, output: str) -> str:
    lines = output.strip().splitlines()
    return f"exit code {code}: {lines[-1] if lines else 'no output'}"


def _summary(path: Path) -> dict[str, list[str]]:
    entries: dict[str, list[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        entries.setdefault(key, []).append(value)
    return entries


def check_scenario_output(name: str, scenario: Scenario, out_dir: Path) -> tuple[int, list[str]]:
    """Steps taken and the problems found in one scenario's outputs."""
    summary_path = out_dir / f"{name}_summary.txt"
    trajectory_path = out_dir / f"{name}_trajectory.csv"
    if not summary_path.is_file() or not trajectory_path.is_file():
        return 0, [f"{name}: output files missing"]
    summary = _summary(summary_path)
    problems = []
    samples = int(summary["samples"][0])
    if scenario.formalism == "hamiltonian":
        residual = float(summary["residual_max"][0])
        if not residual <= RESIDUAL_TOL:
            problems.append(f"{name}: residual_max {residual:g} > {RESIDUAL_TOL:g}")
        energy0 = float(summary["energy_initial"][0])
        drift = float(summary["energy_drift_max"][0])
        bound = DRIFT_BOUND[scenario.method] * max(1.0, abs(energy0))
        if not drift <= bound:
            problems.append(f"{name}: energy drift {drift:g} > {bound:g} ({scenario.method})")
    else:
        residual = float(summary["derived_residual_max"][0])
        if not residual <= RESIDUAL_TOL:
            problems.append(f"{name}: derived_residual_max {residual:g} > {RESIDUAL_TOL:g}")
    warned = any(w.startswith(F_WARNING) for w in summary.get("warning", []))
    expect_warning = scenario.formalism == "lagrangian" and scenario.structure == "F"
    if warned != expect_warning:
        problems.append(f"{name}: F-printed warning {'missing' if expect_warning else 'unexpected'}")
    rows = trajectory_path.read_text(encoding="utf-8").splitlines()
    if len(rows) != samples + 1:
        problems.append(f"{name}: {len(rows) - 1} table rows for {samples} samples")
    else:
        t_last = float(rows[-1].split(",", 1)[0])
        if abs(t_last - scenario.t_end) > 1e-9 * max(1.0, scenario.t_end):
            problems.append(f"{name}: last sample at t = {t_last!r}, not t_end")
    return samples - 1, problems


def build_inputs(scenarios: list[Path]) -> None:
    """Parse and build every input: the set-up a scenario run does first."""
    for path in scenarios:
        scenario = load_scenario(path)
        build_field(scenario.function, scenario.n)
        build_structure(StructureKind(scenario.structure), scenario.n)


class Workload:
    """Inputs, one pass of operations, and the directory it writes to."""

    name = ""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.out_dir = work_dir / "out"
        if work_dir.exists():
            shutil.rmtree(work_dir)
        self.out_dir.mkdir(parents=True)

    @property
    def inputs(self) -> list[Path]:
        """Scenario files built during set-up."""
        return []

    def run_pass(self) -> list[Op]:
        raise NotImplementedError

    def digests(self) -> dict[str, str]:
        """sha256 of every output file, by name."""
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(self.out_dir.iterdir())
        }


class Samples(Workload):
    name = "samples"

    def __init__(self, work_dir: Path, files: list[Path]):
        super().__init__(work_dir)
        self.files = sorted(files)
        self.scenarios = [(p.stem, load_scenario(p)) for p in self.files]

    @property
    def inputs(self) -> list[Path]:
        return self.files

    def run_pass(self) -> list[Op]:
        code, seconds, output = _cli(["run", *map(str, self.files), "--out", str(self.out_dir)])
        if code != 0:
            return [Op(seconds, 0, (_exit_problem(code, output),))]
        steps, problems = 0, []
        for name, scenario in self.scenarios:
            taken, found = check_scenario_output(name, scenario, self.out_dir)
            steps += taken
            problems += found
        return [Op(seconds, steps, tuple(problems))]


class Sweep(Workload):
    name = "sweep"

    def __init__(self, work_dir: Path, seed: int):
        super().__init__(work_dir)
        self.files = generate.write_sweep(seed, work_dir / "inputs")

    @property
    def inputs(self) -> list[Path]:
        return [path for path, _ in self.files]

    def run_pass(self) -> list[Op]:
        ops = []
        for path, scenario in self.files:
            code, seconds, output = _cli(["run", str(path), "--out", str(self.out_dir)])
            if code != 0:
                ops.append(Op(seconds, 0, (f"{path.stem}: {_exit_problem(code, output)}",)))
                continue
            steps, problems = check_scenario_output(path.stem, scenario, self.out_dir)
            ops.append(Op(seconds, steps, tuple(problems)))
        return ops


class Audit(Workload):
    name = "audit"

    def __init__(self, work_dir: Path, n_max: int = AUDIT_N):
        super().__init__(work_dir)
        self.n_max = n_max

    def run_pass(self) -> list[Op]:
        code, seconds, text = _cli(["verify", "--n", str(self.n_max)])
        (self.out_dir / f"verify_n{self.n_max}.txt").write_text(text, encoding="utf-8")
        if code != 0:
            return [Op(seconds, 0, (_exit_problem(code, text),))]
        tally = AUDIT_TALLY.search(text)
        if tally is None:
            return [Op(seconds, 0, ("no audit tally in the output",))]
        _, _, discrepancies, failures = map(int, tally.groups())
        problems = []
        if failures != 0 or discrepancies != 1:
            problems.append(
                f"audit reports {failures} fail, {discrepancies} documented discrepancies; "
                "expected 0 fail, 1 documented discrepancy"
            )
        return [Op(seconds, 0, tuple(problems))]
