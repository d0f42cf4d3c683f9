"""Scenario files: parsing, validation, serialization, and execution.

A scenario is flat ``key = value`` text, one scenario per file.  Polynomial
functions nest their term list as repeated ``term`` lines, each holding an
exact rational coefficient and one exponent per coordinate:

    n = 1
    formalism = lagrangian
    structure = F
    function = polynomial
    term = 1/2 : 2 0 0 0
    term = 1/2 : 0 2 0 0
    convention = derived
    x0 = 1 0 0 0
    t_end = 6.283185307179586
    dt = 0.001
    method = implicit_midpoint

Coefficients accept both "1/2" and "0.5" and are stored exactly.  Every file
paramech writes (trajectory tables, summaries and the ``verify --report``
file) goes through one writer, ``_atomic_write``: it creates missing
directories, writes a new temp file beside the target, created with mode
0o666 less the umask as ``open`` would create it, and renames it over the
target; a failed write removes the temp file.  Outputs are deterministic:
floats are printed with 17 significant digits.  A run returns its summary's
entries as that text, key by key in file order.  The trajectory table is
streamed into the temp file: the header, then blocks of
``integrators.POSTPASS_ROWS`` rows, so no whole-table string is built.  A
column that holds one bit pattern throughout a block (a zero residual, a
constant coordinate) is formatted once per block and written into that
block's row template; 0.0 and -0.0 keep their own text.  The bytes are those
of formatting every cell.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import integrators
from .errors import ScenarioError
from .exterior import PolyScalar
from .fields import (
    PolynomialField,
    ScalarField,
    harmonic_field,
    kinetic_minus_potential_field,
)
from .hamiltonian import (
    HAMILTONIAN_METHODS,
    hamilton_residuals,
    integrate_hamiltonian,
)
from .integrators import Trajectory
from .lagrangian import (
    CONVENTIONS,
    LAGRANGIAN_METHODS,
    el_residuals,
    integrate_lagrangian,
    printed_deviates,
)
from .structures import StructureKind, build_structure

__all__ = [
    "FieldSpec",
    "Scenario",
    "parse_scenario",
    "serialize_scenario",
    "load_scenario",
    "build_field",
    "execute_scenario",
    "run_scenario",
    "run_scenario_files",
    "format_float",
]

FORMALISMS = ("lagrangian", "hamiltonian")
FUNCTION_KINDS = ("harmonic", "polynomial", "kinetic_minus_potential")

# The largest exponent a term may carry: it must fit an int64 table entry.
_MAX_EXPONENT = int(np.iinfo(np.int64).max)

_SCALAR_KEYS = (
    "n",
    "formalism",
    "structure",
    "function",
    "convention",
    "x0",
    "t_end",
    "dt",
    "method",
    "masses",
    "g_const",
    "out_trajectory",
    "out_summary",
)


@dataclass(frozen=True)
class FieldSpec:
    kind: str
    terms: tuple[tuple[Fraction, tuple[int, ...]], ...] = ()
    masses: tuple[float, ...] = ()
    g_const: float = 0.0


@dataclass(frozen=True)
class Scenario:
    n: int
    formalism: str
    structure: str
    function: FieldSpec
    x0: tuple[float, ...]
    t_end: float
    dt: float
    method: str
    convention: str | None = None
    out_trajectory: str | None = None
    out_summary: str | None = None

    @property
    def kind(self) -> StructureKind:
        return StructureKind(self.structure, dual=self.formalism == "hamiltonian")


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def _parse_lines(text: str) -> list[tuple[int, str, str]]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError("expected 'key = value'", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ScenarioError("empty key or value", line=lineno)
        entries.append((lineno, key, value))
    return entries


def _parse_int(value: str, lineno: int, field: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(f"expected an integer, got {value!r}", lineno, field) from None


def _parse_float(value: str, lineno: int, field: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ScenarioError(f"expected a number, got {value!r}", lineno, field) from None
    if not math.isfinite(number):
        raise ScenarioError(f"expected a finite number, got {value!r}", lineno, field)
    return number


def _parse_floats(value: str, lineno: int, field: str) -> tuple[float, ...]:
    return tuple(_parse_float(part, lineno, field) for part in value.split())


def _parse_term(value: str, lineno: int) -> tuple[Fraction, tuple[int, ...]]:
    if ":" not in value:
        raise ScenarioError("term needs 'coefficient : exponents'", lineno, "term")
    coeff_text, exponent_text = (part.strip() for part in value.split(":", 1))
    try:
        coeff = Fraction(coeff_text)
        float(coeff)  # fields evaluate in floats
    except (ValueError, ZeroDivisionError, OverflowError):
        message = f"coefficient {coeff_text!r} is not a rational number in float range"
        raise ScenarioError(message, lineno, "term") from None
    try:
        exponents = tuple(int(part) for part in exponent_text.split())
    except ValueError:
        raise ScenarioError("exponents must be integers", lineno, "term") from None
    if any(not 0 <= e <= _MAX_EXPONENT for e in exponents):
        raise ScenarioError("exponents must be nonnegative int64 values", lineno, "term")
    return coeff, exponents


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate one scenario."""
    values: dict[str, tuple[int, str]] = {}
    terms: list[tuple[int, tuple[Fraction, tuple[int, ...]]]] = []
    for lineno, key, value in _parse_lines(text):
        if key == "term":
            terms.append((lineno, _parse_term(value, lineno)))
            continue
        if key not in _SCALAR_KEYS:
            raise ScenarioError(f"unknown key {key!r}", lineno, key)
        if key in values:
            raise ScenarioError(f"duplicate key {key!r}", lineno, key)
        values[key] = (lineno, value)

    def require(field: str) -> tuple[int, str]:
        if field not in values:
            raise ScenarioError(f"missing required key {field!r}", field=field)
        return values[field]

    lineno, raw = require("n")
    n = _parse_int(raw, lineno, "n")
    if n < 1:
        raise ScenarioError("n must be at least 1", lineno, "n")
    dim = 4 * n

    lineno, formalism = require("formalism")
    if formalism not in FORMALISMS:
        raise ScenarioError(f"formalism must be one of {FORMALISMS}", lineno, "formalism")

    lineno, structure = require("structure")
    if structure not in ("F", "G", "H"):
        raise ScenarioError("structure must be F, G, or H", lineno, "structure")

    lineno, function_kind = require("function")
    if function_kind not in FUNCTION_KINDS:
        raise ScenarioError(
            f"function must be one of {FUNCTION_KINDS}", lineno, "function"
        )

    if function_kind == "polynomial":
        if not terms:
            raise ScenarioError("polynomial function needs at least one term", field="term")
        for lineno_term, (_, exponents) in terms:
            if len(exponents) != dim:
                raise ScenarioError(
                    f"term needs {dim} exponents, got {len(exponents)}",
                    lineno_term,
                    "term",
                )
    elif terms:
        raise ScenarioError(
            "term lines are only valid with function = polynomial",
            terms[0][0],
            "term",
        )

    masses: tuple[float, ...] = ()
    g_const = 0.0
    if function_kind == "kinetic_minus_potential":
        lineno, raw = require("masses")
        masses = _parse_floats(raw, lineno, "masses")
        if len(masses) != n:
            raise ScenarioError(f"masses needs {n} values", lineno, "masses")
        if any(m <= 0 for m in masses):
            raise ScenarioError("masses must be positive", lineno, "masses")
        lineno, raw = require("g_const")
        g_const = _parse_float(raw, lineno, "g_const")
    else:
        for field in ("masses", "g_const"):
            if field in values:
                raise ScenarioError(
                    f"{field} is only valid with function = kinetic_minus_potential",
                    values[field][0],
                    field,
                )

    convention = None
    if "convention" in values:
        lineno, convention = values["convention"]
        if formalism != "lagrangian":
            raise ScenarioError(
                "convention applies to the lagrangian formalism only",
                lineno,
                "convention",
            )
        if convention not in CONVENTIONS:
            raise ScenarioError(
                "convention must be derived or printed", lineno, "convention"
            )
    elif formalism == "lagrangian":
        convention = "derived"

    lineno, raw = require("x0")
    x0 = _parse_floats(raw, lineno, "x0")
    if len(x0) != dim:
        raise ScenarioError(f"x0 needs {dim} values, got {len(x0)}", lineno, "x0")

    lineno, raw = require("t_end")
    t_end = _parse_float(raw, lineno, "t_end")
    if t_end < 0:
        raise ScenarioError("t_end must be nonnegative", lineno, "t_end")

    lineno, raw = require("dt")
    dt = _parse_float(raw, lineno, "dt")
    if dt <= 0:
        raise ScenarioError("dt must be positive", lineno, "dt")
    if t_end != 0 and dt >= t_end:
        raise ScenarioError("dt must be smaller than t_end (or t_end = 0)", lineno, "dt")

    lineno, method = require("method")
    allowed = LAGRANGIAN_METHODS if formalism == "lagrangian" else HAMILTONIAN_METHODS
    if method not in allowed:
        raise ScenarioError(
            f"method must be one of {allowed} for {formalism} scenarios",
            lineno,
            "method",
        )

    out_trajectory = values.get("out_trajectory", (0, None))[1]
    out_summary = values.get("out_summary", (0, None))[1]

    return Scenario(
        n=n,
        formalism=formalism,
        structure=structure,
        function=FieldSpec(function_kind, tuple(t for _, t in terms), masses, g_const),
        x0=x0,
        t_end=t_end,
        dt=dt,
        method=method,
        convention=convention,
        out_trajectory=out_trajectory,
        out_summary=out_summary,
    )


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text for a scenario; parse(serialize(s)) == s.

    An output path that would not parse back (a ``#``, a line break, or
    whitespace at either end) is a ValueError naming its key.
    """
    lines = [
        f"n = {scenario.n}",
        f"formalism = {scenario.formalism}",
        f"structure = {scenario.structure}",
        f"function = {scenario.function.kind}",
    ]
    for coeff, exponents in scenario.function.terms:
        lines.append(f"term = {coeff} : {' '.join(str(e) for e in exponents)}")
    if scenario.function.kind == "kinetic_minus_potential":
        lines.append(f"masses = {' '.join(format_float(m) for m in scenario.function.masses)}")
        lines.append(f"g_const = {format_float(scenario.function.g_const)}")
    if scenario.convention is not None:
        lines.append(f"convention = {scenario.convention}")
    lines.append(f"x0 = {' '.join(format_float(v) for v in scenario.x0)}")
    lines.append(f"t_end = {format_float(scenario.t_end)}")
    lines.append(f"dt = {format_float(scenario.dt)}")
    lines.append(f"method = {scenario.method}")
    for key in ("out_trajectory", "out_summary"):
        path = getattr(scenario, key)
        if path is None:
            continue
        if "#" in path or path != path.strip() or len(path.splitlines()) != 1:
            raise ValueError(f"{key} {path!r} does not survive a scenario file")
        lines.append(f"{key} = {path}")
    return "\n".join(lines) + "\n"


def load_scenario(path: str | Path) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def build_field(spec: FieldSpec, n: int) -> ScalarField:
    if spec.kind == "harmonic":
        return harmonic_field(n)
    if spec.kind == "polynomial":
        pairs = ((exponents, coeff) for coeff, exponents in spec.terms)
        return PolynomialField(PolyScalar(4 * n, pairs))
    return kinetic_minus_potential_field(spec.masses, spec.g_const)


def _atomic_write(path: Path, blocks: Iterable[str]) -> None:
    """Write the text blocks in order to a new file beside ``path``, then rename it.

    The one writer of every output file.  Missing directories are created.
    The temporary file is named from the pid and a random token and created
    exclusively with mode 0o666, so the kernel applies the umask as ``open``
    would; on any failure it is removed and ``path`` is left as it was.  An
    ``OSError`` creating, writing or renaming the temporary file is raised
    again naming ``path``, with its errno and strerror.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as handle:
                handle.writelines(blocks)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


def _trajectory_table(traj: Trajectory, residuals: np.ndarray) -> Iterator[str]:
    """The table as text blocks: the header line, then POSTPASS_ROWS rows each.

    The block size is read when the first block is asked for.
    """
    dim = traj.states.shape[1]
    header = (
        ["t"]
        + [f"x_{a + 1}" for a in range(dim)]
        + ["energy"]
        + [f"res_{a + 1}" for a in range(dim)]
    )
    columns = (traj.times, traj.states, traj.invariants["energy"], residuals)
    yield ",".join(header) + "\n"
    rows = integrators.POSTPASS_ROWS
    for start in range(0, len(traj), rows):
        block = np.column_stack([c[start : start + rows] for c in columns])
        # A column holding one bit pattern (so 0.0 and -0.0 differ) is
        # formatted once, into the row template; '%.17g' % v is format_float(v)
        # for every float, inf and nan included, and never contains '%'.
        bits = block.view(np.int64)
        constant = (bits == bits[0]).all(axis=0)
        first = zip(block[0].tolist(), constant.tolist())
        cells = ["%.17g" % v if same else "%.17g" for v, same in first]
        row = ",".join(cells) + "\n"
        assert row.count("%") == len(cells) - constant.sum()
        yield "".join([row % tuple(values) for values in block[:, ~constant].tolist()])


def execute_scenario(scenario: Scenario) -> tuple[Trajectory, np.ndarray, dict[str, float]]:
    """Integrate a scenario and take its residuals; nothing is written.

    Returns the trajectory, the residuals its table reports (one row per
    sample), and the maxima of their absolute values keyed as in the
    summary: ``derived_residual_max`` and ``printed_residual_max`` for
    Lagrangian runs, ``residual_max`` for Hamiltonian runs.
    """
    field = build_field(scenario.function, scenario.n)
    if scenario.formalism == "lagrangian":
        op = build_structure(scenario.kind, scenario.n)
        traj = integrate_lagrangian(
            op, field, scenario.x0, scenario.t_end, scenario.dt, scenario.method
        )
        residuals = el_residuals(op, field, traj)
        maxima = {
            f"{name}_residual_max": float(np.abs(r).max(initial=0.0))
            for name, r in residuals.items()
        }
        return traj, residuals[scenario.convention], maxima
    traj = integrate_hamiltonian(
        scenario.kind, field, scenario.x0, scenario.t_end, scenario.dt, scenario.method
    )
    residuals = hamilton_residuals(scenario.kind, field, traj)
    return traj, residuals, {"residual_max": float(np.abs(residuals).max(initial=0.0))}


def _output_paths(
    scenario: Scenario, name: str, out_dir: str | Path | None
) -> tuple[Path, Path]:
    """The trajectory and summary paths of one run.

    A relative path, the default ``<name>_trajectory.csv`` and
    ``<name>_summary.txt`` included, lies in ``out_dir`` (default: the
    working directory); an absolute one is kept.
    """
    out_dir = Path(out_dir) if out_dir is not None else Path.cwd()
    return (
        out_dir / (scenario.out_trajectory or f"{name}_trajectory.csv"),
        out_dir / (scenario.out_summary or f"{name}_summary.txt"),
    )


def run_scenario(
    scenario: Scenario, name: str, out_dir: str | Path | None = None
) -> tuple[dict[str, str], Path, Path]:
    """Integrate one scenario and write its trajectory table and summary.

    Returns the summary's entries (key to the text written after ``key = ``,
    in file order) and the table and summary paths.  Only strings are kept,
    so the run's arrays are freed once its files are written.
    """
    traj, residuals, maxima = execute_scenario(scenario)
    energy = traj.invariants["energy"]
    # A finite run may still overflow here: inf energy or a far endpoint.
    with integrators._overflow_policy():
        drift = np.max(np.abs(energy - energy[0]))
        endpoint = np.linalg.norm(traj.states[-1] - np.asarray(scenario.x0))
    summary = {
        "scenario": name,
        "formalism": scenario.formalism,
        "structure": scenario.structure,
        "n": str(scenario.n),
        "method": scenario.method,
        "dt": format_float(scenario.dt),
        "t_end": format_float(scenario.t_end),
        "samples": str(len(traj)),
        "energy_initial": format_float(energy[0]),
        "energy_final": format_float(energy[-1]),
        "energy_drift_max": format_float(drift),
        "endpoint_distance_from_start": format_float(endpoint),
        "final_state": " ".join(map(format_float, traj.states[-1].tolist())),
    }
    summary.update((key, format_float(value)) for key, value in maxima.items())
    if scenario.formalism == "lagrangian" and printed_deviates(
        maxima["derived_residual_max"], maxima["printed_residual_max"]
    ):
        summary["warning"] = (
            f"boxed first-order system for structure {scenario.structure} deviates "
            "from the derived flow (opposite sign on the gradient terms)"
        )

    trajectory_path, summary_path = _output_paths(scenario, name, out_dir)
    _atomic_write(trajectory_path, _trajectory_table(traj, residuals))
    _atomic_write(summary_path, ["".join(f"{key} = {value}\n" for key, value in summary.items())])
    return summary, trajectory_path, summary_path


def run_scenario_files(
    paths, out_dir: str | Path | None = None
) -> list[tuple[dict[str, str], Path, Path]]:
    """Parse every scenario file and plan every output first, then run them in order.

    An output path that two outputs share (two files with one stem, or one
    scenario's table and summary), or that is one of the scenario files, is
    a ``ScenarioError`` raised before anything is written.  Paths are
    compared lexically, after ``os.path.abspath``, so a symlink alias of a
    path is not caught.  An error parsing or running one file gains the note
    "(in FILE)", which the CLI prints at the end of its error line.
    """
    paths = [Path(p) for p in paths]
    scenarios = [(p, _noting_file(p, load_scenario, p)) for p in paths]
    inputs = {os.path.abspath(p): p for p in paths}
    writers: dict[str, Path] = {}
    for path, scenario in scenarios:
        for output in _output_paths(scenario, path.stem, out_dir):
            key = os.path.abspath(output)
            if key in inputs:
                raise ScenarioError(
                    f"output {output} of {path} would overwrite scenario file {inputs[key]}"
                )
            if key in writers:
                raise ScenarioError(
                    f"output {output} is written twice, by {writers[key]} and {path}"
                )
            writers[key] = path
    return [_noting_file(p, run_scenario, s, p.stem, out_dir) for p, s in scenarios]


def _noting_file(path: Path, fn, *args):
    """fn(*args); an exception it raises keeps its type and gains the note "(in path)"."""
    try:
        return fn(*args)
    except Exception as exc:  # BaseException.add_note is Python 3.11+
        exc.__notes__ = [*getattr(exc, "__notes__", ()), f"(in {path})"]
        raise
