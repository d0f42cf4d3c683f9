import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from paramech import integrators
from paramech.cli import main
from paramech.errors import ScenarioError
from paramech.exterior import PolyScalar
from paramech.fields import PolynomialField
from paramech.hamiltonian import hamiltonian_vector_field
from paramech.integrators import Trajectory
from paramech.lagrangian import printed_sign
from paramech.scenario import (
    _atomic_write,
    _trajectory_table,
    build_field,
    execute_scenario,
    load_scenario,
    format_float,
    parse_scenario,
    run_scenario,
    run_scenario_files,
    serialize_scenario,
)
from paramech.structures import StructureKind, build_structure

HARMONIC_HAMILTONIAN = """
# minimal harmonic scenario
n = 1
formalism = hamiltonian
structure = F
function = harmonic
x0 = 1 0 0 0
t_end = 6.2832
dt = 0.001
method = implicit_midpoint
"""

POLY_LAGRANGIAN = """
n = 1
formalism = lagrangian
structure = G
function = polynomial
term = 1/2 : 2 0 0 0
term = 0.5 : 0 2 0 0
term = 1/2 : 0 0 2 0
term = 1/2 : 0 0 0 2
convention = derived
x0 = 1 0 0 0
t_end = 1.0
dt = 0.01
method = implicit_midpoint
"""


SAMPLES = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))


def test_parse_minimal_scenario():
    scenario = parse_scenario(HARMONIC_HAMILTONIAN)
    assert scenario.n == 1
    assert scenario.formalism == "hamiltonian"
    assert scenario.structure == "F"
    assert scenario.function.kind == "harmonic"
    assert scenario.x0 == (1.0, 0.0, 0.0, 0.0)
    assert scenario.convention is None
    assert scenario.kind.dual


def test_parse_polynomial_terms_exact():
    scenario = parse_scenario(POLY_LAGRANGIAN)
    assert scenario.function.terms[0] == (Fraction(1, 2), (2, 0, 0, 0))
    assert scenario.function.terms[1] == (Fraction(1, 2), (0, 2, 0, 0))
    field = build_field(scenario.function, scenario.n)
    assert field.value([1.0, 0.0, 0.0, 0.0]) == 0.5


def test_build_field_sums_repeated_terms():
    text = POLY_LAGRANGIAN.replace(
        "term = 1/2 : 0 0 0 2",
        "term = 1/2 : 0 0 0 2\nterm = 1/3 : 2 0 0 0\nterm = 3 : 1 1 0 0\nterm = -3 : 1 1 0 0",
    )
    field = build_field(parse_scenario(text).function, 1)
    expected = PolyScalar(
        4,
        {
            (2, 0, 0, 0): Fraction(5, 6),
            (0, 2, 0, 0): Fraction(1, 2),
            (0, 0, 2, 0): Fraction(1, 2),
            (0, 0, 0, 2): Fraction(1, 2),
        },
    )
    assert field.poly == expected


def test_dimension_error_in_x0():
    text = HARMONIC_HAMILTONIAN.replace("x0 = 1 0 0 0", "x0 = 1 0 0")
    with pytest.raises(ScenarioError, match="x0"):
        parse_scenario(text)


def test_convention_rejected_for_hamiltonian():
    text = HARMONIC_HAMILTONIAN + "convention = printed\n"
    with pytest.raises(ScenarioError, match="convention"):
        parse_scenario(text)


def test_unknown_key_reports_line():
    text = HARMONIC_HAMILTONIAN + "colour = blue\n"
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(text)


def test_unknown_builtin():
    text = HARMONIC_HAMILTONIAN.replace("function = harmonic", "function = fourier")
    with pytest.raises(ScenarioError, match="function"):
        parse_scenario(text)


def test_dt_must_fit_into_t_end():
    text = HARMONIC_HAMILTONIAN.replace("dt = 0.001", "dt = 10.0")
    with pytest.raises(ScenarioError, match="dt"):
        parse_scenario(text)


def test_polynomial_needs_terms():
    text = HARMONIC_HAMILTONIAN.replace("function = harmonic", "function = polynomial")
    with pytest.raises(ScenarioError, match="term"):
        parse_scenario(text)


def test_term_exponent_count_checked():
    text = POLY_LAGRANGIAN.replace("term = 1/2 : 2 0 0 0", "term = 1/2 : 2 0 0")
    with pytest.raises(ScenarioError, match="exponents"):
        parse_scenario(text)


def test_masses_validation():
    text = HARMONIC_HAMILTONIAN.replace(
        "function = harmonic", "function = kinetic_minus_potential"
    )
    with pytest.raises(ScenarioError, match="masses"):
        parse_scenario(text)
    complete = text + "masses = 1.0\ng_const = 9.81\n"
    scenario = parse_scenario(complete)
    assert scenario.function.masses == (1.0,)
    assert scenario.function.g_const == 9.81


def test_method_must_match_formalism():
    text = POLY_LAGRANGIAN.replace("method = implicit_midpoint", "method = symplectic_euler")
    with pytest.raises(ScenarioError, match="method"):
        parse_scenario(text)


KINETIC = HARMONIC_HAMILTONIAN.replace(
    "function = harmonic", "function = kinetic_minus_potential\nmasses = 1.0\ng_const = 0.5"
)


H, L, K = HARMONIC_HAMILTONIAN, POLY_LAGRANGIAN, KINETIC
HARMONIC_LINE, TERM = "function = harmonic", "term = 1/2 : 2 0 0 0"

# (scenario, old line, new lines, field, message): the last new line is
# rejected, naming its line and its field (none for a line without one).
REJECTIONS = {
    "no-equals": (H, "n = 1", "n 1", None, "expected 'key = value'"),
    "empty-value": (H, "n = 1", "n =", None, "empty key or value"),
    "not-an-integer": (H, "n = 1", "n = 1.5", "n", "expected an integer"),
    "not-a-number": (H, "dt = 0.001", "dt = fast", "dt", "expected a number"),
    "term-without-colon": (L, TERM, "term = 1/2 2 0 0 0", "term", "term needs"),
    "term-exponents": (L, TERM, "term = 1/2 : 2 0 0 0.5", "term", "must be integers"),
    "duplicate-key": (H, "n = 1", "n = 1\nn = 1", "n", "duplicate key"),
    "n": (H, "n = 1", "n = 0", "n", "at least 1"),
    "formalism": (H, "formalism = hamiltonian", "formalism = x", "formalism", "one of"),
    "structure": (H, "structure = F", "structure = K", "structure", "F, G, or H"),
    "term-elsewhere": (H, HARMONIC_LINE, f"{HARMONIC_LINE}\n{TERM}", "term", "only valid"),
    "masses-count": (K, "masses = 1.0", "masses = 1.0 2.0", "masses", "needs 1 values"),
    "masses-sign": (K, "masses = 1.0", "masses = 0", "masses", "must be positive"),
    "masses-elsewhere": (H, HARMONIC_LINE, f"{HARMONIC_LINE}\nmasses = 1", "masses", "only"),
    "g_const-elsewhere": (H, HARMONIC_LINE, f"{HARMONIC_LINE}\ng_const = 1", "g_const", "only"),
    "convention": (L, "convention = derived", "convention = x", "convention", "derived or"),
    "t_end": (H, "t_end = 6.2832", "t_end = -1", "t_end", "must be nonnegative"),
    "dt": (H, "dt = 0.001", "dt = 0", "dt", "must be positive"),
}


@pytest.mark.parametrize("case", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_parse_rejections_name_their_line_and_field(case, tmp_path, capsys):
    text, old, new, field, message = case
    bad = text.replace(old, new, 1)
    assert bad != text
    lineno = len(text[: text.index(old)].splitlines()) + len(new.splitlines())
    with pytest.raises(ScenarioError, match=message) as excinfo:
        parse_scenario(bad)
    assert (excinfo.value.line, excinfo.value.field) == (lineno, field)
    path = tmp_path / "bad.scn"
    path.write_text(bad)
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {excinfo.value} (in {path})\n"


def test_round_trip_identity():
    for text in (HARMONIC_HAMILTONIAN, POLY_LAGRANGIAN):
        scenario = parse_scenario(text)
        assert parse_scenario(serialize_scenario(scenario)) == scenario
    kmp = parse_scenario(
        HARMONIC_HAMILTONIAN.replace("function = harmonic", "function = kinetic_minus_potential")
        + "masses = 2.0\ng_const = 9.81\nout_trajectory = custom.csv\n"
    )
    assert parse_scenario(serialize_scenario(kmp)) == kmp


@pytest.mark.parametrize("key", ["out_trajectory", "out_summary"])
@pytest.mark.parametrize("path", ["out#1.csv", " out.csv ", "out\n.csv"])
def test_serialize_refuses_a_path_that_does_not_parse_back(key, path):
    # Parsing would cut the path at '#', strip its ends, or split its line.
    scenario = replace(parse_scenario(HARMONIC_HAMILTONIAN), **{key: path})
    with pytest.raises(ValueError, match=key):
        serialize_scenario(scenario)


def test_run_writes_deterministic_outputs(tmp_path):
    scenario = parse_scenario(HARMONIC_HAMILTONIAN.replace("t_end = 6.2832", "t_end = 0.5"))
    _, trajectory_path, summary_path = run_scenario(scenario, "demo", tmp_path)
    content_a = trajectory_path.read_bytes()
    summary_a = summary_path.read_bytes()
    _, trajectory_path, summary_path = run_scenario(scenario, "demo", tmp_path)
    assert trajectory_path.read_bytes() == content_a
    assert summary_path.read_bytes() == summary_a
    header = content_a.decode().splitlines()[0]
    assert header == "t,x_1,x_2,x_3,x_4,energy,res_1,res_2,res_3,res_4"


def test_run_harmonic_reports_conservation(tmp_path):
    scenario = parse_scenario(
        HARMONIC_HAMILTONIAN.replace("t_end = 6.2832", "t_end = 6.283185307179586")
    )
    summary, _, summary_path = run_scenario(scenario, "circle", tmp_path)
    assert float(summary["energy_drift_max"]) <= 1e-10
    assert float(summary["endpoint_distance_from_start"]) <= 1e-6
    text = summary_path.read_text()
    assert "energy_drift_max" in text
    assert "endpoint_distance_from_start" in text


def test_run_printed_f_warns(tmp_path):
    text = POLY_LAGRANGIAN.replace("structure = G", "structure = F").replace(
        "convention = derived", "convention = printed"
    )
    summary, _, summary_path = run_scenario(parse_scenario(text), "audit", tmp_path)
    assert summary["warning"]
    assert float(summary["printed_residual_max"]) >= 0.1
    assert float(summary["derived_residual_max"]) <= 1e-6
    assert "warning" in summary_path.read_text()


@pytest.mark.parametrize("structure", "FGH")
def test_residual_pass_takes_one_hessian_per_chunk(structure, monkeypatch):
    # Both conventions come from one Hess . xdot per chunk of samples.  A
    # quadratic L steps with its constant Hessian, so only the residual pass
    # calls hessian.
    scenario = parse_scenario(POLY_LAGRANGIAN.replace("structure = G", f"structure = {structure}"))
    monkeypatch.setattr(integrators, "POSTPASS_ROWS", 10)
    calls = []
    hessian = PolynomialField.hessian

    def counting(self, x):
        calls.append(len(x))
        return hessian(self, x)

    monkeypatch.setattr(PolynomialField, "hessian", counting)
    traj, _, _ = execute_scenario(scenario)
    assert len(traj) == 101
    assert calls == [10] * 10 + [1]


def test_run_many(tmp_path):
    paths = []
    for k, structure in enumerate("FGH"):
        text = HARMONIC_HAMILTONIAN.replace("structure = F", f"structure = {structure}").replace(
            "t_end = 6.2832", "t_end = 0.5"
        )
        path = tmp_path / f"scenario_{k}.scn"
        path.write_text(text)
        paths.append(path)
    results = run_scenario_files(paths, out_dir=tmp_path)
    assert len(results) == 3
    for _, trajectory_path, _ in results:
        assert trajectory_path.exists()


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_run_result_is_the_summary_of_execute_scenario(path, tmp_path):
    scenario = load_scenario(path)
    traj, residuals, maxima = execute_scenario(scenario)
    energy = traj.invariants["energy"]
    if scenario.formalism == "hamiltonian":
        assert maxima["residual_max"] == np.abs(residuals).max()
        warns = False
    else:
        assert maxima[f"{scenario.convention}_residual_max"] == np.abs(residuals).max()
        warns = scenario.structure == "F" and maxima["printed_residual_max"] > 1e-6
    expected = {
        "scenario": path.stem,
        "formalism": scenario.formalism,
        "structure": scenario.structure,
        "n": str(scenario.n),
        "method": scenario.method,
        "dt": format_float(scenario.dt),
        "t_end": format_float(scenario.t_end),
        "samples": str(len(traj)),
        "energy_initial": format_float(energy[0]),
        "energy_final": format_float(energy[-1]),
        "energy_drift_max": format_float(np.max(np.abs(energy - energy[0]))),
        "endpoint_distance_from_start": format_float(
            np.linalg.norm(traj.states[-1] - np.asarray(scenario.x0))
        ),
        "final_state": " ".join(format_float(v) for v in traj.states[-1]),
        **{key: format_float(value) for key, value in maxima.items()},
    }
    [(summary, trajectory_path, summary_path)] = run_scenario_files([path], out_dir=tmp_path)
    assert {key: value for key, value in summary.items() if key != "warning"} == expected
    assert ("warning" in summary) == warns
    assert trajectory_path == tmp_path / f"{path.stem}_trajectory.csv"
    assert summary_path == tmp_path / f"{path.stem}_summary.txt"
    assert all(isinstance(value, str) for value in summary.values())


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_run_returns_the_summary_it_writes(path, tmp_path, capsys):
    # The returned mapping is the summary file, entry by entry in file order,
    # and the CLI prints the mapping's own text.
    scenario = load_scenario(path)
    summary, trajectory_path, summary_path = run_scenario(scenario, path.stem, tmp_path)
    written = [line.split(" = ", 1) for line in summary_path.read_text().splitlines()]
    assert [[key, value] for key, value in summary.items()] == written
    assert all(isinstance(value, str) for value in summary.values())
    f_lagrangian = scenario.formalism == "lagrangian" and scenario.structure == "F"
    assert ("warning" in summary) == f_lagrangian

    out = tmp_path / "cli"
    assert main(["run", str(path), "--out", str(out)]) == 0
    expected = [
        f"{summary['scenario']}: {summary['samples']} samples, "
        f"energy drift {summary['energy_drift_max']}, "
        f"endpoint distance {summary['endpoint_distance_from_start']}",
        f"  trajectory -> {out / trajectory_path.name}",
        f"  summary    -> {out / summary_path.name}",
    ]
    if f_lagrangian:
        expected.append(f"  warning: {summary['warning']}")
    assert capsys.readouterr().out.splitlines() == expected
    assert (out / summary_path.name).read_bytes() == summary_path.read_bytes()


def test_run_results_hold_no_arrays(tmp_path):
    # Each file's arrays are freed once its table and summary are written.
    tracemalloc.start()
    try:
        results = run_scenario_files(SAMPLES, out_dir=tmp_path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == len(SAMPLES) == 7
    assert held < 0.1e6


def test_custom_output_paths(tmp_path):
    text = HARMONIC_HAMILTONIAN + "out_trajectory = a/b.csv\nout_summary = a/b.txt\n"
    _, trajectory_path, summary_path = run_scenario(parse_scenario(text), "named", tmp_path)
    assert trajectory_path == tmp_path / "a/b.csv"
    assert trajectory_path.exists()
    assert summary_path.exists()


def failing_blocks():
    yield "t,x_1\n"
    raise RuntimeError("block failed")


def test_failed_write_leaves_no_file(tmp_path):
    target = tmp_path / "new" / "table.csv"
    with pytest.raises(RuntimeError, match="block failed"):
        _atomic_write(target, failing_blocks())
    assert list(target.parent.iterdir()) == []


def test_failed_write_keeps_the_old_file(tmp_path):
    target = tmp_path / "table.csv"
    target.write_text("old\n")
    with pytest.raises(RuntimeError, match="block failed"):
        _atomic_write(target, failing_blocks())
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "old\n"


def test_sample_time_grid_lands_on_t_end(tmp_path):
    # Sample k sits at exactly k*dt and the last sample at exactly t_end.
    scenario = parse_scenario(
        HARMONIC_HAMILTONIAN.replace("t_end = 6.2832", "t_end = 6.283185307179586")
    )
    summary, trajectory_path, _ = run_scenario(scenario, "grid", tmp_path)
    times = execute_scenario(scenario)[0].times
    assert int(summary["samples"]) == len(times)
    assert times[3000] == 3000 * scenario.dt
    assert all(times[k] == k * scenario.dt for k in range(len(times) - 1))
    assert times[-1] == scenario.t_end
    last_row = trajectory_path.read_text().splitlines()[-1]
    assert last_row.split(",")[0] == "6.2831853071795862"


def test_trajectory_table_cells_are_format_float():
    # One format string per row writes every cell as format_float would,
    # special values included.
    specials = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.inf, -np.inf, np.nan, 0.1]
    rng = np.random.default_rng(41)
    bits = rng.integers(0, 2**64, size=60, dtype=np.uint64).view(np.float64)
    cells = np.concatenate([specials * 3, bits])[:72].reshape(8, 9)
    times = np.arange(8) / 3
    traj = Trajectory(times, cells[:, :4], np.zeros((8, 4)), {"energy": cells[:, 4]})
    table = "".join(_trajectory_table(traj, cells[:, 5:]))
    rows = table.splitlines()
    assert rows[0] == "t,x_1,x_2,x_3,x_4,energy,res_1,res_2,res_3,res_4"
    for k, row in enumerate(rows[1:]):
        expected = [times[k], *cells[k]]
        assert row == ",".join(format_float(v) for v in expected)
    assert len(rows) == 9 and table.endswith("\n")


def constant_column_cases():
    # Columns x_1, x_2, energy, res_1, res_2 of 9 rows, written in blocks of 4.
    rng = np.random.default_rng(43)
    varying = rng.standard_normal((9, 5))
    signed_zeros = varying.copy()
    signed_zeros[:, 0], signed_zeros[:, 1] = 0.0, -0.0
    signed_zeros[:, 2] = np.where(np.arange(9) % 2, -0.0, 0.0)  # equal, not constant
    specials = varying.copy()
    specials[:, 2], specials[:, 3], specials[:, 4] = np.inf, np.nan, -np.inf
    constant_then_varying = varying.copy()
    constant_then_varying[:4, 1] = 0.25
    all_constant = np.tile([1.5, -0.0, np.nan, 0.0, np.inf], (9, 1))
    all_constant[:8] = varying[:8]
    return {
        "zero_next_to_negative_zero": signed_zeros,
        "constant_inf_and_nan": specials,
        "constant_in_one_block_then_varying": constant_then_varying,
        "one_row_all_constant_last_block": all_constant,
        "no_constant_column": varying,
    }


@pytest.mark.parametrize("case", constant_column_cases().items(), ids=lambda c: c[0])
def test_constant_table_columns_keep_the_per_cell_bytes(case, monkeypatch):
    cells = case[1]
    monkeypatch.setattr(integrators, "POSTPASS_ROWS", 4)
    times = np.arange(9) / 7
    traj = Trajectory(times, cells[:, :2], np.zeros((9, 2)), {"energy": cells[:, 2]})
    blocks = list(_trajectory_table(traj, cells[:, 3:]))
    assert len(blocks) == 4
    expected = "".join(
        ",".join(format_float(v) for v in [t, *row]) + "\n" for t, row in zip(times, cells)
    )
    assert "".join(blocks[1:]) == expected


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_postpass_is_bitwise_independent_of_the_chunk_size(path, monkeypatch, tmp_path):
    # 1,100 samples: two chunks at the default size.  Each stacked row must be
    # bitwise the one-point evaluation the per-sample loop used to make, and
    # the table, written in blocks of that size, must keep its bytes.
    scenario = load_scenario(path)
    scenario = replace(scenario, t_end=1100 * scenario.dt)
    traj, residuals, maxima = execute_scenario(scenario)
    assert len(traj) > integrators.POSTPASS_ROWS
    table = run_scenario(scenario, "default", tmp_path)[1].read_bytes()
    for rows in (1, 3):
        monkeypatch.setattr(integrators, "POSTPASS_ROWS", rows)
        again, again_residuals, again_maxima = execute_scenario(scenario)
        assert np.array_equal(again.states, traj.states)
        assert np.array_equal(again.invariants["energy"], traj.invariants["energy"])
        assert np.array_equal(again_residuals, residuals)
        assert again_maxima == maxima
        blocks = list(_trajectory_table(again, again_residuals))
        assert len(blocks) == 1 + math.ceil(len(traj) / rows)
        written = run_scenario(scenario, f"rows_{rows}", tmp_path)[1]
        assert written.read_bytes() == table

    field = build_field(scenario.function, scenario.n)
    energy = traj.invariants["energy"]
    if scenario.formalism == "hamiltonian":
        for k, (x, xdot) in enumerate(zip(traj.states, traj.derivatives)):
            assert energy[k] == field.value(x)
            expected = xdot - hamiltonian_vector_field(scenario.kind, field, x)
            assert np.array_equal(residuals[k], expected)
    else:
        op = build_structure(StructureKind(scenario.structure), scenario.n)
        sign = op.sign if scenario.convention == "derived" else printed_sign(op)
        for k, (x, xdot) in enumerate(zip(traj.states, traj.derivatives)):
            expected = field.hessian(x) @ xdot - sign * field.gradient(x)[op.index]
            assert np.array_equal(residuals[k], expected)
