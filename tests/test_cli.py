import errno
import os
import re
import stat

import pytest

from paramech import scenario as scenario_module
from paramech.cli import _build_parser, main

HARMONIC = """n = 1
formalism = hamiltonian
structure = F
function = harmonic
x0 = 1 0 0 0
t_end = 1.0
dt = 0.001
method = implicit_midpoint
"""

PRINTED_F = """n = 1
formalism = lagrangian
structure = F
function = harmonic
convention = printed
x0 = 1 0 0 0
t_end = 3.0
dt = 0.01
method = rk4
"""

LINEAR_DEGENERATE = """n = 1
formalism = lagrangian
structure = F
function = polynomial
term = 1 : 1 0 0 0
x0 = 1 0 0 0
t_end = 1.0
dt = 0.01
method = rk4
"""

# Field Lipschitz constant ~2e8 at dt = 1e-3, beyond any fixed-point stage;
# but H is quadratic, so the field is affine and each step is exact.
STIFF = """n = 1
formalism = hamiltonian
structure = F
function = polynomial
term = 100000000 : 2 0 0 0
term = 100000000 : 0 2 0 0
term = 100000000 : 0 0 2 0
term = 100000000 : 0 0 0 2
x0 = 1 0 0 0
t_end = 0.01
dt = 0.001
method = implicit_midpoint
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_success(tmp_path, capsys):
    scenario = write(tmp_path, "circle.scn", HARMONIC)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "circle" in out
    assert (tmp_path / "circle_trajectory.csv").exists()
    assert (tmp_path / "circle_summary.txt").exists()


def test_run_warns_for_printed_f(tmp_path, capsys):
    scenario = write(tmp_path, "printed.scn", PRINTED_F)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 0
    assert "warning" in capsys.readouterr().out


F_WARNING = (
    "boxed first-order system for structure F deviates from the derived flow "
    "(opposite sign on the gradient terms)"
)


@pytest.mark.parametrize("structure", ["F", "G"])
def test_run_summary_reports_both_residual_conventions(tmp_path, capsys, structure):
    scenario = write(
        tmp_path, "el.scn", PRINTED_F.replace("structure = F", f"structure = {structure}")
    )
    assert main(["run", scenario, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = (tmp_path / "el_summary.txt").read_text().splitlines()
    summary = dict(line.split(" = ", 1) for line in lines if not line.startswith("warning"))
    # The library route gives the same maxima without writing files.
    _, _, maxima = scenario_module.execute_scenario(scenario_module.load_scenario(scenario))
    for convention in ("derived", "printed"):
        key = f"{convention}_residual_max"
        assert summary[key] == scenario_module.format_float(maxima[key])
    warned = structure == "F"
    expected = [f"warning = {F_WARNING}"] if warned else []
    assert [line for line in lines if line.startswith("warning")] == expected
    assert (f"  warning: {F_WARNING}\n" in out) == warned


# The first file of the benchmark sweep of seed 7: a quartic Hamiltonian under F*.
SWEEP_QUARTIC = """n = 1
formalism = hamiltonian
structure = F
function = polynomial
term = 3/4 : 2 0 0 0
term = 1/2 : 0 2 0 0
term = 3/4 : 0 0 2 0
term = 1 : 0 0 0 2
term = 1/16 : 4 0 0 0
term = 1/16 : 0 4 0 0
term = 1/16 : 0 0 4 0
term = 3/16 : 0 0 0 4
term = 1/32 : 2 2 0 0
term = 1/32 : 0 2 0 2
x0 = -0.316823 -0.220332 0.129555 -0.573725
t_end = 0.1875
dt = 0.0078125
method = rk4
"""


def test_run_quartic_hamiltonian_residual_is_zero(tmp_path, capsys):
    scenario = write(tmp_path, "quartic.scn", SWEEP_QUARTIC)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "quartic_summary.txt").read_text().splitlines()
    assert "residual_max = 0" in summary


def test_run_parse_error_exit_code(tmp_path, capsys):
    scenario = write(tmp_path, "broken.scn", HARMONIC.replace("x0 = 1 0 0 0", "x0 = 1"))
    assert main(["run", scenario, "--out", str(tmp_path)]) == 2
    assert "x0" in capsys.readouterr().err


KINETIC_MINUS_POTENTIAL = """n = 1
formalism = lagrangian
structure = G
function = kinetic_minus_potential
masses = 1.0
g_const = 0.5
x0 = 3 4 0 0
t_end = 1.0
dt = 0.01
method = rk4
"""


@pytest.mark.parametrize(
    "line,bad",
    [
        ("x0 = 3 4 0 0", "x0 = 3 nan 0 0"),
        ("t_end = 1.0", "t_end = inf"),
        ("dt = 0.01", "dt = nan"),
        ("masses = 1.0", "masses = -inf"),
        ("g_const = 0.5", "g_const = nan"),
    ],
    ids=["x0", "t_end", "dt", "masses", "g_const"],
)
def test_run_rejects_non_finite_numbers(tmp_path, capsys, line, bad):
    scenario = write(tmp_path, "bad.scn", KINETIC_MINUS_POTENTIAL.replace(line, bad))
    assert main(["run", scenario, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "finite" in err
    assert f"[{line.split()[0]}]" in err
    assert not (tmp_path / "bad_trajectory.csv").exists()


@pytest.mark.parametrize(
    "term",
    ["term = 1e400 : 2 0 0 0", "term = 1 : 100000000000000000000 0 0 0"],
    ids=["coefficient", "exponent"],
)
def test_run_rejects_unrepresentable_terms(tmp_path, capsys, term):
    # The valid first file is not run either: every file is parsed first.
    good = write(tmp_path, "good.scn", HARMONIC)
    bad = write(tmp_path, "bad.scn", LINEAR_DEGENERATE.replace("term = 1 : 1 0 0 0", term))
    assert main(["run", good, bad, "--out", str(tmp_path)]) == 2
    assert "line 5: [term]" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.scn", "good.scn"]


@pytest.mark.parametrize("exponents", ["2 0 0 0", "4 0 0 0"], ids=["quadratic", "quartic"])
def test_run_rejects_derivative_coefficient_overflow(tmp_path, capsys, exponents):
    # 1e308 is a float, but its derivative coefficient 2e308 (4e308, 12e308) is not.
    polynomial = f"function = polynomial\nterm = 1e308 : {exponents}"
    scenario = write(tmp_path, "huge.scn", HARMONIC.replace("function = harmonic", polynomial))
    assert main(["run", scenario, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: PolyScalar(")
    assert f"*x0^{exponents[0]})" in err and "float" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.scn"]


def test_run_rejects_overflowing_potential_scale(tmp_path, capsys):
    # Both masses are finite, but sum(masses) * g_const is not.
    text = KINETIC_MINUS_POTENTIAL.replace("n = 1", "n = 2")
    text = text.replace("masses = 1.0", "masses = 1e308 1e308")
    text = text.replace("g_const = 0.5", "g_const = 1")
    text = text.replace("x0 = 3 4 0 0", "x0 = 3 4 0 0 0 1 0 0")
    scenario = write(tmp_path, "heavy.scn", text)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "finite" in err and "masses" in err and "g_const" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["heavy.scn"]


@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
@pytest.mark.parametrize("structure", ["F", "G", "H"])
def test_run_from_the_origin_without_a_potential(tmp_path, capsys, structure, method):
    # g_const = 0 leaves no potential, so nothing is singular at x = 0: the
    # Lagrangian T alone keeps the particle at rest.
    text = KINETIC_MINUS_POTENTIAL.replace("structure = G", f"structure = {structure}")
    text = text.replace("g_const = 0.5", "g_const = 0")
    text = text.replace("x0 = 3 4 0 0", "x0 = 0 0 0 0")
    text = text.replace("method = rk4", f"method = {method}")
    scenario = write(tmp_path, "rest.scn", text)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    summary = (tmp_path / "rest_summary.txt").read_text().splitlines()
    assert "final_state = 0 0 0 0" in summary


def test_run_singular_exit_code(tmp_path, capsys):
    scenario = write(tmp_path, "degenerate.scn", LINEAR_DEGENERATE)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 3


def test_run_constant_singular_hessian_exit_code(tmp_path, capsys):
    # Degree two with Hessian diag(2, 0, 0, 0): refused before the first step.
    text = LINEAR_DEGENERATE.replace("term = 1 : 1 0 0 0", "term = 1 : 2 0 0 0")
    scenario = write(tmp_path, "degenerate.scn", text)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 3
    assert "Hessian" in capsys.readouterr().err


# The quartic term makes the field non-affine, and the squares give it a
# Lipschitz constant ~2200 at dt = 1e-3: the midpoint stage cannot contract.
STIFF_QUARTIC = """n = 1
formalism = hamiltonian
structure = F
function = polynomial
term = 1100 : 2 0 0 0
term = 1100 : 0 2 0 0
term = 1100 : 0 0 2 0
term = 1100 : 0 0 0 2
term = 1 : 4 0 0 0
x0 = 0.01 0 0 0
t_end = 0.01
dt = 0.001
method = implicit_midpoint
"""


def test_run_nonconvergence_exit_code(tmp_path, capsys):
    scenario = write(tmp_path, "stiff.scn", STIFF_QUARTIC)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 4
    assert "converge" in capsys.readouterr().err


def test_run_stiff_quadratic_keeps_energy_to_roundoff(tmp_path, capsys):
    # The exact affine midpoint step is the Cayley transform of dt S Q.
    scenario = write(tmp_path, "stiff.scn", STIFF)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "stiff_summary.txt").read_text(encoding="utf-8")
    values = dict(line.split(" = ", 1) for line in summary.splitlines())
    assert float(values["energy_initial"]) == 1e8
    assert float(values["energy_drift_max"]) <= 1e-12 * float(values["energy_initial"])


def test_run_singular_affine_stage_exit_code(tmp_path, capsys):
    # A quadratic G Lagrangian has the field Jacobian A, with A^2 = I, so at
    # dt = 2 the midpoint stage matrix I - A is singular.
    text = PRINTED_F.replace("structure = F", "structure = G").replace("rk4", "implicit_midpoint")
    text = text.replace("dt = 0.01", "dt = 2")
    scenario = write(tmp_path, "singular.scn", text)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "stage matrix" in err and "stepping from t = 0)" in err
    assert "Traceback" not in err


# rk4 overflows within its first step; the implicit stages diverge too.
BLOW_UP = """n = 1
formalism = hamiltonian
structure = H
function = polynomial
term = 1 : 6 0 0 0
term = 1 : 0 0 0 6
x0 = 30 0 0 30
t_end = 1
dt = 0.1
method = rk4
"""


@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint", "symplectic_euler"])
def test_run_non_finite_state_exit_code(tmp_path, capsys, method):
    scenario = write(tmp_path, "blow.scn", BLOW_UP.replace("rk4", method))
    assert main(["run", scenario, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "non-finite" in err
    assert "stepping from t = " in err
    assert not (tmp_path / "blow_summary.txt").exists()


def test_run_long_unstable_affine_run_exit_code(tmp_path, capsys):
    # rk4 at dt = 3 amplifies the harmonic rotation ~1.505-fold per step; the
    # states overflow near step 1736, after the first block of 1024 steps.
    text = HARMONIC.replace("t_end = 1.0", "t_end = 6000").replace("dt = 0.001", "dt = 3")
    scenario = write(tmp_path, "unstable.scn", text.replace("implicit_midpoint", "rk4"))
    assert main(["run", scenario, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "rk4 step diverged to a non-finite state" in err
    t = float(re.search(r"stepping from t = ([0-9.e+]+)\)", err).group(1))
    assert 1024 * 3 < t < 2048 * 3
    assert not (tmp_path / "unstable_summary.txt").exists()


# A G Lagrangian whose Hessian entry 1560 x_1^38 overflows for large x_1.
STEEP_G = """n = 1
formalism = lagrangian
structure = G
function = polynomial
term = 1 : 40 0 0 0
term = 1 : 0 2 0 0
term = 1 : 0 0 2 0
term = 1 : 0 0 0 2
x0 = 1e300 0 0 0
t_end = 1
dt = 0.1
method = rk4
"""


@pytest.mark.parametrize(
    "x0, stepping",
    [("1e300 0 0 0", False), ("0.5 100 100 100", True)],
    ids=["at-the-start", "inside-a-step"],
)
def test_run_overflowing_hessian_exit_code(tmp_path, capsys, x0, stepping):
    # A non-finite Hessian is an overflow, not a singular system: exit 4, and
    # inside a step the message names the time it stepped from.
    scenario = write(tmp_path, "steep.scn", STEEP_G.replace("1e300 0 0 0", x0))
    assert main(["run", scenario, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: Hessian: the matrix is not finite (an overflow)")
    assert ("(while stepping from t = 0)" in err) == stepping
    assert sorted(p.name for p in tmp_path.iterdir()) == ["steep.scn"]


def test_run_ill_conditioned_finite_hessian_stays_singular(tmp_path, capsys):
    text = STEEP_G.replace("1e300 0 0 0", "1e7 0 0 0").replace("t_end = 1", "t_end = 5")
    scenario = write(tmp_path, "steep.scn", text)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 3
    assert "Hessian: condition estimate 7.8e+268 exceeds 1e12" in capsys.readouterr().err


def test_run_overflowing_energy_is_summarised_without_warnings(tmp_path, capsys):
    # The states stay finite, but H = |x|^2 / 2 overflows to inf at every
    # sample, so the drift is inf - inf and the endpoint distance overflows.
    text = (
        HARMONIC.replace("x0 = 1 0 0 0", "x0 = 1e308 1e308 0 0")
        .replace("dt = 0.001", "dt = 0.1")
        .replace("implicit_midpoint", "rk4")
    )
    scenario = write(tmp_path, "huge_energy.scn", text)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    summary = (tmp_path / "huge_energy_summary.txt").read_text().splitlines()
    assert "energy_initial = inf" in summary
    assert "energy_drift_max = nan" in summary
    assert "endpoint_distance_from_start = inf" in summary


def test_run_unstorable_sample_plan_exit_code(tmp_path, capsys):
    # 1e21 samples: the sample arrays cannot be allocated, so nothing is run.
    scenario = write(tmp_path, "huge.scn", HARMONIC.replace("t_end = 1.0", "t_end = 1e18"))
    assert main(["run", scenario, "--out", str(tmp_path)]) == 2
    assert re.search(r"cannot store \d+ samples of dimension 4", capsys.readouterr().err)
    assert not (tmp_path / "huge_summary.txt").exists()
    assert not (tmp_path / "huge_trajectory.csv").exists()


def test_run_infinite_step_count_exit_code(tmp_path, capsys):
    # t_end / dt = 1 / 5e-324 is inf: a validation error, not a traceback.
    scenario = write(tmp_path, "tiny.scn", HARMONIC.replace("dt = 0.001", "dt = 5e-324"))
    assert main(["run", scenario, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "t_end / dt is not finite" in err and "Traceback" not in err
    assert not (tmp_path / "tiny_summary.txt").exists()


def test_run_missing_file_exit_code(tmp_path):
    assert main(["run", str(tmp_path / "absent.scn")]) == 5


def assert_one_error_line(capsys, *ending):
    """The captured stderr is one error line, without a traceback, ending as given."""
    err = capsys.readouterr().err
    [line] = err.splitlines()
    assert line.startswith("error: ") and line.endswith("".join(ending))
    assert "Traceback" not in err
    return line


def test_run_names_the_file_of_a_parse_error(tmp_path, capsys):
    good = write(tmp_path, "good.scn", HARMONIC)
    broken = write(tmp_path, "broken.scn", HARMONIC.replace("structure = F\n", ""))
    assert main(["run", good, broken, "--out", str(tmp_path)]) == 2
    line = assert_one_error_line(capsys, f" (in {broken})")
    assert line == f"error: [structure] missing required key 'structure' (in {broken})"
    # Every file is parsed before anything runs.
    assert not (tmp_path / "good_trajectory.csv").exists()


def test_run_names_the_file_of_a_singular_hessian(tmp_path, capsys):
    good = write(tmp_path, "good.scn", HARMONIC)
    degenerate = write(tmp_path, "degenerate.scn", LINEAR_DEGENERATE)
    assert main(["run", good, degenerate, "--out", str(tmp_path)]) == 3
    line = assert_one_error_line(capsys, f" (in {degenerate})")
    assert "Hessian" in line and good not in line


def test_run_out_of_memory_exit_code(tmp_path, capsys, monkeypatch):
    # An allocation failure is a run too large for this machine: exit 2
    # with one line, not a traceback.
    def no_memory(scenario):
        raise MemoryError()

    monkeypatch.setattr(scenario_module, "execute_scenario", no_memory)
    path = write(tmp_path, "h.scn", HARMONIC)
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    line = assert_one_error_line(capsys, f" (in {path})")
    assert line == f"error: MemoryError (in {path})"
    assert not (tmp_path / "h_summary.txt").exists()


def files_under(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def assert_run_refused(tmp_path, capsys, argv, *named):
    # Exit 2 with one error line naming the scenario files and the path,
    # and nothing written: the inputs stay as they were.
    before = files_under(tmp_path)
    assert main(["run", *argv]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and all(name in line for name in named)
    assert captured.out == ""
    assert files_under(tmp_path) == before


def test_run_refuses_two_files_with_one_stem(tmp_path, capsys):
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
    first = write(tmp_path, "a/x.scn", HARMONIC)
    second = write(tmp_path, "b/x.scn", HARMONIC)
    out = tmp_path / "o"
    argv = [first, second, "--out", str(out)]
    assert_run_refused(tmp_path, capsys, argv, first, second, str(out / "x_trajectory.csv"))
    assert not out.exists()


def test_run_refuses_a_table_and_summary_on_one_path(tmp_path, capsys):
    text = HARMONIC + "out_trajectory = same.txt\nout_summary = same.txt\n"
    scenario = write(tmp_path, "same.scn", text)
    argv = [scenario, "--out", str(tmp_path)]
    assert_run_refused(tmp_path, capsys, argv, scenario, str(tmp_path / "same.txt"))


def test_run_refuses_to_overwrite_its_scenario_file(tmp_path, capsys):
    (tmp_path / "ow").mkdir()
    scenario = write(tmp_path, "ow/self.scn", HARMONIC + "out_summary = self.scn\n")
    argv = [scenario, "--out", str(tmp_path / "ow")]
    assert_run_refused(tmp_path, capsys, argv, scenario)


def test_verify_report(tmp_path, capsys):
    # The report's directory does not exist yet: the writer creates it.
    report_path = tmp_path / "reports" / "report.txt"
    assert main(["verify", "--n", "1", "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "identities" in out
    assert "discrepancy (documented)" in out
    assert "0 fail" in out
    assert report_path.read_text().splitlines()[0].startswith("identity audit")
    assert report_path.read_text() == out
    assert list(report_path.parent.iterdir()) == [report_path]


def assert_io_error_names(capsys, target):
    """One error line naming the target, not the temp file, and no temp file left."""
    line = assert_one_error_line(capsys)
    assert f"'{target}'" in line and ".tmp" not in line
    assert list(target.parent.glob("*.tmp")) == []


def test_run_into_a_directory_names_the_target(tmp_path, capsys):
    scenario = write(tmp_path, "d.scn", HARMONIC + "out_trajectory = dirout\n")
    target = tmp_path / "od" / "dirout"
    target.mkdir(parents=True)
    assert main(["run", scenario, "--out", str(tmp_path / "od")]) == 5
    assert_io_error_names(capsys, target)


def test_verify_report_into_a_directory_names_the_target(tmp_path, capsys):
    target = tmp_path / "reports"
    target.mkdir()
    assert main(["verify", "--n", "1", "--report", str(target)]) == 5
    assert_io_error_names(capsys, target)


def test_unwritable_temp_file_names_the_target(tmp_path, capsys, monkeypatch):
    # Root ignores permission bits, so the refusal is patched in.
    real_open = os.open

    def refuse_temp_files(path, flags, *args, **kwargs):
        if str(path).endswith(".tmp"):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refuse_temp_files)
    scenario = write(tmp_path, "circle.scn", HARMONIC)
    assert main(["run", scenario, "--out", str(tmp_path / "out")]) == 5
    assert_io_error_names(capsys, tmp_path / "out" / "circle_trajectory.csv")


@pytest.mark.parametrize(
    "umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
)
def test_output_files_take_the_umask_mode(tmp_path, capsys, umask, mode):
    scenario = write(tmp_path, "circle.scn", HARMONIC)
    old_umask = os.umask(umask)
    try:
        assert main(["run", scenario, "--out", str(tmp_path / "out")]) == 0
        assert main(["verify", "--n", "1", "--report", str(tmp_path / "report.txt")]) == 0
    finally:
        os.umask(old_umask)
    written = [
        tmp_path / "out" / "circle_trajectory.csv",
        tmp_path / "out" / "circle_summary.txt",
        tmp_path / "report.txt",
    ]
    assert [stat.S_IMODE(path.stat().st_mode) for path in written] == [mode] * 3


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys):
    # run, verify and a bad argument in one process give what each gives
    # from a freshly built parser.
    argvs = [
        ["run", write(tmp_path, "h.scn", HARMONIC), "--out", str(tmp_path)],
        ["verify", "--n", "1"],
        ["run"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    fresh = []
    for argv in argvs:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    in_sequence = [call(argv) for argv in argvs]
    assert [code for code, _, _ in fresh] == [0, 0, 2]
    assert in_sequence == fresh
    assert _build_parser() is _build_parser()


def test_verify_deterministic(capsys):
    assert main(["verify", "--n", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--n", "1"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_plotdata_extracts_columns(tmp_path, capsys):
    scenario = write(tmp_path, "circle.scn", HARMONIC)
    main(["run", scenario, "--out", str(tmp_path)])
    capsys.readouterr()
    table = tmp_path / "circle_trajectory.csv"
    assert main(["plotdata", str(table), "--cols", "t,x_1,x_2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,x_1,x_2"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0


def test_plotdata_unknown_column(tmp_path, capsys):
    scenario = write(tmp_path, "circle.scn", HARMONIC)
    main(["run", scenario, "--out", str(tmp_path)])
    capsys.readouterr()
    table = tmp_path / "circle_trajectory.csv"
    assert main(["plotdata", str(table), "--cols", "t,bogus"]) == 2


def test_plotdata_missing_file(tmp_path):
    assert main(["plotdata", str(tmp_path / "none.csv"), "--cols", "t"]) == 5


def test_plotdata_short_row(tmp_path, capsys):
    table = tmp_path / "short.csv"
    table.write_text("t,x_1,x_2\n0,1\n")
    assert main(["plotdata", str(table), "--cols", "t,x_2"]) == 2
    captured = capsys.readouterr()
    assert "line 2: [trajectory]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, cols, message",
    [
        ("t,x_1\n0,1\n", " , ", "[cols] no columns requested"),
        ("", "t", "[trajectory] trajectory file is empty"),
    ],
    ids=["no-columns", "empty-file"],
)
def test_plotdata_rejections(tmp_path, capsys, text, cols, message):
    table = tmp_path / "table.csv"
    table.write_text(text)
    assert main(["plotdata", str(table), "--cols", cols]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
