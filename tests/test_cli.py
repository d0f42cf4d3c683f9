import re

import pytest

from paramech.cli import main

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

# Field Lipschitz constant ~2e8 at dt = 1e-3: the midpoint stage cannot contract.
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


def test_run_singular_exit_code(tmp_path, capsys):
    scenario = write(tmp_path, "degenerate.scn", LINEAR_DEGENERATE)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 3


def test_run_constant_singular_hessian_exit_code(tmp_path, capsys):
    # Degree two with Hessian diag(2, 0, 0, 0): refused before the first step.
    text = LINEAR_DEGENERATE.replace("term = 1 : 1 0 0 0", "term = 1 : 2 0 0 0")
    scenario = write(tmp_path, "degenerate.scn", text)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 3
    assert "Hessian" in capsys.readouterr().err


def test_run_nonconvergence_exit_code(tmp_path, capsys):
    scenario = write(tmp_path, "stiff.scn", STIFF)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 4
    assert "converge" in capsys.readouterr().err


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


def test_run_unstorable_sample_plan_exit_code(tmp_path, capsys):
    # 1e21 samples: the sample arrays cannot be allocated, so nothing is run.
    scenario = write(tmp_path, "huge.scn", HARMONIC.replace("t_end = 1.0", "t_end = 1e18"))
    assert main(["run", scenario, "--out", str(tmp_path)]) == 2
    assert re.search(r"cannot store \d+ samples of dimension 4", capsys.readouterr().err)
    assert not (tmp_path / "huge_summary.txt").exists()
    assert not (tmp_path / "huge_trajectory.csv").exists()


def test_run_missing_file_exit_code(tmp_path):
    assert main(["run", str(tmp_path / "absent.scn")]) == 5


def test_verify_report(tmp_path, capsys):
    report_path = tmp_path / "report.txt"
    assert main(["verify", "--n", "1", "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "identities" in out
    assert "discrepancy (documented)" in out
    assert "0 fail" in out
    assert report_path.exists()
    assert report_path.read_text().splitlines()[0].startswith("identity audit")


def test_verify_deterministic(capsys):
    assert main(["verify", "--n", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--n", "1"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_audit_el(tmp_path, capsys):
    scenario = write(tmp_path, "printed.scn", PRINTED_F)
    assert main(["audit-el", scenario]) == 0
    out = capsys.readouterr().out
    assert "derived convention" in out
    assert "printed convention" in out
    assert "deviates" in out


def test_audit_el_matching_structure(tmp_path, capsys):
    scenario = write(tmp_path, "g.scn", PRINTED_F.replace("structure = F", "structure = G"))
    assert main(["audit-el", scenario]) == 0
    assert "matches" in capsys.readouterr().out


@pytest.mark.parametrize("structure", ["F", "G"])
def test_audit_el_reports_the_run_summary_maxima(tmp_path, capsys, structure):
    scenario = write(
        tmp_path, "el.scn", PRINTED_F.replace("structure = F", f"structure = {structure}")
    )
    assert main(["run", scenario, "--out", str(tmp_path)]) == 0
    summary = dict(
        line.split(" = ", 1) for line in (tmp_path / "el_summary.txt").read_text().splitlines()
    )
    capsys.readouterr()
    assert main(["audit-el", scenario]) == 0
    out = capsys.readouterr().out
    for convention in ("derived", "printed"):
        maximum = summary[f"{convention}_residual_max"]
        assert f"{convention} convention: max |residual| = {maximum}\n" in out


def test_audit_el_rejects_hamiltonian(tmp_path, capsys):
    scenario = write(tmp_path, "h.scn", HARMONIC)
    assert main(["audit-el", scenario]) == 2


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
