"""Tests of the benchmark itself: generator, statistics, tracing, workloads.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import generate
import run
import tracing
import workloads
from paramech.scenario import parse_scenario, serialize_scenario

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


def test_generator_is_deterministic_for_a_seed():
    first = [text for _, _, text in generate.generate_sweep(7)]
    again = [text for _, _, text in generate.generate_sweep(7)]
    other = [text for _, _, text in generate.generate_sweep(8)]
    assert first == again
    assert first != other
    assert len(first) == len(generate.combinations()) * len(generate.FILE_PLAN) == 150


def test_generated_scenarios_round_trip_and_cover_the_mix():
    files = generate.generate_sweep(3)
    seen = set()
    for _, scenario, text in files:
        assert parse_scenario(serialize_scenario(scenario)) == scenario
        assert parse_scenario(text) == scenario
        assert round(scenario.t_end / scenario.dt) == generate.STEPS
        seen.add((scenario.formalism, scenario.structure, scenario.method))
        seen.add((scenario.function.kind, scenario.n))
    assert {c for c in seen if len(c) == 3} == set(generate.combinations())
    assert {("polynomial", n) for n in (1, 2, 3)} <= seen


def test_write_sweep_writes_what_it_generates(tmp_path):
    written = generate.write_sweep(5, tmp_path)
    generated = generate.generate_sweep(5)
    assert [p.read_text(encoding="utf-8") for p, _ in written] == [t for _, _, t in generated]


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(range(100), 90) == 89
    assert run.percentile(range(99), 90) is None
    assert run.percentile(range(20), 50) == 9
    assert run.percentile(range(19), 50) is None
    assert run.percentile([], 50) is None


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7].
    spans = tracing.Spans(
        names=("cli.main", "scenario.run_scenario", "fields.X.evaluate"),
        name=np.array([0, 1, 1, 2]),
        parent=np.array([-1, 0, 0, 2]),
        start=np.array([0.0, 1.0, 5.0, 6.0]),
        end=np.array([10.0, 4.0, 9.0, 7.0]),
    )
    assert spans.self_time().tolist() == [3.0, 3.0, 3.0, 1.0]
    assert spans.self_time()[spans.layer_mask("scenario")].sum() == 6.0
    assert spans.self_time().sum() == spans.duration[0]


def test_tracer_records_parents_and_skips_calls_inside_a_layer():
    tracer = tracing.Tracer()

    def inner():
        return 1

    traced_inner = tracer.wrap(inner, "exterior.Poly.__add__", boundary_only=True)

    def outer():
        return traced_inner() + nested()

    def nested():
        return traced_inner()  # called from inside exterior: no span

    nested = tracer.wrap(nested, "exterior.ext_d")
    traced_outer = tracer.wrap(outer, "fields.F.evaluate")
    assert traced_outer() == 2
    spans = tracer.spans()
    names = [spans.names[i] for i in spans.name]
    assert names == ["fields.F.evaluate", "exterior.Poly.__add__", "exterior.ext_d"]
    assert spans.parent.tolist() == [-1, 0, 0]
    assert (spans.self_time() >= 0).all()


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def _assert_clean(ops):
    assert ops and all(not op.problems for op in ops), [op.problems for op in ops]


def test_smoke_samples(tmp_path):
    files = [ROOT / "scenarios" / "falling_particle_g.scn"]
    workload = workloads.Samples(tmp_path / "samples", files)
    ops = workload.run_pass()
    _assert_clean(ops)
    assert ops[0].steps == 1000
    assert set(workload.digests()) == {
        "falling_particle_g_summary.txt",
        "falling_particle_g_trajectory.csv",
    }


def test_smoke_sweep(tmp_path):
    workload = workloads.Sweep(tmp_path / "sweep", seed=11)
    workload.files = workload.files[:: len(generate.FILE_PLAN) - 1]
    ops = workload.run_pass()
    _assert_clean(ops)
    assert [op.steps for op in ops] == [generate.STEPS] * len(workload.files)


def test_smoke_audit(tmp_path):
    _assert_clean(workloads.Audit(tmp_path / "audit", n_max=1).run_pass())


def test_checks_catch_a_missing_f_warning(tmp_path):
    workload = workloads.Sweep(tmp_path / "sweep", seed=2)
    path, scenario = next(
        (p, s)
        for p, s in workload.files
        if s.formalism == "lagrangian" and s.structure == "F"
    )
    workload.files = [(path, scenario)]
    _assert_clean(workload.run_pass())
    summary = workload.out_dir / f"{path.stem}_summary.txt"
    kept = [line for line in summary.read_text().splitlines() if not line.startswith("warning")]
    summary.write_text("\n".join(kept) + "\n")
    _, problems = workloads.check_scenario_output(path.stem, scenario, workload.out_dir)
    assert problems == [f"{path.stem}: F-printed warning missing"]


def test_a_failing_run_counts_as_a_failed_operation(tmp_path):
    workload = workloads.Sweep(tmp_path / "sweep", seed=4)
    workload.files = workload.files[:2]
    workload.files[0][0].write_text("n = 0\n", encoding="utf-8")
    ops = workload.run_pass()
    assert ops[0].problems and ops[0].problems[0].startswith("sweep_000: exit code 2: error:")
    assert not ops[1].problems


EXACT_COUNTS = (
    "integrators.steps",
    "integrators.rhs_evals_per_step",
    "integrators.solve_linear_calls",
    "fields.evaluate_calls",
    "exterior.calls",
)


def _copy_checkout(dest: Path) -> None:
    for name in ("src", "scenarios", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric_nonzero_and_exact_counts_repeat(
    tmp_path, workload
):
    # Full passes of the real workload, as the benchmark runs them: one
    # untraced pass (--seconds is tiny), then one traced pass.
    _copy_checkout(tmp_path)
    results, records = [], []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "0.001", "--trace", "1"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.splitlines()[-1]))
        record = tmp_path / ".perfbench" / f"{workload}-trace1.json"
        records.append(json.loads(record.read_text(encoding="utf-8"))["metrics"])
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
        zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
        assert not zero, f"{workload}: result-line metrics read 0: {zero}"
    exact = [name for name in records[0] if name.startswith(EXACT_COUNTS)]
    assert len(exact) == 13
    assert {k: records[0][k] for k in exact} == {k: records[1][k] for k in exact}


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
