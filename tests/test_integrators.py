import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import paramech.hamiltonian as hamiltonian
import paramech.integrators as integrators
import paramech.lagrangian as lagrangian
from paramech.errors import ConvergenceError, SingularSystemError
from paramech.fields import kinetic_minus_potential_field
from paramech.hamiltonian import canonical_two_form
from paramech.integrators import (
    METHODS,
    StepperConfig,
    Trajectory,
    integrate_field,
    solve_linear,
    step_explicit,
)
from paramech.lagrangian import canonical_rhs
from paramech.scenario import build_field, execute_scenario, load_scenario
from paramech.structures import G, build_structure

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def rotation_field(x):
    return np.array([-x[1], x[0], 0.0, 0.0])


ROTATION_MASK = np.array([True, False, True, False])


def exact_rotation(x0, t):
    c, s = np.cos(t), np.sin(t)
    return np.array(
        [c * x0[0] - s * x0[1], s * x0[0] + c * x0[1], x0[2], x0[3]]
    )


@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint", "symplectic_euler"])
def test_zero_field_fixed_point(method):
    cfg = StepperConfig(method=method, dt=0.1, position_mask=ROTATION_MASK)
    x = np.array([1.0, 2.0, -3.0, 0.5])
    assert np.array_equal(step_explicit(lambda y: np.zeros(4), x, cfg), x)


def test_rk4_rotation_period_return():
    cfg = StepperConfig(method="rk4", dt=1e-3)
    traj = integrate_field(rotation_field, [1.0, 0.0, 0.0, 0.0], 2 * np.pi, cfg)
    assert np.linalg.norm(traj.states[-1] - traj.states[0]) <= 1e-6


@pytest.mark.parametrize(
    "method,order",
    [("rk4", 4.0), ("implicit_midpoint", 2.0), ("symplectic_euler", 1.0)],
)
def test_empirical_convergence_order(method, order):
    # t_end stays off the full period: there the leading symplectic-Euler
    # error cancels and the measured slope would look second order.
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    t_end = 1.25
    errors = []
    for dt in (0.02, 0.01, 0.005):
        cfg = StepperConfig(method=method, dt=dt, position_mask=ROTATION_MASK)
        traj = integrate_field(rotation_field, x0, t_end, cfg)
        errors.append(np.linalg.norm(traj.states[-1] - exact_rotation(x0, t_end)))
    measured = [np.log2(errors[k] / errors[k + 1]) for k in range(2)]
    for slope in measured:
        assert abs(slope - order) <= 0.2


def test_halving_dt_error_ratios():
    # rk4 error shrinks ~16x per halving, midpoint ~4x.
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    for method, ratio in (("rk4", 16.0), ("implicit_midpoint", 4.0)):
        errs = []
        for dt in (0.02, 0.01):
            cfg = StepperConfig(method=method, dt=dt)
            traj = integrate_field(rotation_field, x0, 2 * np.pi, cfg)
            errs.append(np.linalg.norm(traj.states[-1] - exact_rotation(x0, 2 * np.pi)))
        assert errs[0] / errs[1] == pytest.approx(ratio, rel=0.2)


def test_mass_singularity_mid_run_reports_time():
    # x_1 grows linearly and the mass matrix degenerates once it passes 1/2.
    def mass(x):
        if x[0] >= 0.5:
            return np.diag([0.0, 1.0, 1.0, 1.0])
        return np.eye(4)

    def field(x):
        return solve_linear(mass(x), np.array([1.0, 0.0, 0.0, 0.0]), error="mass matrix")

    cfg = StepperConfig(method="rk4", dt=0.1)
    with pytest.raises(SingularSystemError, match="stepping from t"):
        integrate_field(field, np.zeros(4), 2.0, cfg)


class Pole(SingularSystemError):
    """An error whose constructor takes the point, not a message."""

    def __init__(self, where):
        self.where = where
        super().__init__(f"pole at {where}")


def test_caught_error_keeps_its_type_and_attributes():
    # x_1 grows linearly and the field has a pole once it reaches 1/2: the
    # run raises that same error, with the time of its step appended.
    def field(x):
        if x[0] >= 0.5:
            raise Pole(float(x[0]))
        return np.array([1.0, 0.0, 0.0, 0.0])

    cfg = StepperConfig(method="rk4", dt=0.1)
    with pytest.raises(Pole) as excinfo:
        integrate_field(field, np.zeros(4), 2.0, cfg)
    assert str(excinfo.value) == "pole at 0.5 (while stepping from t = 0.4)"
    assert excinfo.value.where == 0.5


def test_plain_value_error_mid_run_propagates_unchanged():
    error = ValueError("outside the chart")

    def field(x):
        if x[0] >= 0.5:
            raise error
        return np.array([1.0, 0.0, 0.0, 0.0])

    cfg = StepperConfig(method="rk4", dt=0.1)
    with pytest.raises(ValueError) as excinfo:
        integrate_field(field, np.zeros(4), 2.0, cfg)
    assert excinfo.value is error and str(error) == "outside the chart"


def test_rk4_non_finite_state_reports_time():
    # x_1 grows linearly and the field overflows once it reaches 1/2, which
    # the last rk4 stage of the step from t = 0.4 evaluates.
    def field(x):
        return np.array([1.0 if x[0] < 0.5 else np.inf, 0.0, 0.0, 0.0])

    cfg = StepperConfig(method="rk4", dt=0.1)
    with pytest.raises(ConvergenceError, match="non-finite.*stepping from t = 0.4"):
        integrate_field(field, np.zeros(4), 2.0, cfg)


def test_blown_up_stage_warns_nothing_for_a_direct_caller():
    # The first guess and the first iterate are both infinite, so their
    # difference is inf - inf; the stage still reports iteration 1, silently.
    def blow_up(y):
        return np.full_like(y, np.inf)

    cfg = StepperConfig(method="implicit_midpoint", dt=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="non-finite state at iteration 1") as excinfo:
            step_explicit(blow_up, np.ones(4), cfg)
    assert excinfo.value.iterations == 1


def test_overflowing_squared_step_is_not_a_non_finite_state():
    # Finite iterates 2e199 apart: the squared step overflows, the iterates do not.
    def flip(y):
        return np.where(y > 0, -1e202, 1e202)

    cfg = StepperConfig(method="implicit_midpoint", dt=1e-3)
    with pytest.raises(ConvergenceError, match="did not converge after 50 iterations"):
        step_explicit(flip, np.zeros(4), cfg)


@pytest.mark.parametrize("method", METHODS)
def test_state_whose_square_overflows_is_still_finite(method):
    cfg = StepperConfig(method=method, dt=0.1, position_mask=ROTATION_MASK)
    traj = integrate_field(lambda x: np.full(4, 1e200), np.zeros(4), 0.3, cfg)
    assert np.isfinite(traj.states).all()
    assert traj.states[-1, 0] > 1e199


@pytest.mark.parametrize("method", ["implicit_midpoint", "symplectic_euler"])
def test_midpoint_nonconvergence_reports_iterations(method):
    stiff = lambda y: 1e8 * y
    cfg = StepperConfig(method=method, dt=1e-3, position_mask=np.array([True, False]))
    with pytest.raises(ConvergenceError, match="did not converge after 50 iterations") as excinfo:
        step_explicit(stiff, np.ones(2), cfg)
    assert excinfo.value.iterations == 50


@pytest.mark.parametrize("method, rate", [("implicit_midpoint", 2.0), ("symplectic_euler", 1.0)])
def test_singular_affine_stage_is_a_convergence_error(method, rate):
    # J = (2/dt) I makes I - dt/2 J zero; J = (1/dt) I zeroes the momentum
    # rows of symplectic Euler's I - dt Q J.  No iteration can solve either.
    dt = 1e-3
    jacobian = (rate / dt) * np.eye(2)
    cfg = StepperConfig(
        method=method, dt=dt, jacobian=jacobian, position_mask=np.array([True, False])
    )
    with pytest.raises(ConvergenceError, match=r"stage matrix.*t = 0\)$") as excinfo:
        integrate_field(lambda x: jacobian @ x, np.ones(2), 0.01, cfg)
    assert excinfo.value.iterations == 0
    assert "cannot converge" in str(excinfo.value)


def random_affine_field(rng, dim):
    offset, jacobian = rng.standard_normal(dim), rng.standard_normal((dim, dim))
    return (lambda x: offset + jacobian @ x), jacobian


def assert_close_per_row(actual, expected):
    scale = 1e-12 * (1.0 + np.linalg.norm(expected, axis=-1))
    assert np.all(np.linalg.norm(actual - expected, axis=-1) <= scale)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("method", METHODS)
def test_affine_step_agrees_with_the_staged_step(method, n):
    rng = np.random.default_rng(40 + n)
    dim = 4 * n
    field, jacobian = random_affine_field(rng, dim)
    staged = StepperConfig(method=method, dt=1e-3, position_mask=np.arange(dim) < 2 * n)
    affine = replace(staged, jacobian=jacobian)
    assert staged.increment is None and affine.increment.shape == (dim, dim)
    for x in rng.standard_normal((5, dim)):
        assert_close_per_row(step_explicit(field, x, affine), step_explicit(field, x, staged))
    # Ten full steps and a shortened eleventh, which needs its own increment.
    x0 = rng.standard_normal(dim)
    exact = integrate_field(field, x0, 0.0105, affine)
    reference = integrate_field(field, x0, 0.0105, staged)
    assert len(exact) == 12 and exact.times[-1] == 0.0105
    assert np.array_equal(exact.times, reference.times)
    assert_close_per_row(exact.states, reference.states)


def test_zero_t_end_returns_initial_sample():
    cfg = StepperConfig(method="rk4", dt=0.1)
    traj = integrate_field(rotation_field, [1.0, 0.0, 0.0, 0.0], 0.0, cfg)
    assert len(traj) == 1
    assert np.array_equal(traj.states[0], [1.0, 0.0, 0.0, 0.0])


def test_partial_final_step_lands_on_t_end():
    cfg = StepperConfig(method="rk4", dt=0.001)
    traj = integrate_field(rotation_field, [1.0, 0.0, 0.0, 0.0], 0.0015, cfg)
    assert traj.times[-1] == pytest.approx(0.0015, abs=1e-15)
    assert len(traj) == 3


def test_deterministic_trajectories():
    cfg = StepperConfig(method="implicit_midpoint", dt=0.01)
    a = integrate_field(rotation_field, [1.0, 0.0, 0.0, 0.0], 1.0, cfg)
    b = integrate_field(rotation_field, [1.0, 0.0, 0.0, 0.0], 1.0, cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.derivatives, b.derivatives)


# The Jacobian of rotation_field.
ROTATION_4 = np.zeros((4, 4))
ROTATION_4[0, 1], ROTATION_4[1, 0] = -1.0, 1.0


def rowwise_rotation_field(x):
    return integrators._matvec(ROTATION_4, x)


def spy_on_blocks(monkeypatch):
    """What each call of ``_map_first_block`` returned (True: a block map,
    False: None, so no block is mapped), and the state each step starts from:
    the samples that no step produces are mapped."""
    plain_map, plain_step = integrators._map_first_block, integrators.step_explicit
    derived, starts = [], []

    def map_first_block(f, states, cfg):
        block_map = plain_map(f, states, cfg)
        derived.append(block_map is not None)
        return block_map

    def step(f, x, cfg):
        starts.append(np.array(x))
        return plain_step(f, x, cfg)

    monkeypatch.setattr(integrators, "_map_first_block", map_first_block)
    monkeypatch.setattr(integrators, "step_explicit", step)
    return derived, starts


@pytest.mark.parametrize(
    "field, t_end, cfg, derived, steps",
    [
        (rotation_field, 1.0, StepperConfig(method="rk4", dt=0.01), [], 100),
        # 1234 full steps of an affine rowwise run: both blocks are mapped,
        # and only the shortened last step is stepped.
        (
            rowwise_rotation_field,
            12.345,
            StepperConfig(dt=0.01, jacobian=ROTATION_4, rowwise=True),
            [True],
            1,
        ),
    ],
    ids=["rk4", "affine-block-map"],
)
def test_invariant_series_recorded(monkeypatch, field, t_end, cfg, derived, steps):
    seen = []
    maps, starts = spy_on_blocks(monkeypatch)

    def radius(x, xdot):
        seen.append((x.copy(), xdot.copy()))
        return float(np.hypot(x[0], x[1]))

    x0 = [1.0, 0.0, 0.0, 0.0]
    traj = integrate_field(field, x0, t_end, cfg, {"radius": radius})
    assert maps == derived and len(starts) == steps
    assert len(traj.invariants["radius"]) == len(traj)
    assert np.allclose(traj.invariants["radius"], 1.0, atol=1e-9)
    # The hook receives each sample and its recorded derivative.
    assert np.array_equal([x for x, _ in seen], traj.states)
    assert np.array_equal([xdot for _, xdot in seen], traj.derivatives)
    # The hook changes no sample.
    assert np.array_equal(traj.states, integrate_field(field, x0, t_end, cfg).states)


def test_symplectic_euler_requires_mask():
    cfg = StepperConfig(method="symplectic_euler", dt=0.01)
    with pytest.raises(ValueError):
        step_explicit(rotation_field, np.ones(4), cfg)
    affine = replace(cfg, jacobian=np.eye(4))
    with pytest.raises(ValueError, match="position mask"):
        step_explicit(rotation_field, np.ones(4), affine)


@pytest.mark.parametrize("mask", [[True], np.ones(8, dtype=bool), np.ones((2, 2), dtype=bool)])
def test_symplectic_euler_rejects_a_mask_of_the_wrong_shape(mask):
    cfg = StepperConfig(method="symplectic_euler", dt=0.1, position_mask=mask)
    message = f"position mask has shape {re.escape(str(np.shape(mask)))}.* dimension is 4"
    for config in (cfg, replace(cfg, jacobian=np.eye(4))):
        with pytest.raises(ValueError, match=message):
            step_explicit(rotation_field, np.ones(4), config)


def test_configs_holding_arrays_compare_and_hash_by_identity():
    cfg = StepperConfig(jacobian=np.eye(2), position_mask=np.array([True, False]))
    assert cfg == cfg
    assert cfg != replace(cfg)
    assert len({cfg, replace(cfg)}) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(method="euler", dt=0.1)
    with pytest.raises(ValueError):
        StepperConfig(method="rk4", dt=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            StepperConfig(method="rk4", dt=bad)
    for jacobian in (np.ones((2, 3)), np.ones(4)):
        with pytest.raises(ValueError, match="square"):
            StepperConfig(method="rk4", dt=0.1, jacobian=jacobian)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((1, 4)), np.zeros((2, 4)), {})
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 4)), np.zeros((2, 4)), {})


def pendulum_field(x):
    return np.array([x[1], -np.sin(x[0]), x[3], -x[2] ** 3])


PENDULUM_MASK = np.array([True, False, True, False])


# The increment of the quartic through the last five states, oldest first.
EXTRAPOLATION = np.array([1.0, -5.0, 10.0, -10.0, 4.0])


def reference_steps(field, x0, steps, cfg):
    """Plain steps, each re-evaluating f at its start point, except that a
    midpoint step from step 5 on is handed the extrapolated start: f(x)
    answers with the increment over dt."""
    states = [np.asarray(x0, dtype=float)]
    for k in range(1, steps + 1):
        x, f = states[-1], field
        if cfg.method == "implicit_midpoint" and k >= 5:
            start = (EXTRAPOLATION @ np.array(states[k - 5 : k])) / cfg.dt

            def f(y, x=x, start=start):
                return start if y is x else field(y)

        states.append(step_explicit(f, x, cfg))
    return np.asarray(states)


@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint", "symplectic_euler"])
def test_derivative_reuse_is_bitwise_neutral(method):
    cfg = StepperConfig(method=method, dt=0.01, position_mask=PENDULUM_MASK)
    x0 = np.array([1.2, 0.0, 0.5, -0.3])
    calls = []

    def counted(y):
        calls.append(1)
        return pendulum_field(y)

    traj = integrate_field(counted, x0, 0.5, cfg)
    states = reference_steps(pendulum_field, x0, 50, cfg)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.derivatives, [pendulum_field(x) for x in states])
    if method == "rk4":
        assert len(calls) == 1 + 4 * 50


def test_midpoint_warm_up_and_shortened_last_step_start_from_euler():
    # Ten full steps and a shortened eleventh: steps 1-4 and the last one are
    # the plain step; steps 5-10 start from the extrapolation.
    cfg = StepperConfig(method="implicit_midpoint", dt=0.01)
    x0 = np.array([1.2, 0.0, 0.5, -0.3])
    traj = integrate_field(pendulum_field, x0, 0.105, cfg)
    assert len(traj) == 12
    plain = [step_explicit(pendulum_field, x, cfg) for x in traj.states[:-2]]
    for k in range(1, 5):
        assert np.array_equal(traj.states[k], plain[k - 1])
    assert not all(np.array_equal(traj.states[k], plain[k - 1]) for k in range(5, 11))
    last = replace(cfg, dt=0.105 - 10 * 0.01)
    assert np.array_equal(traj.states[-1], step_explicit(pendulum_field, traj.states[-2], last))


def quartic_hstar_field(x):
    # S grad H under H* for H = |x|^2 / 2 + (x_1^4 + x_4^4) / 4.
    g = x + np.array([x[0] ** 3, 0.0, 0.0, x[3] ** 3])
    return np.array([-g[3], -g[2], g[1], g[0]])


def test_extrapolated_start_takes_two_evaluations_per_step():
    cfg = StepperConfig(method="implicit_midpoint", dt=1e-3)
    x0 = np.array([1.0, 0.0, 0.0, 0.5])
    counts = []
    for t_end in (4e-3, 1.0):
        calls = []

        def counted(y):
            calls.append(1)
            return quartic_hstar_field(y)

        integrate_field(counted, x0, t_end, cfg)
        counts.append(len(calls))
    # One stage iteration and the recorded derivative per step after the warm-up.
    assert (counts[1] - counts[0]) / 996 <= 2.1


def test_stage_failure_at_an_extrapolated_step_reports_time():
    # x_1 grows with unit speed; the field turns stiff once x_1 passes 0.0065,
    # in the stage of the step from t = 0.006, which starts from the extrapolation.
    def field(x):
        return np.array([1.0, 0.0, 0.0, 0.0]) if x[0] < 0.0065 else 1e8 * x

    cfg = StepperConfig(method="implicit_midpoint", dt=1e-3)
    with pytest.raises(ConvergenceError, match="stepping from t = 0.006\\)") as excinfo:
        integrate_field(field, np.zeros(4), 0.02, cfg)
    assert "did not converge" in str(excinfo.value)
    assert excinfo.value.iterations == integrators._STAGE_MAX_ITERS


@pytest.mark.parametrize("affine", [False, True])
@pytest.mark.parametrize("method", METHODS)
def test_integrate_field_calls_step_explicit_once_per_step(monkeypatch, method, affine):
    # Span tracing wraps the module-level step_explicit as (f, x, cfg) and
    # counts one step per call; a shortened last step is one call as well.
    plain = integrators.step_explicit
    seen = []

    def step_explicit(f, x, cfg):
        seen.append(cfg.dt)
        return plain(f, x, cfg)

    monkeypatch.setattr(integrators, "step_explicit", step_explicit)
    jacobian = np.array([[0.0, -1.0], [1.0, 0.0]])
    cfg = StepperConfig(
        method=method,
        dt=0.01,
        position_mask=np.array([True, False]),
        jacobian=jacobian if affine else None,
    )
    traj = integrate_field(lambda x: jacobian @ x, np.array([1.0, 0.0]), 0.105, cfg)
    assert len(seen) == len(traj) - 1 == 11
    assert seen[:10] == [0.01] * 10 and seen[10] == 0.105 - 10 * 0.01


def test_time_grid_is_k_dt_and_ends_on_t_end():
    # 0.0029999995 is 5e-7 dt short of 3 dt: two full steps and a shortened
    # one, not three full steps that overshoot the last sample's time.
    cases = ((2 * np.pi, 1e-3, 6285), (0.3, 0.1, 4), (1.0, 0.001, 1001), (0.0029999995, 1e-3, 4))
    for t_end, dt, count in cases:
        cfg = StepperConfig(method="rk4", dt=dt)
        traj = integrate_field(rotation_field, [1.0, 0.0, 0.0, 0.0], t_end, cfg)
        assert len(traj) == count
        assert all(traj.times[k] == k * dt for k in range(count - 1))
        assert traj.times[-1] == t_end
        clock = integrate_field(np.ones_like, [0.0], t_end, cfg)
        assert clock.states[-1, 0] == pytest.approx(t_end, rel=1e-12, abs=0)


def test_non_finite_t_end_rejected():
    cfg = StepperConfig(method="rk4", dt=0.1)
    for t_end in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            integrate_field(rotation_field, [1.0, 0.0, 0.0, 0.0], t_end, cfg)


def test_infinite_step_count_is_a_value_error():
    # 1 / 5e-324 overflows to inf, which has no floor.
    cfg = StepperConfig(method="rk4", dt=5e-324)
    with pytest.raises(ValueError, match="t_end / dt is not finite"):
        integrate_field(rotation_field, [1.0, 0.0, 0.0, 0.0], 1.0, cfg)


def test_unstorable_sample_plan_is_a_value_error(monkeypatch):
    calls = []

    def field(x):
        calls.append(1)
        return rotation_field(x)

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(np, "empty", refuse)
    cfg = StepperConfig(method="rk4", dt=1e-3)
    with pytest.raises(ValueError, match="cannot store 1000001 samples of dimension 4"):
        integrate_field(field, [1.0, 0.0, 0.0, 0.0], 1e3, cfg)
    assert not calls  # the samples are allocated before the first evaluation


def test_solve_linear_guard():
    matrix = np.array([[4.0, 1.0], [2.0, 3.0]])
    assert np.allclose(matrix @ solve_linear(matrix, [1.0, 2.0]), [1.0, 2.0], atol=1e-15)
    assert np.allclose(matrix @ solve_linear(matrix, np.eye(2)), np.eye(2), atol=1e-15)
    for singular in (np.diag([1.0, 1e-13]), np.zeros((2, 2))):
        with pytest.raises(SingularSystemError, match="exceeds 1e12"):
            solve_linear(singular, [1.0, 1.0])
    # A non-finite matrix is an overflow, not a singular system.
    for overflowed in (np.full((2, 2), np.nan), np.diag([np.inf, 1.0])):
        with pytest.raises(ConvergenceError, match="Hessian: the matrix is not finite") as caught:
            solve_linear(overflowed, [1.0, 1.0], error="Hessian")
        assert caught.value.iterations == 0


@pytest.mark.parametrize("rows", [1, 7, 1025])
@pytest.mark.parametrize("dim", [4, 8, 12])
def test_stacked_solve_is_the_one_point_solve_per_row(dim, rows):
    rng = np.random.default_rng(dim * rows)
    matrices = rng.standard_normal((rows, dim, dim)) + dim * np.eye(dim)
    rhs = rng.standard_normal((rows, dim))
    stacked = solve_linear(matrices, rhs)
    assert stacked.shape == (rows, dim)
    for row in range(rows):
        assert np.array_equal(stacked[row], solve_linear(matrices[row], rhs[row]))


ILL = np.diag([1.0, 1.0, 1.0, 1e-13])
WORSE = np.diag([1.0, 1e-15, 1.0, 1.0])
SINGULAR = np.diag([1.0, 1.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "first, later",
    [(ILL, WORSE), (SINGULAR, ILL), (ILL, SINGULAR)],
    ids=["ill-then-worse", "singular-then-ill", "ill-then-singular"],
)
def test_stacked_solve_raises_the_message_of_the_first_failing_row(first, later):
    # Rows 2 and 4 fail; the stack raises what row 2 alone raises.  An exactly
    # singular row has no inverse and the condition estimate inf.
    matrices = np.stack([(1.0 + k) * np.eye(4) for k in range(6)])
    matrices[2], matrices[4] = first, later
    rhs = np.ones((6, 4))
    with pytest.raises(SingularSystemError) as alone:
        solve_linear(first, rhs[2], error="Hessian")
    with pytest.raises(SingularSystemError) as stacked:
        solve_linear(matrices, rhs, error="Hessian")
    assert str(stacked.value) == str(alone.value)
    assert ("condition estimate inf" in str(alone.value)) == (first is SINGULAR)


@pytest.mark.parametrize("overflowed", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_stacked_solve_raises_the_overflow_of_the_first_failing_row(overflowed):
    # Row 2 overflowed; row 4, only ill-conditioned, fails later in the stack.
    matrices = np.stack([(1.0 + k) * np.eye(4) for k in range(6)])
    matrices[2], matrices[4] = np.diag([overflowed, 1.0, 1.0, 1.0]), ILL
    with pytest.raises(ConvergenceError, match="^Hessian: the matrix is not finite"):
        solve_linear(matrices, np.ones((6, 4)), error="Hessian")


def quartic_hstar_rowwise():
    # S grad H of the sample quartic_hstar.scn, one term table for all rows.
    scenario = load_scenario(SCENARIOS / "quartic_hstar.scn")
    form = canonical_two_form(scenario.kind, scenario.n)
    field = build_field(scenario.function, scenario.n)
    return field.signed_gradient(form), scenario.x0


def kinetic_minus_potential_g():
    op = build_structure(G, 1)
    lagrangian = kinetic_minus_potential_field([1.0], 0.5)
    return (lambda x: canonical_rhs(op, lagrangian, x)), (3.0, 4.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "steps", [3, 4.5, 20.5, integrators._BLOCK + 40], ids=lambda s: f"{s}dt"
)
@pytest.mark.parametrize("make_field", [quartic_hstar_rowwise, kinetic_minus_potential_g])
def test_stacked_derivative_recording_is_bitwise_neutral(make_field, steps):
    # Runs shorter than five steps, with a shortened last step, and longer
    # than one block of deferred rows: the flag changes no sample.
    field, x0 = make_field()
    stacked = []

    def counted(x):
        stacked.append(np.ndim(x) == 2)
        return field(x)

    def run(rowwise, invariant_fns=None):
        stacked.clear()
        cfg = StepperConfig(dt=1e-3, rowwise=rowwise)
        traj = integrate_field(counted, x0, steps * cfg.dt, cfg, invariant_fns)
        return traj, sum(stacked), len(stacked)

    (off, off_stacked, off_calls), (on, on_stacked, on_calls) = run(False), run(True)
    assert np.array_equal(on.times, off.times)
    assert np.array_equal(on.states, off.states)
    assert np.array_equal(on.derivatives, off.derivatives)
    assert off_stacked == 0 and on_stacked >= 1
    if steps > integrators._BLOCK:
        assert on_stacked >= 2 and on_calls <= off_calls - integrators._BLOCK
    # Invariant functions are read after the run: a hooked run stacks its
    # recordings as the unhooked one does, and each series is fn per sample.
    fns = {"first": lambda x, xdot: x[0], "rate": lambda x, xdot: xdot[0]}
    hooked, hooked_stacked, _ = run(True, fns)
    assert hooked_stacked == on_stacked
    assert np.array_equal(hooked.states, on.states)
    assert np.array_equal(hooked.derivatives, on.derivatives)
    for name, fn in fns.items():
        expected = [fn(x, xdot) for x, xdot in zip(hooked.states, hooked.derivatives)]
        assert np.array_equal(hooked.invariants[name], expected)


@pytest.mark.parametrize(
    "singular_sample, limit, t_end",
    [(7, 1.2, 2.0), (2047, 256.2, 300.0), (None, 1.2, 2.0)],
    ids=["7", "2047", "None"],
)
def test_stacked_recording_fails_in_sample_order(singular_sample, limit, t_end):
    # x_1 is a clock, exact at dt = 1/8, and every stage evaluates midpoints
    # x_k + 1/16 only.  The field is singular at sample singular_sample,
    # whose derivative a row-wise run defers, and infinite past x_1 = limit,
    # so the step from t = 1.25 or from t = 256.25 diverges.  Sample 2047 is
    # still pending when its block (samples 1024..2047) closes.  Either way
    # the run raises what the plain run raises: the singular sample's error,
    # or the divergence when there is none.
    dt = 0.125
    velocity = np.array([1.0, 0.0, 0.0, 0.0])

    def field(x):
        clock = x[..., :1]
        if singular_sample is not None and (clock == singular_sample * dt).any():
            raise SingularSystemError(f"field at {x.shape} is singular at x_1 = {singular_sample * dt}")
        return np.where(clock < limit, velocity, np.inf)

    errors = []
    for rowwise in (False, True):
        cfg = StepperConfig(dt=dt, rowwise=rowwise)
        with pytest.raises((SingularSystemError, ConvergenceError)) as excinfo:
            integrate_field(field, np.zeros(4), t_end, cfg)
        errors.append((type(excinfo.value), str(excinfo.value)))
    assert errors[0] == errors[1]
    if singular_sample is None:
        assert errors[1][0] is ConvergenceError and "stepping from t = 1.25" in errors[1][1]
    else:
        message = f"field at (4,) is singular at x_1 = {singular_sample * dt}"
        assert errors[1] == (SingularSystemError, message)


def test_stages_under_integrate_field_enter_no_overflow_policy_of_their_own(monkeypatch):
    # The driver holds the policy for the whole run; a direct caller's stage
    # enters it itself, once per step.
    plain, entered = np.errstate, []

    def errstate(**kwargs):
        entered.append(kwargs)
        return plain(**kwargs)

    monkeypatch.setattr(np, "errstate", errstate)
    cfg = StepperConfig(method="implicit_midpoint", dt=0.01)
    traj = integrate_field(pendulum_field, np.array([1.2, 0.0, 0.5, -0.3]), 0.5, cfg)
    assert len(traj) == 51 and len(entered) == 1
    entered.clear()
    step_explicit(pendulum_field, traj.states[-1], cfg)
    assert entered == [{"over": "ignore", "invalid": "ignore"}]


BLOCK = integrators._BLOCK
AFFINE_SAMPLES = (
    "audit_lagrangian_f_printed",
    "circle_lagrangian_f",
    "harmonic_oscillator_fstar",
    "harmonic_oscillator_gstar",
    "harmonic_oscillator_hstar",
)


def affine_sample_run(monkeypatch, name, method=None, steps=None):
    """The sample's trajectory, and the arguments (f, x0, t_end, cfg) of the
    formalism's ``integrate_field`` call; method and t_end / dt as given."""
    scenario = load_scenario(SCENARIOS / f"{name}.scn")
    scenario = replace(scenario, method=method or scenario.method)
    if steps is not None:
        scenario = replace(scenario, t_end=steps * scenario.dt)
    calls = []

    def spy(*args):
        calls.append(args)
        return integrate_field(*args)

    for module in (hamiltonian, lagrangian):
        monkeypatch.setattr(module, "integrate_field", spy)
    traj = execute_scenario(scenario)[0]
    (args,) = calls
    assert args[3].jacobian is not None and args[3].rowwise
    return traj, args


def stepped_run(f, x0, t_end, cfg):
    """The same run with every sample stepped: rowwise off maps no block."""
    return integrate_field(f, x0, t_end, replace(cfg, rowwise=False))


@pytest.mark.parametrize("steps", [BLOCK - 0.5, BLOCK, BLOCK + 0.5], ids=lambda s: f"{s}dt")
@pytest.mark.parametrize(
    "name, method",
    [("harmonic_oscillator_fstar", m) for m in METHODS]
    + [("circle_lagrangian_f", m) for m in ("rk4", "implicit_midpoint")],
)
def test_affine_runs_of_at_most_one_block_step_every_sample(monkeypatch, name, method, steps):
    traj, (f, x0, t_end, cfg) = affine_sample_run(monkeypatch, name, method, steps)
    assert len(traj) == math.ceil(steps) + 1
    stepped = stepped_run(f, x0, t_end, cfg)
    assert np.array_equal(traj.times, stepped.times)
    assert np.array_equal(traj.states, stepped.states)
    assert np.array_equal(traj.derivatives, stepped.derivatives)


def longdouble_steps(f, x0, times, cfg):
    """The per-step map x + M f(x) of the run, iterated in np.longdouble."""
    full, remainder = integrators._plan_steps(times[-1], cfg.dt)
    jacobian = np.asarray(cfg.jacobian, dtype=np.longdouble)
    offset = np.asarray(f(np.zeros(len(x0))), dtype=np.longdouble)
    increments = [np.asarray(cfg.increment, dtype=np.longdouble)] * (full + 1)
    if remainder:
        increments.append(np.asarray(replace(cfg, dt=remainder).increment, dtype=np.longdouble))
    states = [np.asarray(x0, dtype=np.longdouble)]
    for increment in increments[1:]:
        x = states[-1]
        states.append(x + increment @ (offset + jacobian @ x))
    return np.array(states)


@pytest.mark.parametrize("name", AFFINE_SAMPLES)
def test_block_map_keeps_the_affine_samples_on_their_per_step_map(monkeypatch, name):
    # Every row, of the doubled prefix and of the mapped blocks alike, is no
    # farther from the longdouble iteration of the same per-step map than the
    # stepped run has been by then, and records f of itself bit for bit.
    traj, (f, x0, t_end, cfg) = affine_sample_run(monkeypatch, name)
    assert len(traj) > 2 * BLOCK + 2
    stepped = stepped_run(f, x0, t_end, cfg)
    assert np.array_equal(traj.states[0], stepped.states[0])
    assert not np.array_equal(traj.states[1:BLOCK], stepped.states[1:BLOCK])
    reference = longdouble_steps(f, x0, traj.times, cfg)
    mapped_error = np.abs(traj.states - reference).max(axis=1)
    stepped_error = np.abs(stepped.states - reference).max(axis=1)
    assert np.all(mapped_error <= np.maximum.accumulate(stepped_error))
    assert mapped_error.max() <= stepped_error.max()
    for x, xdot in zip(traj.states, traj.derivatives):
        assert np.array_equal(xdot, f(x))


def test_long_affine_run_steps_only_its_shortened_step(monkeypatch):
    plain, seen = integrators.step_explicit, []

    def step_explicit(f, x, cfg):
        seen.append(cfg.dt)
        return plain(f, x, cfg)

    monkeypatch.setattr(integrators, "step_explicit", step_explicit)
    traj, (_, _, t_end, cfg) = affine_sample_run(monkeypatch, "harmonic_oscillator_fstar")
    assert len(traj) == 6285 and traj.times[-1] == t_end
    assert seen == [t_end - 6283 * cfg.dt]


ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_unstable_affine_run_diverges_at_its_own_step(monkeypatch):
    # rk4 at dt = 3 amplifies a rotation by |R(3i)| ~ 1.505 per step: the
    # 1024-step map is finite (~1e181), and the states overflow in the second
    # block, near step 1736.  The mapped block is stepped again, so the run
    # raises what the stepped run raises.
    cfg = StepperConfig(method="rk4", dt=3.0, jacobian=ROTATION, rowwise=True)

    def field(x):
        return integrators._matvec(ROTATION, x)

    derived, starts = spy_on_blocks(monkeypatch)
    errors = []
    for run in (integrate_field, stepped_run):
        with pytest.raises(ConvergenceError, match="rk4 step diverged") as excinfo:
            run(field, np.array([1.0, 0.0]), 6000.0, cfg)
        errors.append((str(excinfo.value), excinfo.value.iterations))
        if run is integrate_field:
            run_steps = len(starts)
    assert derived == [True]
    assert errors[0] == errors[1]
    t = float(errors[0][0].rsplit("t = ", 1)[1].rstrip(")"))
    assert BLOCK * cfg.dt < t < 2 * BLOCK * cfg.dt
    # The first block is mapped and kept; the second is stepped from its
    # start up to the failing step from t.
    assert run_steps == round(t / cfg.dt) + 1 - (BLOCK - 1)


def test_affine_run_whose_prefix_overflows_steps_from_sample_one(monkeypatch):
    # The rotation of the unstable run above, from |x0| = 1e300: the block
    # map is finite, but the doubled prefix overflows, so samples 1..B-1 are
    # stepped and the run diverges where the stepped run does, from t = 138.
    cfg = StepperConfig(method="rk4", dt=3.0, jacobian=ROTATION, rowwise=True)

    def field(x):
        return integrators._matvec(ROTATION, x)

    derived, starts = spy_on_blocks(monkeypatch)
    errors = []
    for run in (integrate_field, stepped_run):
        with pytest.raises(ConvergenceError, match="rk4 step diverged") as excinfo:
            run(field, np.array([1e300, 0.0]), 6000.0, cfg)
        errors.append((str(excinfo.value), excinfo.value.iterations))
        if run is integrate_field:
            run_starts = list(starts)
    assert derived == [True]
    assert errors[0] == errors[1]
    t = float(errors[0][0].rsplit("t = ", 1)[1].rstrip(")"))
    assert 0 < t < BLOCK * cfg.dt
    # The mapped first block is stepped from sample 0 up to the failing step
    # from t, and no later block is reached.
    assert np.array_equal(run_starts[0], [1e300, 0.0])
    assert len(run_starts) == round(t / cfg.dt) + 1


def test_run_whose_block_map_is_not_finite_steps_every_sample(monkeypatch):
    # x0 lies on the decaying mode of diag(1, -1); the growing mode's factor
    # e^1024 overflows the block map, so no block is mapped.
    jacobian = np.diag([1.0, -1.0])
    cfg = StepperConfig(method="rk4", dt=1.0, jacobian=jacobian, rowwise=True)

    def field(x):
        return integrators._matvec(jacobian, x)

    derived, seen = spy_on_blocks(monkeypatch)
    traj = integrate_field(field, np.array([0.0, 1.0]), 2000.5, cfg)
    assert derived == [False]
    assert len(seen) == len(traj) - 1 == 2001
    stepped = stepped_run(field, np.array([0.0, 1.0]), 2000.5, cfg)
    assert np.array_equal(traj.states, stepped.states)
    assert np.array_equal(traj.derivatives, stepped.derivatives)
