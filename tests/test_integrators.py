import numpy as np
import pytest

from paramech.errors import ConvergenceError, SingularSystemError
from paramech.integrators import (
    StepperConfig,
    Trajectory,
    integrate_field,
    solve_linear,
    step_explicit,
)


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


def test_rk4_non_finite_state_reports_time():
    # x_1 grows linearly and the field overflows once it reaches 1/2, which
    # the last rk4 stage of the step from t = 0.4 evaluates.
    def field(x):
        return np.array([1.0 if x[0] < 0.5 else np.inf, 0.0, 0.0, 0.0])

    cfg = StepperConfig(method="rk4", dt=0.1)
    with pytest.raises(ConvergenceError, match="non-finite.*stepping from t = 0.4"):
        integrate_field(field, np.zeros(4), 2.0, cfg)


@pytest.mark.parametrize("method", ["implicit_midpoint", "symplectic_euler"])
def test_midpoint_nonconvergence_reports_iterations(method):
    stiff = lambda y: 1e8 * y
    cfg = StepperConfig(
        method=method, dt=1e-3, newton_max_iters=10, position_mask=np.array([True, False])
    )
    with pytest.raises(ConvergenceError, match="did not converge after 10 iterations") as excinfo:
        step_explicit(stiff, np.ones(2), cfg)
    assert excinfo.value.iterations == 10


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


def test_invariant_series_recorded():
    cfg = StepperConfig(method="rk4", dt=0.01)
    seen = []

    def radius(x, xdot):
        seen.append((x.copy(), xdot.copy()))
        return float(np.hypot(x[0], x[1]))

    traj = integrate_field(rotation_field, [1.0, 0.0, 0.0, 0.0], 1.0, cfg, {"radius": radius})
    assert len(traj.invariants["radius"]) == len(traj)
    assert np.allclose(traj.invariants["radius"], 1.0, atol=1e-9)
    # The hook receives each sample and its recorded derivative.
    assert np.array_equal([x for x, _ in seen], traj.states)
    assert np.array_equal([xdot for _, xdot in seen], traj.derivatives)


def test_symplectic_euler_requires_mask():
    cfg = StepperConfig(method="symplectic_euler", dt=0.01)
    with pytest.raises(ValueError):
        step_explicit(rotation_field, np.ones(4), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(method="euler", dt=0.1)
    with pytest.raises(ValueError):
        StepperConfig(method="rk4", dt=-0.1)
    with pytest.raises(ValueError):
        StepperConfig(method="rk4", dt=0.1, newton_tol=0.0)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((1, 4)), np.zeros((2, 4)), {})
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 4)), np.zeros((2, 4)), {})


def pendulum_field(x):
    return np.array([x[1], -np.sin(x[0]), x[3], -x[2] ** 3])


PENDULUM_MASK = np.array([True, False, True, False])


@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint", "symplectic_euler"])
def test_derivative_reuse_is_bitwise_neutral(method):
    # Reference: plain steps, each re-evaluating f at its start point.
    cfg = StepperConfig(method=method, dt=0.01, position_mask=PENDULUM_MASK)
    x0 = np.array([1.2, 0.0, 0.5, -0.3])
    calls = []

    def counted(y):
        calls.append(1)
        return pendulum_field(y)

    traj = integrate_field(counted, x0, 0.5, cfg)
    states = [x0]
    for _ in range(50):
        states.append(step_explicit(pendulum_field, states[-1], cfg))
    assert np.array_equal(traj.states, np.asarray(states))
    assert np.array_equal(traj.derivatives, [pendulum_field(x) for x in states])
    if method == "rk4":
        assert len(calls) == 1 + 4 * 50


def test_time_grid_is_k_dt_and_ends_on_t_end():
    for t_end, dt, count in ((2 * np.pi, 1e-3, 6285), (0.3, 0.1, 4), (1.0, 0.001, 1001)):
        cfg = StepperConfig(method="rk4", dt=dt)
        traj = integrate_field(rotation_field, [1.0, 0.0, 0.0, 0.0], t_end, cfg)
        assert len(traj) == count
        assert all(traj.times[k] == k * dt for k in range(count - 1))
        assert traj.times[-1] == t_end


def test_non_finite_t_end_rejected():
    cfg = StepperConfig(method="rk4", dt=0.1)
    for t_end in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            integrate_field(rotation_field, [1.0, 0.0, 0.0, 0.0], t_end, cfg)


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
    for singular in (np.diag([1.0, 1e-13]), np.zeros((2, 2)), np.full((2, 2), np.nan)):
        with pytest.raises(SingularSystemError, match="exceeds 1e12"):
            solve_linear(singular, [1.0, 1.0])
