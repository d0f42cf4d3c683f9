"""Fixed-step ODE stepping for xdot = f(x), and the guarded linear solve.

``integrate_field`` is the one integration loop and owns the trajectory.  A
linearly-implicit system M(x) xdot = b(x) goes through it as the field
x -> ``solve_linear(M(x), b(x))``; a caller whose M is constant solves for
M^{-1} once instead.  Each solve reuses one inverse for both the solution and
the 1-norm condition number that guards against near-singular systems.

``integrate_field`` samples the times t_k = k*dt, the last one exactly t_end
(a shortened final step lands there), into arrays allocated before the first
field evaluation; a plan too large to store is a ValueError.  Invariants are
recorded as fn(x, xdot) of each sample and its derivative, which is also the
first field evaluation of the next step (rk4's k1, the start of each implicit
stage).  The driver owns the overflow policy: inside its loop overflow gives
inf without a warning, and a non-finite state is rejected whatever the
method, so fields stay plain numpy.  Steppers are pure functions of their
inputs; trajectories are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .errors import ConvergenceError, SingularSystemError

__all__ = [
    "METHODS",
    "StepperConfig",
    "Trajectory",
    "ResidualSeries",
    "step_explicit",
    "integrate_field",
    "solve_linear",
]

METHODS = ("rk4", "symplectic_euler", "implicit_midpoint")

_CONDITION_LIMIT = 1e12


def solve_linear(matrix: np.ndarray, rhs: np.ndarray, error: str = "linear system") -> np.ndarray:
    """Dense solve of matrix @ X = rhs (a vector or a matrix of columns).

    One inverse gives both the solution and the 1-norm condition number,
    which must not exceed 1e12.
    """
    matrix = np.asarray(matrix, dtype=float)
    try:
        inverse = np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        condition = np.inf
    else:
        condition = np.abs(matrix).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max()
    if not np.isfinite(condition) or condition > _CONDITION_LIMIT:
        raise SingularSystemError(f"{error}: condition estimate {condition:.3g} exceeds 1e12")
    return inverse @ np.asarray(rhs, dtype=float)


@dataclass(frozen=True)
class StepperConfig:
    method: str = "implicit_midpoint"
    dt: float = 1e-3
    newton_tol: float = 1e-12
    newton_max_iters: int = 50
    # Required by symplectic Euler: True marks position-like coordinates.
    position_mask: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.newton_tol <= 0 or self.newton_max_iters < 1:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution: times, states, field values, and named invariant series."""

    times: np.ndarray
    states: np.ndarray
    derivatives: np.ndarray
    invariants: dict[str, np.ndarray]

    def __post_init__(self):
        count = len(self.times)
        if len(self.states) != count or len(self.derivatives) != count:
            raise ValueError("trajectory arrays must share one length")
        if any(len(series) != count for series in self.invariants.values()):
            raise ValueError("invariant series must match the sample count")
        if count > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True, eq=False)
class ResidualSeries:
    """Per-sample residual vectors of an equation system along a trajectory."""

    times: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.residuals):
            raise ValueError("residual series must match the sample count")

    def quadruples(self) -> np.ndarray:
        """Reshape each sample into n rows (r_i, r_{n+i}, r_{2n+i}, r_{3n+i})."""
        count, dim = self.residuals.shape
        n = dim // 4
        return self.residuals.reshape(count, 4, n).transpose(0, 2, 1)

    def max_abs(self) -> float:
        if self.residuals.size == 0:
            return 0.0
        return float(np.max(np.abs(self.residuals)))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm, computed as np.linalg.norm does but without its overhead."""
    return math.sqrt(v.dot(v))


def _step_rk4(f, x, dt):
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _solve_stage(stage, update, y, x, tol, max_iters):
    """Iterate y <- update(y) until two iterates are within tol*(1+|x|)."""
    scale = tol * (1.0 + _norm(x))
    for iteration in range(1, max_iters + 1):
        y_next = update(y)
        if not np.isfinite(y_next).all():
            raise ConvergenceError(
                f"{stage} stage diverged to a non-finite state at iteration {iteration}",
                iteration,
            )
        if _norm(y_next - y) <= scale:
            return y_next
        y = y_next
    raise ConvergenceError(
        f"{stage} stage did not converge after {max_iters} iterations", max_iters
    )


def _step_implicit_midpoint(f, x, dt, tol, max_iters):
    def update(y):
        return x + dt * f(0.5 * (x + y))

    return _solve_stage("implicit midpoint", update, x + dt * f(x), x, tol, max_iters)


def _step_symplectic_euler(f, x, dt, mask, tol, max_iters):
    if mask is None:
        raise ValueError("symplectic_euler requires a position mask")
    mask = np.asarray(mask, dtype=bool)

    # Momenta implicit, positions explicit in the updated momenta.  The stage
    # starts from x itself, so its first evaluation is f(x).
    def update(z):
        return np.where(mask, x, x + dt * f(z))

    z = _solve_stage("symplectic Euler", update, x, x, tol, max_iters)
    return np.where(mask, x + dt * f(z), z)


def step_explicit(f: Callable[[np.ndarray], np.ndarray], x, cfg: StepperConfig) -> np.ndarray:
    """One step of the configured method for xdot = f(x)."""
    x = np.asarray(x, dtype=float)
    if cfg.method == "rk4":
        return _step_rk4(f, x, cfg.dt)
    if cfg.method == "implicit_midpoint":
        return _step_implicit_midpoint(f, x, cfg.dt, cfg.newton_tol, cfg.newton_max_iters)
    return _step_symplectic_euler(
        f, x, cfg.dt, cfg.position_mask, cfg.newton_tol, cfg.newton_max_iters
    )


def _plan_steps(t_end: float, dt: float) -> tuple[int, float]:
    """Number of full steps, then the length of a shortened last step (0: none)."""
    if not np.isfinite(t_end) or t_end < 0:
        raise ValueError("t_end must be finite and nonnegative")
    if t_end == 0:
        return 0, 0.0
    full = int(np.floor(t_end / dt + 1e-6))
    remainder = t_end - full * dt
    if remainder <= 1e-12 * max(1.0, t_end):
        remainder = 0.0
    return full, remainder


def _advance(f, x, fx, cfg: StepperConfig, t: float) -> np.ndarray:
    """One step from the state x at time t, whose derivative fx is known."""

    # The steppers evaluate the start point x itself first.
    def first_same_as_last(y):
        return fx if y is x else f(y)

    try:
        x = step_explicit(first_same_as_last, x, cfg)
        if not np.isfinite(x).all():
            raise ConvergenceError(f"{cfg.method} step diverged to a non-finite state", 0)
    except SingularSystemError as exc:
        raise type(exc)(f"{exc} (while stepping from t = {t:.9g})") from exc
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"{exc} (while stepping from t = {t:.9g})", exc.iterations
        ) from exc
    return x


def integrate_field(
    f: Callable[[np.ndarray], np.ndarray],
    x0,
    t_end: float,
    cfg: StepperConfig,
    invariant_fns: Mapping[str, Callable[[np.ndarray, np.ndarray], float]] | None = None,
) -> Trajectory:
    """Integrate xdot = f(x) on the grid t_k = k*dt; the last sample is t_end.

    Each invariant function is called as fn(x, xdot) at every sample.
    """
    invariant_fns = dict(invariant_fns or {})
    full, remainder = _plan_steps(t_end, cfg.dt)
    steps = full + (remainder > 0)
    x = np.asarray(x0, dtype=float)
    count, dim = steps + 1, len(x)
    try:
        states = np.empty((count, dim))
        derivatives = np.empty((count, dim))
        invariants = {name: np.empty(count) for name in invariant_fns}
        times = np.arange(count) * cfg.dt
    except (ValueError, MemoryError) as exc:
        raise ValueError(
            f"cannot store {count} samples of dimension {dim} (t_end / dt too large): {exc}"
        ) from exc
    if steps:
        times[-1] = t_end
    with np.errstate(over="ignore", invalid="ignore"):
        fx = np.asarray(f(x), dtype=float)
        for k in range(count):
            if k:
                step_cfg = cfg if k <= full else replace(cfg, dt=remainder)
                x = _advance(f, x, fx, step_cfg, times[k - 1])
                fx = np.asarray(f(x), dtype=float)
            states[k] = x
            derivatives[k] = fx
            for name, fn in invariant_fns.items():
                invariants[name][k] = fn(x, fx)
    return Trajectory(times, states, derivatives, invariants)
