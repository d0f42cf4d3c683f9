"""Fixed-step ODE stepping for xdot = f(x), and the guarded linear solve.

``integrate_field`` is the one integration loop.  A linearly-implicit system
M(x) xdot = b(x) goes through it as the field x -> ``solve_linear(M(x),
b(x))``; a caller whose M is constant solves for M^{-1} once instead.  Each
solve reuses one inverse for both the solution and the 1-norm condition
number that guards against near-singular systems.

``integrate_field`` samples the times t_k = k*dt, the last one exactly t_end
(a shortened final step lands there).  The derivative it records at the end
of a step is the first field evaluation of the next step (rk4's k1, the
start of each implicit stage), so a step costs one evaluation fewer.  A
trajectory that reaches a non-finite state is rejected, whatever the method.
Steppers are pure functions of their inputs; trajectories are bitwise
reproducible.
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


def _step_implicit_midpoint(f, x, dt, tol, max_iters):
    scale = tol * (1.0 + _norm(x))
    y = x + dt * f(x)
    for iteration in range(1, max_iters + 1):
        y_next = x + dt * f(0.5 * (x + y))
        if not np.isfinite(y_next).all():
            raise ConvergenceError(
                f"implicit midpoint stage diverged to a non-finite state "
                f"at iteration {iteration}",
                iteration,
            )
        if _norm(y_next - y) <= scale:
            return y_next
        y = y_next
    raise ConvergenceError(
        f"implicit midpoint stage did not converge after {max_iters} iterations",
        max_iters,
    )


def _step_symplectic_euler(f, x, dt, mask, tol, max_iters):
    if mask is None:
        raise ValueError("symplectic_euler requires a position mask")
    mask = np.asarray(mask, dtype=bool)
    momentum = ~mask
    scale = tol * (1.0 + _norm(x))
    # Momentum half implicit, position half explicit in the updated momenta.
    z = x.copy()
    p = x[momentum]
    fz = f(x)  # z equals x until the first momentum update
    for iteration in range(1, max_iters + 1):
        p_next = x[momentum] + dt * fz[momentum]
        if not np.isfinite(p_next).all():
            raise ConvergenceError(
                f"symplectic Euler stage diverged to a non-finite state "
                f"at iteration {iteration}",
                iteration,
            )
        converged = _norm(p_next - p) <= scale
        p = p_next
        z[momentum] = p
        if converged:
            break
        fz = f(z)
    else:
        raise ConvergenceError(
            f"symplectic Euler stage did not converge after {max_iters} iterations",
            max_iters,
        )
    z[mask] = x[mask] + dt * f(z)[mask]
    return z


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


def integrate_field(
    f: Callable[[np.ndarray], np.ndarray],
    x0,
    t_end: float,
    cfg: StepperConfig,
    invariant_fns: Mapping[str, Callable[[np.ndarray], float]] | None = None,
) -> Trajectory:
    """Integrate xdot = f(x) on the grid t_k = k*dt; the last sample is t_end."""
    invariant_fns = dict(invariant_fns or {})
    full, remainder = _plan_steps(t_end, cfg.dt)
    steps = full + (remainder > 0)
    x = np.asarray(x0, dtype=float).copy()
    fx = np.asarray(f(x), dtype=float)
    times = [0.0]
    states = [x.copy()]
    derivatives = [fx]
    invariants = {name: [fn(x)] for name, fn in invariant_fns.items()}
    for k in range(1, steps + 1):
        step_cfg = cfg if k <= full else replace(cfg, dt=remainder)

        # The steppers evaluate the start point x itself first.
        def first_same_as_last(y, start=x, known=fx):
            return known if y is start else f(y)

        try:
            x = step_explicit(first_same_as_last, x, step_cfg)
            if not np.isfinite(x).all():
                raise ConvergenceError(f"{cfg.method} step diverged to a non-finite state", 0)
        except SingularSystemError as exc:
            raise type(exc)(f"{exc} (while stepping from t = {times[-1]:.9g})") from exc
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"{exc} (while stepping from t = {times[-1]:.9g})", exc.iterations
            ) from exc
        fx = np.asarray(f(x), dtype=float)
        times.append(t_end if k == steps else k * cfg.dt)
        states.append(x.copy())
        derivatives.append(fx)
        for name, fn in invariant_fns.items():
            invariants[name].append(fn(x))
    return Trajectory(
        np.asarray(times),
        np.asarray(states),
        np.asarray(derivatives),
        {name: np.asarray(series) for name, series in invariants.items()},
    )
