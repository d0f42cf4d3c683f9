"""Fixed-step ODE stepping for xdot = f(x), and the guarded linear solve.

``integrate_field`` is the one integration loop and owns the trajectory.  A
linearly-implicit system M(x) xdot = b(x) goes through it as the field
x -> ``solve_linear(M(x), b(x))``; a caller whose M is constant solves for
M^{-1} once instead.  Each solve reuses one inverse for both the solution and
the 1-norm condition number that guards against near-singular systems.
``solve_linear`` also takes a stack of systems, each row bitwise its
one-point solve, and raises the one-point message of the first failing row.
Products of one point (the affine increment M f(x), the extrapolation below,
the inverse times one right-hand side) are ``ndarray.dot``, BLAS gemv; a stack
goes through a batched matmul, which runs the same gemv on each row.

``integrate_field`` samples the times t_k = k*dt, the last one exactly t_end
(a shortened final step lands there), into arrays allocated before the first
field evaluation; a plan too large to store is a ValueError.  Each sample's
recorded derivative is also the first field evaluation of the next step
(rk4's k1, the start of an implicit stage that is not extrapolated).  The
integration loop owns the overflow policy: inside it overflow gives inf
without a warning, and a non-finite state is rejected whatever the method, so
fields stay plain numpy.  Each implicit stage applies the same policy, so a
direct ``step_explicit`` caller sees no warning from it either; a stage under
``integrate_field`` finds the policy held and does not enter it again.
Finiteness is tested by one dot product (the squared state, or the squared
stage step), and the state is scanned entry by entry only when that product is
not finite.  Steppers are pure functions of their inputs; trajectories are
bitwise reproducible.

An affine field f(x) = c + J x whose caller passes J as
``StepperConfig.jacobian`` is stepped exactly, in the increment form
x + M f(x); the propagator form P x + q drifts more.  M is derived once per
config from (method, dt, J, position mask): rk4's dt (I + h/2 + h^2/6 +
h^3/24) with h = dt J, the midpoint's dt (I - h/2)^{-1} (for a quadratic
Hamiltonian the Cayley transform, which keeps the energy to roundoff), and
the closed form of symplectic Euler's masked linear stage.  A shortened last
step has its own config and so its own M.  Every other field takes the staged
rk4 step or the fixed-point implicit stage.  That stage stops once two
iterates are within 1e-12 (1 + |x|) of each other and fails after 50
iterations; the tolerance and the limit are module constants (``_STAGE_TOL``,
``_STAGE_MAX_ITERS``), not settings of a config.

``integrate_field`` is one loop over blocks.  The full steps are cut at
multiples of B = 1024 samples (``_BLOCK``), so the first block is samples
1..B-1, and a shortened last step is one more block of one sample.  Each
block is either mapped or stepped, and every run, mapped or not, records each
sample's derivative as f of its state.

A stepped block takes one ``step_explicit(f, x, cfg)`` call per sample.  The
derivative of a sample is recorded at once if the next step of the block
reads it.  With ``StepperConfig.rowwise``, a caller's promise that f maps a
stack (m, dim) row by row, each row bitwise its one-point value, the other
derivatives of the block are recorded by one stacked call of f at its end;
both formalisms set it for all their fields, affine ones included, and it
defaults to False.  Failures keep their order: a step's error is re-raised
only after the block's pending derivatives are recorded, and a stacked call
that raises is redone one sample at a time, so the first failing sample
raises what it raises without the flag.  A SingularSystemError or
ConvergenceError is re-raised as the same object, its type and attributes
intact, with the time of the step appended to its message.  The samples of a
stepped block are bitwise those of the per-step map.

The implicit midpoint stage of a full step k >= 5 starts from the quartic
extrapolation of the last five samples, x_k ~ x_{k-1} + D with
D = (1, -5, 10, -10, 4) @ states[k-5:k] (Hairer, Lubich and Wanner,
*Geometric Numerical Integration*, 2nd ed., VIII.6), instead of the
explicit-Euler guess x + dt f(x); on a smooth flow one iteration then meets
the tolerance.  ``step_explicit(f, x, cfg)`` stays the one call per step: the
start reaches it through the first evaluation at x, which ``integrate_field``
answers with D / dt.  The first four steps and a shortened last step keep the
Euler start; the tolerance and the iteration limit are the same either way.
An extrapolated step reads no derivative, so a row-wise midpoint run records
all but those of samples 0 to 3 stacked.

A block is mapped in a long affine run: one with ``StepperConfig.rowwise``
and more than B full steps.  The first block doubles a prefix from sample 0
while it squares the one-step map x + (D_1 x + e_1), with D_1 = M J and
e_1 = M f(0), in this deviation form, which never rounds the small D_1 into
I + D_1: for m = 1, 2, 4, ..., B/2, samples m..2m-1 are samples 0..m-1
mapped by the m-step map x + (D_m x + e_m), which is then squared,
D_2m = 2 D_m + D_m D_m and e_2m = 2 e_m + D_m e_m, and dropped.  Only the
B-step map is kept: each later block of up to B samples, up to the last full
step, is the B samples before it mapped by it.  The prefix takes one stacked
product per doubling and a later block one, and each block takes one stacked
call of f for its derivatives.  If the B-step map is not finite, the first
block is stepped over its prefix and no later block is mapped; a mapped block
with a non-finite state or derivative is stepped instead, so a divergence is
raised by the step that produces it, with its usual type, message and time.
Only sample 0 of a mapped run is bitwise the stepped run's.

The optional ``invariant_fns`` of ``integrate_field``, unused by the package,
are read after the loop, fn(x, xdot) at every sample, and change no sample.
What the formalisms compute from the samples afterwards (energy, residuals)
is one stacked call per ``POSTPASS_ROWS`` rows through ``map_rows``, under
the same overflow policy, as are a run's energy drift and endpoint distance
(``scenario.run_scenario``); ``POSTPASS_ROWS`` is only the chunk size of that
post-pass and of the table writer.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import ConvergenceError, SingularSystemError
from .fields import _matvec

__all__ = [
    "METHODS",
    "StepperConfig",
    "Trajectory",
    "step_explicit",
    "integrate_field",
    "map_rows",
    "solve_linear",
    "POSTPASS_ROWS",
]

METHODS = ("rk4", "symplectic_euler", "implicit_midpoint")

_CONDITION_LIMIT = 1e12

# The fixed-point stage of the implicit methods stops once two iterates are
# within _STAGE_TOL * (1 + |x|), and fails after _STAGE_MAX_ITERS iterations.
_STAGE_TOL = 1e-12
_STAGE_MAX_ITERS = 50

# True while a caller holds the overflow policy (``_overflow_policy``).
_POLICY_HELD: ContextVar[bool] = ContextVar("paramech_overflow_policy_held", default=False)

# Samples per block of a run (a power of two), independent of POSTPASS_ROWS.
# In a long affine run the first block doubles a prefix from sample 0 over
# the 1-, 2-, ..., _BLOCK/2-step maps, and each later block is the previous
# one mapped by the exact _BLOCK-step map, derived by _BLOCK_SQUARINGS squarings.
_BLOCK_SQUARINGS = 10
_BLOCK = 1 << _BLOCK_SQUARINGS

# Rows per stacked post-pass call and per block of the table writer: bounds
# their temporaries on long runs.
POSTPASS_ROWS = 1024

# The increment x_{k+1} - x_k of the quartic through the last five states,
# oldest first: the start of a full non-affine midpoint stage from step 5 on.
_EXTRAPOLATION = np.array([1.0, -5.0, 10.0, -10.0, 4.0])


@contextmanager
def _overflow_policy():
    """Overflow gives inf and inf - inf gives nan, without a warning."""
    token = _POLICY_HELD.set(True)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    finally:
        _POLICY_HELD.reset(token)


def solve_linear(matrix: np.ndarray, rhs: np.ndarray, error: str = "linear system") -> np.ndarray:
    """Dense solve of matrix @ X = rhs (a vector or a matrix of columns).

    This is the package's one guarded solve.  One inverse gives both the
    solution and the 1-norm condition number, which must not exceed 1e12.  A
    stack of systems, matrices (m, d, d) with right-hand sides (m, d), is
    solved row by row, each row bitwise its one-point solve; if any row fails
    (singular or over the limit), the rows are solved one at a time, so the
    first failing row raises its one-point error.  A failing matrix with a
    non-finite entry is an overflow, not a singular system: a
    ConvergenceError after 0 iterations.
    """
    matrix = np.asarray(matrix, dtype=float)
    try:
        inverse = np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        condition = math.inf
    else:
        condition = _max_column_sum(matrix) * _max_column_sum(inverse)
    if matrix.ndim == 3:
        if not np.all(condition <= _CONDITION_LIMIT):
            # One row at a time, the first failing row raises.
            for row_matrix, row_rhs in zip(matrix, rhs):
                solve_linear(row_matrix, row_rhs, error)
            raise SingularSystemError(f"{error}: the stack fails, but none of its rows alone")
        return np.matmul(inverse, np.asarray(rhs, dtype=float)[..., None])[..., 0]
    if not condition <= _CONDITION_LIMIT:
        if not np.isfinite(matrix).all():
            raise ConvergenceError(f"{error}: the matrix is not finite (an overflow)", 0)
        raise SingularSystemError(f"{error}: condition estimate {condition:.3g} exceeds 1e12")
    return inverse.dot(np.asarray(rhs, dtype=float))


def _max_column_sum(matrix: np.ndarray):
    """The 1-norm of a matrix, or of each matrix of a stack.

    The column sums add the rows in order, for one matrix and for each matrix
    of a stack alike, so a stacked norm is bitwise the one-point norm.
    """
    return np.maximum.reduce(np.add.reduce(np.abs(matrix), axis=-2), axis=-1)


# It holds arrays, so a config compares and hashes by identity (eq=False).
@dataclass(frozen=True, eq=False)
class StepperConfig:
    method: str = "implicit_midpoint"
    dt: float = 1e-3
    # Required by symplectic Euler: True marks position-like coordinates.
    position_mask: np.ndarray | None = field(default=None, repr=False)
    # The constant Jacobian J of an affine field f(x) = c + J x, if known.
    jacobian: np.ndarray | None = field(default=None, repr=False)
    # True if f maps a stack (m, dim) row by row, each row bitwise its
    # one-point value: derivatives no step reads are then recorded stacked.
    rowwise: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        # A nan fails both comparisons.
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.jacobian is not None:
            shape = np.shape(self.jacobian)
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError("jacobian must be a square matrix")

    @cached_property
    def increment(self) -> np.ndarray | None:
        """M with the exact step x -> x + M f(x) for the affine field, else None.

        Derived once per config from (method, dt, jacobian, position_mask); a
        singular stage matrix is a ConvergenceError after 0 iterations.
        """
        if self.jacobian is None:
            return None
        dt, jacobian = self.dt, np.asarray(self.jacobian, dtype=float)
        eye = np.eye(len(jacobian))
        if self.method == "rk4":
            h = dt * jacobian
            return dt * (eye + h @ (eye / 2.0 + h @ (eye / 6.0 + h / 24.0)))
        if self.method == "implicit_midpoint":
            return _stage_inverse("implicit midpoint", eye - (dt / 2.0) * jacobian, dt * eye)
        # The momenta d = z - x solve (I - dt Q J) d = dt Q f(x), Q the momentum
        # projector; the positions then move by dt P f(z) = dt P (f(x) + J d).
        positions = np.diag(_position_mask(self.position_mask, len(jacobian)).astype(float))
        momenta = eye - positions
        stage = _stage_inverse("symplectic Euler", eye - dt * momenta @ jacobian, dt * momenta)
        return dt * positions + (eye + dt * positions @ jacobian) @ stage


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


def _position_mask(mask, dim: int) -> np.ndarray:
    if mask is None:
        raise ValueError("symplectic_euler requires a position mask")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (dim,):
        raise ValueError(f"position mask has shape {mask.shape}, the state dimension is {dim}")
    return mask


def _stage_inverse(stage: str, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """matrix^{-1} rhs for an affine stage; singular means the stage cannot converge."""
    try:
        return solve_linear(matrix, rhs, error=f"{stage} stage matrix")
    except SingularSystemError as exc:
        raise ConvergenceError(f"{exc}, so the stage cannot converge", 0) from exc


def _step_rk4(f, x, dt):
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _solve_stage(stage, update, y, x):
    """Iterate y <- update(y) until two iterates are within _STAGE_TOL*(1+|x|).

    A finite step from a finite iterate is finite, so the iterate itself is
    scanned only when the squared step is not.  The overflow policy is
    entered here only if no caller holds it already.
    """
    if not _POLICY_HELD.get():
        with _overflow_policy():
            return _solve_stage(stage, update, y, x)
    scale = _STAGE_TOL * (1.0 + math.sqrt(x.dot(x)))
    for iteration in range(1, _STAGE_MAX_ITERS + 1):
        y_next = update(y)
        d = y_next - y
        err = d.dot(d)
        if not math.isfinite(err) and not np.isfinite(y_next).all():
            raise ConvergenceError(
                f"{stage} stage diverged to a non-finite state at iteration {iteration}",
                iteration,
            )
        if math.sqrt(err) <= scale:
            return y_next
        y = y_next
    raise ConvergenceError(
        f"{stage} stage did not converge after {_STAGE_MAX_ITERS} iterations",
        _STAGE_MAX_ITERS,
    )


def _step_implicit_midpoint(f, x, dt):
    def update(y):
        return x + dt * f(0.5 * (x + y))

    return _solve_stage("implicit midpoint", update, x + dt * f(x), x)


def _step_symplectic_euler(f, x, dt, mask):
    mask = _position_mask(mask, len(x))

    # Momenta implicit, positions explicit in the updated momenta.  The stage
    # starts from x itself, so its first evaluation is f(x).
    def update(z):
        return np.where(mask, x, x + dt * f(z))

    z = _solve_stage("symplectic Euler", update, x, x)
    return np.where(mask, x + dt * f(z), z)


def step_explicit(f: Callable[[np.ndarray], np.ndarray], x, cfg: StepperConfig) -> np.ndarray:
    """One step of the configured method for xdot = f(x).

    With a Jacobian in cfg the field is affine and the step is the exact
    x + M f(x), M = cfg.increment; otherwise staged (rk4) or a fixed-point
    stage (implicit methods).
    """
    x = np.asarray(x, dtype=float)
    if cfg.jacobian is not None:
        return x + cfg.increment.dot(f(x))
    if cfg.method == "rk4":
        return _step_rk4(f, x, cfg.dt)
    if cfg.method == "implicit_midpoint":
        return _step_implicit_midpoint(f, x, cfg.dt)
    return _step_symplectic_euler(f, x, cfg.dt, cfg.position_mask)


def _plan_steps(t_end: float, dt: float) -> tuple[int, float]:
    """Number of full steps, then the length of a shortened last step (0: none)."""
    if not np.isfinite(t_end) or t_end < 0:
        raise ValueError("t_end must be finite and nonnegative")
    if t_end == 0:
        return 0, 0.0
    # A few ulps of slack absorb the rounding of t_end / dt (0.3 / 0.1 is
    # 2.9999999999999996), and no more: a shortened step covers the rest.
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_end / dt is not finite (t_end = {t_end!r}, dt = {dt!r})")
    full = math.floor(ratio + 4 * math.ulp(ratio))
    remainder = t_end - full * dt
    if remainder <= 1e-12 * max(1.0, t_end):
        remainder = 0.0
    return full, remainder


def _record_rows(f, states, derivatives, start: int, stop: int) -> None:
    """derivatives[start:stop] = f(states[start:stop]) by one stacked call.

    A stack that raises is redone one row at a time, so the first failing
    sample raises what its own evaluation raises; if no row fails alone, the
    rows computed one at a time stand.
    """
    if start >= stop:
        return
    try:
        derivatives[start:stop] = f(states[start:stop])
    except Exception:
        for k in range(start, stop):
            derivatives[k] = f(states[k])


def _map_first_block(f, states, cfg: StepperConfig):
    """Samples 1.._BLOCK-1 doubled from sample 0, and the exact _BLOCK-step
    map x -> x + (D x + e) as (D, e), or None if it is not finite.

    One step is x + M f(x) = x + (D_1 x + e_1) with D_1 = M J and
    e_1 = M f(0).  For m = 1, 2, 4, ..., _BLOCK/2, samples m..2m-1 are
    samples 0..m-1 mapped by the m-step map, which is then squared in this
    deviation form: D_2m = 2 D_m + D_m D_m and e_2m = 2 e_m + D_m e_m.  A
    non-finite entry of one map stays non-finite in the next, so only the
    last is checked; if it fails, the caller steps over the mapped samples.
    """
    increment = cfg.increment
    deviation = increment.dot(np.asarray(cfg.jacobian, dtype=float))
    offset = increment.dot(np.asarray(f(np.zeros(states.shape[1])), dtype=float))
    for i in range(_BLOCK_SQUARINGS):
        rows = states[: 1 << i]
        states[1 << i : 2 << i] = rows + (_matvec(deviation, rows) + offset)
        offset = 2.0 * offset + deviation.dot(offset)
        deviation = 2.0 * deviation + deviation.dot(deviation)
    if not (np.isfinite(deviation).all() and np.isfinite(offset).all()):
        return None
    return deviation, offset


def integrate_field(
    f: Callable[[np.ndarray], np.ndarray],
    x0,
    t_end: float,
    cfg: StepperConfig,
    invariant_fns: Mapping[str, Callable[[np.ndarray, np.ndarray], float]] | None = None,
) -> Trajectory:
    """Integrate xdot = f(x) on the grid t_k = k*dt; the last sample is t_end.

    The full steps go in blocks that end at multiples of 1024, the first one
    samples 1..1023.  An affine run (``cfg.jacobian``) with ``cfg.rowwise``
    and more than 1024 full steps maps each block from the samples before it;
    every other block, and a mapped block that comes out non-finite, is
    stepped one sample at a time.  A shortened last step is one more stepped
    block.  Each invariant function is called as fn(x, xdot) at every sample
    once the run is done (see the module docstring).
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
    history = len(_EXTRAPOLATION)
    extrapolate = cfg.method == "implicit_midpoint" and cfg.jacobian is None

    def step_block(start: int, stop: int, step_cfg: StepperConfig) -> None:
        """Step samples start..stop-1; with ``cfg.rowwise``, the derivatives
        that no later step of the block reads are one stacked call at its end."""
        x, fx = states[start - 1], derivatives[start - 1]
        # The step to sample k reads the derivative of sample k-1 if k < read_until.
        read_until = min(stop, history) if extrapolate else stop
        lo = start  # samples lo..k-1 await their derivatives
        for k in range(start, stop):
            first = fx
            if extrapolate and history <= k <= full:
                first = _EXTRAPOLATION.dot(states[k - history : k]) / cfg.dt

            # The steppers evaluate the start point x itself first: ``first``
            # answers, the derivative at x or, for an extrapolated stage, the
            # increment over dt.
            def first_same_as_last(y, x=x, first=first):
                return first if y is x else f(y)

            try:
                x = step_explicit(first_same_as_last, x, step_cfg)
                # x.dot(x) is finite for a finite x unless it overflows.
                if not math.isfinite(x.dot(x)) and not np.isfinite(x).all():
                    raise ConvergenceError(
                        f"{step_cfg.method} step diverged to a non-finite state", 0
                    )
            except Exception as exc:
                # Earlier samples fail first: a pending derivative that raises
                # replaces exc.
                _record_rows(f, states, derivatives, lo, k)
                if not isinstance(exc, (SingularSystemError, ConvergenceError)):
                    raise
                # The same error goes on, its type and attributes intact.
                exc.args = (f"{exc} (while stepping from t = {times[k - 1]:.9g})",)
                raise
            states[k] = x
            if not cfg.rowwise or k + 1 < read_until:
                fx = derivatives[k] = f(x)
                lo = k + 1
        _record_rows(f, states, derivatives, lo, stop)

    with _overflow_policy():
        states[0] = x
        derivatives[0] = f(x)
        block_map = None
        if cfg.jacobian is not None and cfg.rowwise and full > _BLOCK:
            block_map = _map_first_block(f, states, cfg)
        for block in range(0, full + 1, _BLOCK):
            start, stop = max(block, 1), min(block + _BLOCK, full + 1)
            if block_map is not None:
                if block:
                    deviation, offset = block_map
                    rows = states[block - _BLOCK : stop - _BLOCK]
                    states[start:stop] = rows + (_matvec(deviation, rows) + offset)
                _record_rows(f, states, derivatives, start, stop)
                finite = np.isfinite(states[start:stop]).all()
                if finite and np.isfinite(derivatives[start:stop]).all():
                    continue
            step_block(start, stop, cfg)
        if remainder:
            step_block(count - 1, count, replace(cfg, dt=remainder))
        for name, fn in invariant_fns.items():
            for k in range(count):
                invariants[name][k] = fn(states[k], derivatives[k])
    return Trajectory(times, states, derivatives, invariants)


def map_rows(fn: Callable[..., np.ndarray], *arrays: np.ndarray) -> np.ndarray:
    """fn over aligned chunks of POSTPASS_ROWS rows, concatenated along rows.

    fn takes stacked rows and computes each row on its own, so the result does
    not depend on the chunk size.  Overflow gives inf without a warning, as in
    ``integrate_field``.
    """
    rows = POSTPASS_ROWS
    with _overflow_policy():
        chunks = [
            fn(*(a[start : start + rows] for a in arrays))
            for start in range(0, max(len(arrays[0]), 1), rows)
        ]
    return np.concatenate(chunks)
