"""Dynamics generated by a structure operator A from a Lagrangian L.

The central contraction identity i_X Phi_L^A = dE_L^A collapses, once the
semispray components are collected, to the linear system

    Hess(L)(x) . xdot = A . grad L(x),

which holds for all three structure kinds (canonical route).  The intrinsic
route rebuilds that system from the two-form matrix and the frozen-velocity
energy differential and must agree; it additionally demands the two-form be
nondegenerate, matching the regularity hypothesis.

Two residual conventions are supported when auditing trajectories:

  * "derived": residuals of Hess . xdot - A . grad L, the system implied by
    the contraction identity;
  * "printed": residuals of the companion boxed first-order systems.  For G
    and H these coincide with the derived system; for F the boxed system
    carries the opposite sign on the gradient terms (equivalent to A -> -A),
    so its residuals do not vanish along derived flows.  The audit machinery
    reports this as a documented discrepancy rather than hiding it.

``convention_residuals`` is the one place that takes both along a
trajectory; where the two systems coincide it computes the series once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularFormError, SingularHessianError, SingularSystemError
from .fields import ScalarField
from .integrators import (
    ResidualSeries,
    StepperConfig,
    Trajectory,
    integrate_field,
    solve_linear,
)
from .structures import StructureOperator

__all__ = [
    "CONVENTIONS",
    "LAGRANGIAN_METHODS",
    "LagrangianSystem",
    "liouville_field",
    "lagrangian_energy",
    "canonical_rhs",
    "intrinsic_solve",
    "integrate_lagrangian",
    "el_residuals",
    "convention_residuals",
    "printed_sign_matrix",
]

CONVENTIONS = ("derived", "printed")
LAGRANGIAN_METHODS = ("rk4", "implicit_midpoint")


@dataclass(frozen=True, eq=False)
class LagrangianSystem:
    operator: StructureOperator
    lagrangian: ScalarField
    convention: str = "derived"

    def __post_init__(self):
        if self.operator.kind.dual:
            raise ValueError("Lagrangian dynamics use a tangent-side operator")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        if self.lagrangian.dim != self.operator.dim:
            raise ValueError("Lagrangian dimension does not match the operator")


def liouville_field(op: StructureOperator, semispray) -> np.ndarray:
    """V_A = A(X): the structure operator applied to the semispray components."""
    if op.kind.dual:
        raise ValueError("Liouville field uses a tangent-side operator")
    return op.matrix @ np.asarray(semispray, dtype=float)


def lagrangian_energy(op: StructureOperator, L: ScalarField, x, semispray) -> float:
    """E_L^A = V_A(L) - L, with the semispray treated as given data."""
    value, gradient = L.value_and_gradient(x)
    return float(liouville_field(op, semispray) @ gradient - value)


def canonical_rhs(op: StructureOperator, L: ScalarField, x) -> np.ndarray:
    """Semispray solving Hess(L) . xdot = A . grad L at x."""
    result = L.evaluate(x)
    try:
        return solve_linear(result.hessian, op.matrix @ result.gradient, error="Hessian")
    except SingularSystemError as exc:
        raise SingularHessianError(str(exc)) from exc


def intrinsic_solve(op: StructureOperator, L: ScalarField, x) -> np.ndarray:
    """Semispray recovered from the contraction identity itself.

    Builds the two-form matrix W = A^T Hess - Hess A and the frozen-velocity
    energy differential dE = Hess A X - grad L, then collects the X terms of
    (i_X W)_b = dE_b into one linear system.  Nondegeneracy of W is required.
    """
    result = L.evaluate(x)
    hess = result.hessian
    two_form = op.matrix.T @ hess - hess @ op.matrix
    try:
        condition = np.linalg.cond(two_form)
    except np.linalg.LinAlgError:
        condition = np.inf
    if not np.isfinite(condition) or condition > 1e12:
        raise SingularFormError(
            "the Lagrangian two-form is degenerate at this point"
        )
    # (i_X W)_b = sum_a X_a W[a, b] and dE_b = (Hess A X)_b - grad_b; moving
    # every X term left gives (W + Hess A) X = grad L.
    system = two_form + hess @ op.matrix
    try:
        return solve_linear(system, result.gradient, error="collected intrinsic system")
    except SingularSystemError as exc:
        raise SingularHessianError(str(exc)) from exc


def printed_sign_matrix(op: StructureOperator) -> np.ndarray:
    """Gradient sign pattern of the displayed first-order systems.

    Coincides with the operator matrix for G and H; for F the displayed system
    flips the overall sign of the gradient terms.
    """
    if op.kind.tag == "F":
        return -op.matrix
    return op.matrix


def integrate_lagrangian(
    system: LagrangianSystem,
    x0,
    t_end: float,
    dt: float,
    method: str = "implicit_midpoint",
) -> Trajectory:
    """Integrate Hess . xdot = A . grad L, recording the energy per sample.

    A constant Hessian (quadratic L) is solved against A once per
    trajectory, under the same conditioning guard, so each field evaluation
    is one matvec with Hess^{-1} A.  Otherwise every evaluation is
    ``canonical_rhs``: one guarded solve with the Hessian at that point.  The
    energy is ``lagrangian_energy`` of each sample and its recorded semispray.
    """
    if method not in LAGRANGIAN_METHODS:
        raise ValueError(f"method must be one of {LAGRANGIAN_METHODS}")
    op, L = system.operator, system.lagrangian
    cfg = StepperConfig(method=method, dt=dt)
    hessian = L.constant_hessian()

    def energy(x, xdot):
        return lagrangian_energy(op, L, x, xdot)

    try:
        if hessian is None:

            def field(x):
                return canonical_rhs(op, L, x)

        else:
            flow = solve_linear(hessian, op.matrix, error="Hessian")

            def field(x):
                return flow @ L.gradient(x)

        return integrate_field(field, x0, t_end, cfg, {"energy": energy})
    except SingularSystemError as exc:
        raise SingularHessianError(str(exc)) from exc


def el_residuals(system: LagrangianSystem, traj: Trajectory) -> ResidualSeries:
    """Residuals of the system's convention along a trajectory.

    The time derivative d/dt (dL/dx_a) is expanded by the chain rule as
    Hess . xdot using the trajectory's recorded derivatives, so integrator
    error is not folded into the residual.
    """
    op, L = system.operator, system.lagrangian
    sign = op.matrix if system.convention == "derived" else printed_sign_matrix(op)
    rows = []
    for x, xdot in zip(traj.states, traj.derivatives):
        result = L.evaluate(x)
        rows.append(result.hessian @ xdot - sign @ result.gradient)
    return ResidualSeries(traj.times, np.asarray(rows))


def convention_residuals(
    system: LagrangianSystem, traj: Trajectory
) -> dict[str, ResidualSeries]:
    """Residuals of both conventions along a trajectory, keyed by convention.

    The system's own convention is ignored.  Where the printed sign pattern
    equals A (G and H) the two systems are one, and both keys map to the
    same series.
    """
    derived = el_residuals(replace(system, convention="derived"), traj)
    op = system.operator
    if np.array_equal(printed_sign_matrix(op), op.matrix):
        printed = derived
    else:
        printed = el_residuals(replace(system, convention="printed"), traj)
    return {"derived": derived, "printed": printed}
