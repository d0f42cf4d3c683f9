"""Dynamics generated by a structure operator A from a Lagrangian L.

The central contraction identity i_X Phi_L^A = dE_L^A collapses, once the
semispray components are collected, to the linear system

    Hess(L)(x) . xdot = A . grad L(x),

which holds for all three structure kinds (canonical route).  Its right side
is ``L.signed_gradient(op)``, as S grad H is ``H.signed_gradient(form)``
(``hamiltonian``); only a constant Hessian's flow Q^{-1} A folds A in.  The
intrinsic route rebuilds that system from the two-form matrix and the
frozen-velocity energy differential and must agree; it additionally demands
the two-form be nondegenerate, matching the regularity hypothesis, under the
one guard of ``integrators.solve_linear``.  Every solve against the Hessian
(the canonical route, a constant Hessian's flow and the intrinsic route's
collected system) goes through ``_solve_hessian``, the one place where a
failed guard becomes a SingularHessianError.  An error of the field itself
keeps its type, e.g. the SingularPointError of a potential evaluated at its
singular point.

Every entry point takes the operator A and L as two arguments; the integrator
and the residuals check the pair (``_require_system``).

Two residual conventions are supported when auditing trajectories:

  * "derived": residuals of Hess . xdot - A . grad L, the system implied by
    the contraction identity;
  * "printed": residuals of the companion boxed first-order systems.  For G
    and H these coincide with the derived system; for F the boxed system
    carries the opposite sign on the gradient terms (equivalent to A -> -A),
    so its residuals do not vanish along derived flows.  The audit machinery
    reports this as a documented discrepancy rather than hiding it;
    ``printed_deviates`` is the verdict that a ``run`` summary prints.

``el_residuals`` takes both along a trajectory in one pass, one array where
the two systems coincide.  The energy and the residuals are stacked calls
over the samples, made after the integration loop (``integrators.map_rows``).
An L with a declared constant Hessian Q has the affine flow Q^{-1} A grad L,
and is stepped exactly in the increment form, a long run block by block
(``integrators``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import SingularFormError, SingularHessianError, SingularSystemError
from .fields import ScalarField, _matvec
from .integrators import StepperConfig, Trajectory, integrate_field, map_rows, solve_linear
from .structures import SignedPermutation

__all__ = [
    "CONVENTIONS",
    "LAGRANGIAN_METHODS",
    "liouville_field",
    "lagrangian_energy",
    "canonical_rhs",
    "two_form_matrix",
    "intrinsic_solve",
    "integrate_lagrangian",
    "el_residuals",
    "printed_sign",
    "printed_deviates",
]

CONVENTIONS = ("derived", "printed")
LAGRANGIAN_METHODS = ("rk4", "implicit_midpoint")


def _require_system(op: SignedPermutation, L: ScalarField) -> None:
    """The checks of the entry points that take an operator and its Lagrangian."""
    if op.kind.dual:
        raise ValueError("Lagrangian dynamics use a tangent-side operator")
    if L.dim != op.dim:
        raise ValueError("Lagrangian dimension does not match the operator")


def liouville_field(op: SignedPermutation, semispray) -> np.ndarray:
    """V_A = A(X): the structure operator applied to the semispray components."""
    if op.kind.dual:
        raise ValueError("Liouville field uses a tangent-side operator")
    return op.apply(np.asarray(semispray, dtype=float))


def lagrangian_energy(op: SignedPermutation, L: ScalarField, x, semispray) -> float:
    """E_L^A = V_A(L) - L, with the semispray treated as given data.

    x and the semispray are one point (a float results) or stacked rows.
    """
    energy = np.vecdot(liouville_field(op, semispray), L.gradient(x)) - L.value(x)
    return float(energy) if energy.ndim == 0 else energy


def _solve_hessian(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``solve_linear`` against a Hessian; a failed guard is a SingularHessianError."""
    try:
        return solve_linear(matrix, rhs, error="Hessian")
    except SingularSystemError as exc:
        raise SingularHessianError(str(exc)) from exc


def canonical_rhs(op: SignedPermutation, L: ScalarField, x) -> np.ndarray:
    """Semispray solving Hess(L) . xdot = A . grad L at x, or at each row of x."""
    return _solve_hessian(L.hessian(x), L.signed_gradient(op)(x))


def two_form_matrix(op: SignedPermutation, hess: np.ndarray) -> np.ndarray:
    """W = A^T Hess - Hess A for a symmetric Hess, so that A^T Hess = (Hess A)^T.

    Hess A is a column gather, so the entries stay in Hess's dtype (exact
    Fractions in the audit, floats in ``intrinsic_solve``).
    """
    hess_a = np.empty_like(hess)
    # Column index[k] is sign[k] * column k: place the columns, then negate.
    hess_a[:, op.index] = hess
    negated = op.index[op.sign < 0]
    hess_a[:, negated] = -hess_a[:, negated]
    return hess_a.T - hess_a


def intrinsic_solve(op: SignedPermutation, L: ScalarField, x) -> np.ndarray:
    """Semispray recovered from the contraction identity itself.

    Builds the two-form matrix W = A^T Hess - Hess A and the frozen-velocity
    energy differential dE = Hess A X - grad L, then collects the X terms of
    (i_X W)_b = dE_b into one linear system.  Nondegeneracy of W is required,
    under ``solve_linear``'s guard: an ill-conditioned W is a
    SingularFormError, a non-finite one the overflow ConvergenceError.  The
    guard inverts W for its condition estimate and drops that solution.  The
    collected system W + Hess A equals A^T Hess, singular exactly when Hess
    is, so it is a Hessian solve: its failure is a SingularHessianError whose
    message starts with ``Hessian:``.
    """
    hess = L.hessian(x)
    two_form = two_form_matrix(op, hess)
    gradient = L.gradient(x)
    try:
        solve_linear(two_form, gradient, error="Lagrangian two-form")
    except SingularSystemError as exc:
        raise SingularFormError(f"the Lagrangian two-form is degenerate at this point ({exc})") from exc
    # (i_X W)_b = sum_a X_a W[a, b] and dE_b = (Hess A X)_b - grad_b; moving
    # every X term left gives (W + Hess A) X = grad L.
    return _solve_hessian(two_form + hess @ op.matrix, gradient)


def printed_sign(op: SignedPermutation) -> np.ndarray:
    """Gradient signs of the displayed first-order systems, per row of A.

    Coincides with A's signs for G and H; for F the displayed system flips
    the overall sign of the gradient terms.
    """
    if op.kind.tag == "F":
        return -op.sign
    return op.sign


def printed_deviates(derived_max: float, printed_max: float) -> bool:
    """Whether the printed system deviates from the derived flow it was run along.

    Takes the residual maxima of both conventions along one derived flow; the
    printed one deviates when it exceeds both 1e-6 and 1e3 times the derived
    one.  Where the two conventions share one array (G and H) it never does.
    """
    return printed_max > max(1e-6, 1e3 * derived_max)


def integrate_lagrangian(
    op: SignedPermutation,
    L: ScalarField,
    x0,
    t_end: float,
    dt: float,
    method: str = "implicit_midpoint",
) -> Trajectory:
    """Integrate Hess . xdot = A . grad L; the energy series is E_L^A per sample.

    A constant Hessian Q that L declares (``constant_hessian``: a quadratic
    polynomial, a bare ``KineticField``, which g_const = 0 builds) is solved
    against A once per trajectory, under the same conditioning guard, so each
    field evaluation is one matvec with Q^{-1} A.  That field is affine,
    with the Jacobian Q^{-1} A Q, so every step is exact
    (``StepperConfig.jacobian``), and a long run maps block after block.  Otherwise every evaluation is
    ``canonical_rhs``: one guarded solve with the Hessian at that point.
    Both fields map a stack of points row by row (a stack of matvecs or of
    guarded solves, ``StepperConfig.rowwise``), so the run records the
    semisprays that no step reads stacked.  The energy is
    ``lagrangian_energy`` of the samples and their recorded semisprays,
    evaluated after the loop.
    """
    _require_system(op, L)
    # A strict subset of the stepper's methods, so checked here.
    if method not in LAGRANGIAN_METHODS:
        raise ValueError(f"method must be one of {LAGRANGIAN_METHODS}")
    hessian = L.constant_hessian()
    if hessian is None:
        jacobian, signed = None, L.signed_gradient(op)

        def field(x):
            return _solve_hessian(L.hessian(x), signed(x))

    else:
        flow = _solve_hessian(hessian, op.matrix)
        jacobian = flow @ hessian

        def field(x):
            return _matvec(flow, L.gradient(x))

    cfg = StepperConfig(method=method, dt=dt, jacobian=jacobian, rowwise=True)
    traj = integrate_field(field, x0, t_end, cfg)

    def energy(x, xdot):
        return lagrangian_energy(op, L, x, xdot)

    return replace(traj, invariants={"energy": map_rows(energy, traj.states, traj.derivatives)})


def el_residuals(op: SignedPermutation, L: ScalarField, traj: Trajectory) -> dict[str, np.ndarray]:
    """Residuals of both conventions, one row per sample, keyed by convention.

    The time derivative d/dt (dL/dx_a) is expanded by the chain rule as
    Hess . xdot using the trajectory's recorded derivatives, so integrator
    error is not folded into the residual.  Each chunk takes Hess . xdot and
    A grad L once; F's printed signs are minus A's, so its printed residual
    is Hess . xdot + A grad L, and for G and H "printed" is the derived array.
    """
    _require_system(op, L)
    signed = L.signed_gradient(op)
    flipped = np.array_equal(printed_sign(op), -op.sign)

    def rows(x, xdot):
        hv, a_grad = _matvec(L.hessian(x), xdot), signed(x)
        return np.stack([hv - a_grad, hv + a_grad] if flipped else [hv - a_grad], axis=1)

    series = map_rows(rows, traj.states, traj.derivatives)
    derived = series[:, 0]
    return {"derived": derived, "printed": series[:, 1] if flipped else derived}
