"""Hamiltonian dynamics for the dual structures F*, G*, H*.

Each dual kind carries a Liouville one-form lambda built by applying the dual
operator to the dx factors of a fixed base one-form, a constant symplectic
two-form Phi = -d lambda, and a closed-form Hamiltonian vector field.  The
closed forms are kept independent of the matrix route: the generic solver
recovers the field from (i_X Phi)_b = dH_b and the two must agree, which pins
the sign conventions.

The two-form's matrix is a ``SignedPermutation``, the type of the operators
themselves: the dual operator's (index, sign) pair, each sign times the base
one-form's sign at its index.  The pair also gives the Liouville one-form,
and the integrated field S grad H is ``H.signed_gradient(form)``, as A grad L
is ``L.signed_gradient(op)``.  For a quadratic H that field is affine with
the constant Jacobian S Q (Q the Hessian), and the integrator steps it
exactly in the increment form, a long run block by block (``integrators``).
The energy series and the residuals are computed after the integration loop,
as stacked calls over the samples (``integrators.map_rows``).

Every entry point that takes the dual kind and H, as two arguments, checks
the pair (``_require_system``).

Base one-forms (coefficients on x_a dx_a, halved):
  F*: all four blocks +;  G* and H*: first two blocks +, last two -.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import integrators
from .exterior import KForm, PolyScalar
from .fields import ScalarField
from .integrators import StepperConfig, Trajectory, integrate_field, map_rows, solve_linear
from .structures import SignedPermutation, StructureKind, build_structure

__all__ = [
    "HAMILTONIAN_METHODS",
    "liouville_one_form",
    "canonical_two_form",
    "hamiltonian_vector_field",
    "generic_field_from_form",
    "integrate_hamiltonian",
    "hamilton_residuals",
    "position_mask",
]

HAMILTONIAN_METHODS = integrators.METHODS

# Sign of the x_a dx_a coefficient in the base one-form, per block of n.
_BASE_FORM_BLOCK_SIGNS = {
    "F": (1, 1, 1, 1),
    "G": (1, 1, -1, -1),
    "H": (1, 1, -1, -1),
}


def _require_dual(kind: StructureKind) -> None:
    if not kind.dual:
        raise ValueError(f"{kind.name} is not a dual structure kind")


def _require_system(kind: StructureKind, H: ScalarField) -> None:
    """The checks of the entry points that take a kind and its Hamiltonian."""
    _require_dual(kind)
    if H.dim % 4 != 0:
        raise ValueError("Hamiltonian dimension must be a multiple of 4")


def liouville_one_form(kind: StructureKind, n: int) -> KForm:
    """lambda = A*(base one-form): sign[c]/2 * x_{index[c]} on each dx_c.

    (index, sign) is the pair of ``canonical_two_form``.
    """
    form = canonical_two_form(kind, n)
    half = Fraction(1, 2)
    terms = {
        (c,): PolyScalar.variable(form.dim, b).scale(sign * half)
        for c, (b, sign) in enumerate(zip(form.index.tolist(), form.sign.tolist()))
    }
    return KForm(form.dim, 1, terms)


def canonical_two_form(kind: StructureKind, n: int) -> SignedPermutation:
    """The constant symplectic matrix; equals -d(liouville one-form) exactly.

    It is A*'s pair, each sign times the base one-form's sign at its index.
    """
    _require_dual(kind)
    op = build_structure(kind, n)
    base = np.repeat(_BASE_FORM_BLOCK_SIGNS[kind.tag], n)
    sign = op.sign * base[op.index]
    sign.setflags(write=False)
    return SignedPermutation(kind, n, op.index, sign)


def hamiltonian_vector_field(kind: StructureKind, H: ScalarField, x) -> np.ndarray:
    """Closed-form field, assembled slot by slot per dual kind.

    x is one point (dim,) or a stack of points (m, dim).
    """
    _require_system(kind, H)
    grad = H.gradient(x)
    n = grad.shape[-1] // 4
    g1, g2, g3, g4 = (grad[..., k * n : (k + 1) * n] for k in range(4))
    if kind.tag == "F":
        blocks = (-g2, g1, -g4, g3)
    elif kind.tag == "G":
        blocks = (-g3, g4, g1, -g2)
    else:
        blocks = (-g4, -g3, g2, g1)
    return np.concatenate(blocks, axis=-1)


def generic_field_from_form(kind: StructureKind, H: ScalarField, x) -> np.ndarray:
    """Field recovered from sum_a X_a M[a, b] = dH_b with the two-form matrix.

    x is one point (dim,) or a stack of points (m, dim); a stack is one
    guarded solve with the gradients as columns.
    """
    _require_system(kind, H)
    grad = H.gradient(x)
    form = canonical_two_form(kind, grad.shape[-1] // 4)
    return solve_linear(form.matrix.T, grad.T, error="two-form system").T


def position_mask(form: SignedPermutation) -> np.ndarray:
    """Coordinates acting as positions: the columns carrying the +1 entries."""
    return np.isin(np.arange(form.dim), form.index[form.sign == 1])


def integrate_hamiltonian(
    kind: StructureKind,
    H: ScalarField,
    x0,
    t_end: float,
    dt: float,
    method: str = "implicit_midpoint",
) -> Trajectory:
    """Integrate xdot = S grad H; the energy series is H at every sample.

    S is the kind's two-form matrix M, antisymmetric and orthogonal, so the
    solution X = M^{-T} grad H of (i_X M)_b = dH_b is M grad H: one gather
    and sign flip, which equals ``hamiltonian_vector_field`` in value (a zero
    entry may carry the other sign).
    The field is ``H.signed_gradient(form)``, S being the form, for every H
    (one term table for a non-quadratic polynomial H).  A quadratic H,
    grad H = b + Q x, makes it affine with the constant Jacobian J = S Q,
    which is passed along so that every step is exact
    (``StepperConfig.jacobian``).  The field maps a stack of points row by
    row (``StepperConfig.rowwise``), so a long affine run maps block after
    block and records each block's derivatives by one stacked call.  The
    energy is evaluated after the loop, stacked over the samples.  Every
    stepper method applies (``HAMILTONIAN_METHODS``), so ``StepperConfig``
    alone checks ``method``.
    """
    _require_system(kind, H)
    form = canonical_two_form(kind, H.dim // 4)
    hessian = H.constant_hessian()
    jacobian = None if hessian is None else form.sign[:, None] * hessian[form.index]
    field = H.signed_gradient(form)
    mask = position_mask(form) if method == "symplectic_euler" else None
    cfg = StepperConfig(
        method=method, dt=dt, position_mask=mask, jacobian=jacobian, rowwise=True
    )
    traj = integrate_field(field, x0, t_end, cfg)
    return replace(traj, invariants={"energy": map_rows(H.value, traj.states)})


def hamilton_residuals(kind: StructureKind, H: ScalarField, traj: Trajectory) -> np.ndarray:
    """Residuals of this kind's closed-form equations, one row per sample.

    The trajectory's recorded derivatives stand in for the curve's velocity,
    so checking a trajectory generated by a different kind yields the honest
    mismatch between the two fields.
    """
    _require_system(kind, H)

    def rows(x, xdot):
        return xdot - hamiltonian_vector_field(kind, H, x)

    return map_rows(rows, traj.states, traj.derivatives)
