"""Hamiltonian dynamics for the dual structures F*, G*, H*.

Each dual kind carries a Liouville one-form lambda built by applying the dual
operator to the dx factors of a fixed base one-form, a constant symplectic
two-form Phi = -d lambda, and a closed-form Hamiltonian vector field.  The
closed forms are kept independent of the matrix route: the generic solver
recovers the field from (i_X Phi)_b = dH_b and the two must agree, which pins
the sign conventions.

Base one-forms (coefficients on x_a dx_a, halved):
  F*: all four blocks +;  G* and H*: first two blocks +, last two -.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exterior import KForm, PolyScalar
from .fields import ScalarField
from .integrators import (
    ResidualSeries,
    StepperConfig,
    Trajectory,
    integrate_field,
)
from .structures import StructureKind, build_structure

__all__ = [
    "HAMILTONIAN_METHODS",
    "CanonicalSymplecticForm",
    "HamiltonianSystem",
    "liouville_one_form",
    "canonical_two_form",
    "hamiltonian_vector_field",
    "generic_field_from_form",
    "signed_permutation",
    "integrate_hamiltonian",
    "hamilton_residuals",
    "position_mask",
]

HAMILTONIAN_METHODS = ("rk4", "symplectic_euler", "implicit_midpoint")

# Sign of the x_a dx_a coefficient in the base one-form, per block of n.
_BASE_FORM_BLOCK_SIGNS = {
    "F": (1, 1, 1, 1),
    "G": (1, 1, -1, -1),
    "H": (1, 1, -1, -1),
}

# Positive unit entries of the symplectic matrix: (row block, column block).
# M[row*n + k, col*n + k] = +1 with the antisymmetric completion.
_TWO_FORM_PLUS_BLOCKS = {
    "F": ((1, 0), (3, 2)),
    "G": ((2, 0), (1, 3)),
    "H": ((3, 0), (2, 1)),
}


def _require_dual(kind: StructureKind) -> None:
    if not kind.dual:
        raise ValueError(f"{kind.name} is not a dual structure kind")


@dataclass(frozen=True, eq=False)
class CanonicalSymplecticForm:
    kind: StructureKind
    n: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return 4 * self.n


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    kind: StructureKind
    hamiltonian: ScalarField

    def __post_init__(self):
        _require_dual(self.kind)
        if self.hamiltonian.dim % 4 != 0:
            raise ValueError("Hamiltonian dimension must be a multiple of 4")

    @property
    def n(self) -> int:
        return self.hamiltonian.dim // 4


def liouville_one_form(kind: StructureKind, n: int) -> KForm:
    """lambda = A*(base one-form), the dual operator applied to each dx factor."""
    _require_dual(kind)
    op = build_structure(kind, n)
    dim = 4 * n
    half = Fraction(1, 2)
    terms: dict[tuple[int, ...], PolyScalar] = {}
    for block, sign in enumerate(_BASE_FORM_BLOCK_SIGNS[kind.tag]):
        for k in range(n):
            b = block * n + k
            coeff = (sign * half) * PolyScalar.variable(dim, b)
            # A*(dx_b) has a single signed entry per column.
            for c in np.nonzero(op.matrix[:, b])[0]:
                key = (int(c),)
                piece = coeff.scale(int(op.matrix[c, b]))
                terms[key] = terms.get(key, PolyScalar.zero(dim)) + piece
    return KForm(dim, 1, terms)


def canonical_two_form(kind: StructureKind, n: int) -> CanonicalSymplecticForm:
    """The constant symplectic matrix; equals -d(liouville one-form) exactly."""
    _require_dual(kind)
    dim = 4 * n
    matrix = np.zeros((dim, dim), dtype=np.int64)
    for row_block, col_block in _TWO_FORM_PLUS_BLOCKS[kind.tag]:
        for k in range(n):
            matrix[row_block * n + k, col_block * n + k] = 1
            matrix[col_block * n + k, row_block * n + k] = -1
    matrix.setflags(write=False)
    return CanonicalSymplecticForm(kind, n, matrix)


def hamiltonian_vector_field(kind: StructureKind, H: ScalarField, x) -> np.ndarray:
    """Closed-form field, assembled slot by slot per dual kind."""
    _require_dual(kind)
    grad = H.gradient(x)
    n = len(grad) // 4
    g1, g2, g3, g4 = grad[:n], grad[n : 2 * n], grad[2 * n : 3 * n], grad[3 * n :]
    if kind.tag == "F":
        blocks = (-g2, g1, -g4, g3)
    elif kind.tag == "G":
        blocks = (-g3, g4, g1, -g2)
    else:
        blocks = (-g4, -g3, g2, g1)
    return np.concatenate(blocks)


def generic_field_from_form(kind: StructureKind, H: ScalarField, x) -> np.ndarray:
    """Field recovered from sum_a X_a M[a, b] = dH_b with the two-form matrix."""
    _require_dual(kind)
    grad = H.gradient(x)
    form = canonical_two_form(kind, len(grad) // 4)
    return np.linalg.solve(form.matrix.T.astype(float), grad)


def signed_permutation(form: CanonicalSymplecticForm) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) with X_a = sign_a * dH[index_a], i.e. X = M grad H.

    M is antisymmetric and orthogonal, so the solution of (i_X M)_b = dH_b is
    X = M^{-T} grad H = M grad H; each row of M has a single entry +-1.
    """
    index = np.argmax(form.matrix != 0, axis=1)
    sign = form.matrix[np.arange(form.dim), index].astype(float)
    return index, sign


def position_mask(form: CanonicalSymplecticForm) -> np.ndarray:
    """Coordinates acting as positions: the columns carrying the +1 entries."""
    return np.any(form.matrix == 1, axis=0)


def integrate_hamiltonian(
    system: HamiltonianSystem,
    x0,
    t_end: float,
    dt: float,
    method: str = "implicit_midpoint",
) -> Trajectory:
    """Integrate xdot = S grad H, recording the Hamiltonian value per sample.

    S is the kind's two-form matrix, a constant signed permutation; it is
    read off once per trajectory and applied as a gather and a sign flip,
    which reproduces ``hamiltonian_vector_field`` bit for bit.
    """
    if method not in HAMILTONIAN_METHODS:
        raise ValueError(f"method must be one of {HAMILTONIAN_METHODS}")
    H = system.hamiltonian
    form = canonical_two_form(system.kind, system.n)
    index, sign = signed_permutation(form)

    def field(x):
        return sign * H.gradient(x)[index]

    def energy(x, xdot):
        return H.value(x)

    mask = position_mask(form) if method == "symplectic_euler" else None
    cfg = StepperConfig(method=method, dt=dt, position_mask=mask)
    return integrate_field(field, x0, t_end, cfg, {"energy": energy})


def hamilton_residuals(system: HamiltonianSystem, traj: Trajectory) -> ResidualSeries:
    """Residuals of this kind's closed-form equations along a trajectory.

    The trajectory's recorded derivatives stand in for the curve's velocity,
    so checking a trajectory generated by a different kind yields the honest
    mismatch between the two fields.
    """
    rows = []
    for x, xdot in zip(traj.states, traj.derivatives):
        rows.append(xdot - hamiltonian_vector_field(system.kind, system.hamiltonian, x))
    return ResidualSeries(traj.times, np.asarray(rows))
