"""Mechanics on flat para-quaternionic space R^{4n}.

Exact split-quaternion arithmetic, the canonical structure triple F, G, H and
its duals, symbolic exterior calculus with rational coefficients, and the
Lagrangian and Hamiltonian dynamics the structures generate, with an audit
suite that re-derives every displayed identity.
"""

from .audit import AuditRecord, AuditReport, verify_all
from .errors import (
    ConvergenceError,
    ParamechError,
    ScenarioError,
    SingularFormError,
    SingularHessianError,
    SingularPointError,
    SingularSystemError,
)
from .exterior import (
    KForm,
    PolyScalar,
    ext_d,
    form_from_constant_matrix,
    form_to_matrix,
    lagrangian_two_form,
    vertical_derivation,
    vertical_differential,
)
from .fields import (
    DistanceFromOrigin,
    KineticField,
    PolynomialField,
    ScalarField,
    SumField,
    harmonic_field,
    kinetic_minus_potential_field,
)
from .hamiltonian import (
    canonical_two_form,
    generic_field_from_form,
    hamilton_residuals,
    hamiltonian_vector_field,
    integrate_hamiltonian,
    liouville_one_form,
)
from .integrators import StepperConfig, Trajectory, integrate_field, step_explicit
from .lagrangian import (
    canonical_rhs,
    el_residuals,
    integrate_lagrangian,
    intrinsic_solve,
    lagrangian_energy,
    liouville_field,
    printed_sign,
)
from .scenario import (
    FieldSpec,
    RunResult,
    Scenario,
    build_field,
    execute_scenario,
    load_scenario,
    parse_scenario,
    run_scenario,
    run_scenario_files,
    serialize_scenario,
)
from .split_quaternions import (
    SplitQuaternion,
    SquareClass,
    bn_inner,
    sq_conj,
    sq_mul,
    sq_norm_sq,
    sq_square_class,
)
from .structures import (
    DUAL_KINDS,
    PRIMAL_KINDS,
    SignedPermutation,
    StructureKind,
    build_structure,
    fundamental_form,
    metric_compatibility,
    neutral_metric,
    verify_relations,
)

__version__ = "0.1.0"
