"""Invariants, equivalence, and Hamiltonian flows of decorated plane loops.

A decorated loop is a simple closed plane curve carrying a circle density
with nondegenerate zeros.  The package extracts the complete invariant pair
(enclosed area, cyclic tuple of partial vorticities), constructs the
reparametrizations matching two loops with the same invariants, evaluates the
weighted pairing and two-form on curve variations, and advects loops along
compactly supported bump Hamiltonians while measuring what is conserved.
"""

from .circle_forms import (
    CircleDiffeo,
    CircleForm,
    VorticityProfile,
    ZeroSet,
    cumulative,
    find_zeros,
    invert_cumulative,
    partial_vorticities,
    pullback_form,
    stabilizer_generator,
    symmetry_step,
)
from .errors import (
    AlternationViolation,
    ConstraintViolation,
    MorseViolation,
    NoSymmetry,
    OddZeroCount,
    OrientationError,
    OutOfRange,
    ProfileMismatch,
    SchemaError,
    StepRejected,
    ValidationFailed,
    VortexLoopError,
)
from .flow import (
    FlowReport,
    PlanarBump,
    PlanarHamiltonian,
    advect,
    equivariance_residual,
    hamiltonian_vector_field,
)
from .loops import (
    DecoratedLoop,
    LoopEmbedding,
    OrbitInvariants,
    circular_match,
    enclosed_area,
    intertwiner,
    orbit_equivalent,
    orbit_invariants,
    pushforward_form,
    reversed_decoration,
)
from .symplectic import (
    TangentVector,
    closedness_residual,
    exactness_residual,
    momentum_map_eval,
    momentum_separation,
    omega_eval,
    pairing,
    pairing_matrix,
    primitive_one_form_eval,
    project_area_constraint,
    tangent_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "AlternationViolation",
    "CircleDiffeo",
    "CircleForm",
    "ConstraintViolation",
    "DecoratedLoop",
    "FlowReport",
    "LoopEmbedding",
    "MorseViolation",
    "NoSymmetry",
    "OddZeroCount",
    "OrbitInvariants",
    "OrientationError",
    "OutOfRange",
    "PlanarBump",
    "PlanarHamiltonian",
    "ProfileMismatch",
    "SchemaError",
    "StepRejected",
    "TangentVector",
    "ValidationFailed",
    "VortexLoopError",
    "VorticityProfile",
    "ZeroSet",
    "advect",
    "circular_match",
    "closedness_residual",
    "cumulative",
    "enclosed_area",
    "equivariance_residual",
    "exactness_residual",
    "find_zeros",
    "hamiltonian_vector_field",
    "intertwiner",
    "invert_cumulative",
    "momentum_map_eval",
    "momentum_separation",
    "omega_eval",
    "orbit_equivalent",
    "orbit_invariants",
    "pairing",
    "pairing_matrix",
    "partial_vorticities",
    "primitive_one_form_eval",
    "project_area_constraint",
    "pullback_form",
    "pushforward_form",
    "reversed_decoration",
    "stabilizer_generator",
    "symmetry_step",
    "tangent_decompose",
]
