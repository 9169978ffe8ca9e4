"""Exact-arithmetic toolkit for symmetric pairs of reductive groups.

Computes, over Q and its quadratic extensions: adapted sl2 triples over
nilpotent elements, trace-bound audits across nilpotent orbits,
descendants at semisimple elements, local constants of quadratic forms
(Hilbert symbols, eighth-root constants, their homogeneity factors), and
the forward-chaining closure of the property implication graph that turns
audit results into Gelfand-property conclusions.
"""

__version__ = "0.1.0"

from .errors import (
    InputError,
    InvariantViolation,
    PreconditionError,
    ShapeError,
)
from .liealg import LieAlgebra, build_gl, build_product, build_quadratic_extension
from .linalg import (
    Matrix,
    integer_spectrum,
    is_nilpotent_matrix,
    is_semisimple_matrix,
    kernel_basis,
    minimal_polynomial,
    solve,
)
from .pairs import (
    GroupElement,
    SymmetricPair,
    cone_membership,
    descendant,
    descendant_at_group_element,
    is_normal,
    jordan_flags,
    make_diagonal_pair,
    make_quadratic_ext_pair,
    symmetrize,
)
from .scalars import rat
from .sl2 import SL2Triple, WeightDecomposition, jacobson_morozov, sl2_decompose, theta_adapt
from .criteria import (
    OrbitAudit,
    audit_orbits,
    clebsch_gordan_weights,
    diagonal_trace_identity,
    eigen_check,
    nilpotent_orbit_reps,
    partitions,
    speciality_audit,
)
from .weil import (
    DiagonalQuadraticForm,
    EighthRoot,
    Place,
    delta_factor,
    gauss_sum_oracle,
    hilbert_symbol,
    module_value,
    non_multiplicative_witness,
    null_cone_member,
    weil_gamma,
)
from .inference import ATOMS, FactBase, Rule, audit_to_facts, builtin_rules, close
