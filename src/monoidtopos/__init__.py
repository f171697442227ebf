"""Heyting-valued truth for finite monoid actions, projector strings,
and state reduction."""

from .errors import (CapacityError, ContextError, DomainError, MissingNameError,
                     MonoidToposError, NumericError, PreconditionError, StructureError,
                     UsageError, ValidationError)
from .monoid import (FiniteMonoid, LeftIdeal, enumerate_left_ideals, heyting_implies,
                     heyting_not, heyting_report, ideal_action, map_monoid,
                     submonoid_closure, verify_associativity)
from .strings import BoundedIdeal, ProjStringMonoid
from .mset import (KFamily, MSet, characteristic_arrow, equivariant_maps_to_ideals,
                   family_from_subset, family_to_lambda, invariant_subsets,
                   is_invariant, lambda_to_family, left_regular, product_mset,
                   truth_equal, truth_in_family, truth_in_invariant, truth_in_subset,
                   truth_subset_leq)
from .linalg import (DEFAULT_TOL, HermitianOperator, Projector, Ray, Subspace,
                     TolerancePolicy, ZERO_RAY, apply_function, hermitian_eig,
                     operator_norm, ray_equal, spectral_projector)

__version__ = "0.1.0"
