"""Finite monoids, reduced finitary power monoids, and desk-scale
verification of their isomorphism behavior.

The hot loops (associativity checks, setwise products, carrier tables,
isomorphism search) run on a compiled extension when built, with a pure
Python fallback selected at import; `powmon.kernels.backend` names the
active one.  Monoid enumeration is always pure Python: it generates one
table per isomorphism class.
"""

from .errors import (NoIdentity, NotAssociative, PowmonError,
                     PreconditionViolated, SearchBudgetExceeded,
                     SizeLimitExceeded)
from .iso import IsoWitness, enumerate_isomorphisms, find_isomorphism
from .kernels import backend
from .monoid import (FiniteMonoid, cyclic_group, cyclic_monoid, dihedral_group,
                     direct_product, format_table, idempotent_monoid2,
                     klein_group, parse_monoid_spec, parse_table_file,
                     parse_table_text, quaternion_group)
from .powerset import (PowerMonoid, augment, elements_of, format_subset,
                       mask_of, parse_subset, reduced_power_monoid,
                       setwise_product, subset_power)
from .census import (CensusEntry, ExperimentRecord, canonical_key,
                     census_monoids, enumerate_monoids, groups_catalog,
                     power_isomorphism, run_experiment)
from .verify import (CheckResult, MinimalRelation, Pullback, PullbackReport,
                     cardinality_profile, check_cross_relation,
                     check_minimal_relation, check_order_stabilization,
                     check_shifted_power, check_solution_count,
                     check_two_to_two, count_equation_solutions,
                     extract_pullback, minimal_relation, pullback_report)

__version__ = "0.1.0"
