"""Sidon sets, Singer perfect difference sets, and extension checking in Z_v.

The package decides whether a finite Sidon set embeds, up to affine maps,
into a perfect difference set of some finite cyclic group, three different
ways: a fast scan against cached Singer constructions, exhaustive
enumeration of all perfect difference sets at small moduli, and a seeded
depth-first search that assumes nothing about where difference sets come
from.  On top of those sit the density and closure scans for size-4 sets.
"""

from .cache import (
    CacheIntegrityError,
    EnumerationRecord,
    build_pds_cache,
    load_pds,
    read_enumeration,
    write_enumeration,
)
from .dfs import (
    DfsBudget,
    DfsRun,
    IndependentReport,
    all_in_singer_orbit,
    enumerate_all_pds,
    find_pds_extension,
    independent_check,
)
from .fields import (
    FieldCtx,
    PrimePower,
    factorize,
    field_ctx,
    field_mul,
    field_pow,
    find_primitive_element,
    is_prime_power,
    trace_to_base,
)
from .orbit import (
    AffineWitness,
    CheckOutcome,
    CheckReport,
    PdsSource,
    brute_force_at_q,
    fast_check,
    fast_extends_at_q,
    rigor_class,
)
from .pipeline import (
    BASE_CANDIDATES,
    Candidate,
    DensityRow,
    TripleVerdict,
    completeness_check,
    dilation_family_check,
    sub_pattern_check,
    superset_closure_check,
    triple_verify,
)
from .sidon import (
    Pds,
    diff_signature,
    dilate,
    is_sidon,
    normalize,
    reflect,
    sidon_distinct_mod,
    verify_pds,
)
from .singer import (
    InvalidCoefficientsError,
    RecurrenceCoeffs,
    affine_equivalent,
    find_primitive_coeffs,
    singer_pds_recurrence,
    singer_pds_trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
