"""Exact combinatorics of intersecting set families.

Bitmask k-sets and uniform families, shifting compressions and guarded
fixpoints, lexicographic shadows, named extremal constructions, and a
statement-verification harness with exhaustive and seeded-sampling sweeps.
"""

from .core import (
    SetFamily,
    avoid,
    comb0,
    dumps_family,
    elems_of,
    enumerate_ksubsets,
    family_union,
    full_family,
    is_initial,
    link,
    loads_family,
    mask_of,
    meet,
    read_family,
    trace,
    write_family,
)
from .measures import (
    MeasureProfile,
    degree,
    is_cross_t_intersecting,
    is_nontrivial,
    is_pseudo_t_intersecting,
    is_r_wise_t_intersecting,
    is_t_intersecting,
    matching_number,
    measure_profile,
    rho,
    t_level,
    transversal_number,
)
from .order import (
    hilton_transfer,
    improved_shadow_applicable,
    katona_bound_holds,
    katona_shadow_ratio,
    kk_min_shadow,
    lex_segment,
    shadow,
)
from .shifting import (
    ALWAYS,
    And,
    CrossTIntersecting,
    MatchingAtMost,
    NonTrivial,
    PropertyAtom,
    RhoAtMost,
    ShiftTrace,
    TIntersecting,
    shift,
    shift_ad_extremis,
    weight,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
