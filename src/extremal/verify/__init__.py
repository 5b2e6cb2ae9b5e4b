"""Statement registry, sweep harness, and extremal search."""

from .harness import (
    BudgetError,
    exhaustive_sweep,
    initial_families,
    load_suite,
    make_instance,
    run_recipe,
    run_suite,
    sample_sweep,
)
from .registry import (
    REGISTRY,
    Instance,
    StatementReport,
    check_binomials,
    check_fact_3_13,
    check_identity_2_3,
    check_identity_3_2,
    check_statement,
    instance_from_witness,
    recheck_witness,
)
from .search import SearchResult, search_max

__all__ = [name for name in dir() if not name.startswith("_")]
