"""Causal graph orientation under tiered background knowledge.

The simulation names (``SimCell``, ``SimRecord``, ``TierScheme``, ``TIER_SCHEMES``,
``random_dag``, ``run_cell``, ``emit_results``) load on first use, and numpy with them.
"""

from .graphs import CycleError, GraphError, LimitError, PDAG, v_structures
from .independence import cpdag_of, is_d_separated
from .orientation import (
    BackgroundKnowledge,
    InconsistentKnowledgeError,
    check_consistency,
    class_size,
    enumerate_class,
    impose_knowledge,
    impose_tiers,
    meek_closure,
    mpdag_of,
    tiered_mpdag,
)
from .tiers import (
    CrossTierEdgeReport,
    IncompatibleOrderingsError,
    Informativeness,
    Refinement,
    TierComparison,
    TieredOrdering,
    TierEquivalence,
    compare_refinement,
    contained_in,
    cross_tier_report,
    tiers_equivalent,
    tiers_more_informative,
)
from .paths import (
    BPathVerdict,
    PathVerdict,
    check_adjustment_equivalence,
    classify_b_possibly_causal,
    classify_possibly_causal,
)
from .ida import ParentSetMultiset, joint_ida, local_ida
from .formats import (
    format_graph,
    format_tiers,
    load_graph,
    load_tiers,
    parse_graph,
    parse_tiers,
)

__version__ = "0.1.0"

__all__ = [
    "PDAG",
    "GraphError",
    "CycleError",
    "LimitError",
    "v_structures",
    "is_d_separated",
    "cpdag_of",
    "BackgroundKnowledge",
    "InconsistentKnowledgeError",
    "impose_knowledge",
    "impose_tiers",
    "meek_closure",
    "mpdag_of",
    "tiered_mpdag",
    "check_consistency",
    "enumerate_class",
    "class_size",
    "TieredOrdering",
    "TierComparison",
    "TierEquivalence",
    "CrossTierEdgeReport",
    "Refinement",
    "Informativeness",
    "IncompatibleOrderingsError",
    "compare_refinement",
    "cross_tier_report",
    "tiers_equivalent",
    "tiers_more_informative",
    "contained_in",
    "PathVerdict",
    "BPathVerdict",
    "classify_possibly_causal",
    "classify_b_possibly_causal",
    "check_adjustment_equivalence",
    "ParentSetMultiset",
    "local_ida",
    "joint_ida",
    "SimCell",
    "SimRecord",
    "TierScheme",
    "TIER_SCHEMES",
    "random_dag",
    "run_cell",
    "emit_results",
    "parse_graph",
    "format_graph",
    "load_graph",
    "parse_tiers",
    "format_tiers",
    "load_tiers",
]


def __getattr__(name):
    if name not in __all__:  # every name of __all__ but the simulation's is bound above
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simulation
    return getattr(simulation, name)


def __dir__():
    return sorted({*globals(), *__all__})
