"""Exact tie-robust combinatorial optimization with auditable decisions.

Solvers branch only on signs of linear functionals of the weights; every
comparison lands in a replayable trace, and exact ties are settled by
symbolic perturbation along a shadow direction instead of ad-hoc rules.
Ships an ordered-tree optimizer with two independent oracles, a greedy
partition demo, trace verification with computable stability margins, and
a deterministic certification campaign.
"""

from .alphabetic import (
    LEFTMOST,
    POLICIES,
    POLICY_ORIENTATION,
    RIGHTMOST,
    Tree,
    brute_force_optimal,
    dp_optimal_cost,
    enumerate_trees,
    format_tree,
    hu_tucker,
    hu_tucker_phase1,
    mirror_tree,
    parse_tree,
    phase1_explicit_shadow,
    reconstruct_from_depths,
    tree_cost,
    tree_depths,
)
from .core import (
    LinearFunctional,
    as_weights,
    format_rational,
    parse_rational,
    sign,
)
from .errors import (
    CapacityError,
    CorruptTraceError,
    DomainError,
    FormatError,
    PolicyMismatchError,
    StructureError,
    TiebreakError,
)
from .harness import (
    CampaignConfig,
    CampaignReport,
    Family,
    check_instance,
    check_lipschitz,
    generate,
    parse_config,
    resolve_orientation_binding,
    run_campaign,
)
from .partition import (
    brute_force_partition,
    format_assignment,
    greedy_partition,
    parse_assignment,
    partition_value,
)
from .perturb import (
    NEGATIVE,
    ORIENTATIONS,
    POSITIVE,
    ShadowVector,
    dyadic_shadow,
    max_step_in_domain,
)
from .trace import (
    ComparisonRecord,
    DecisionTrace,
    dump_trace,
    load_trace,
    stability_witness,
    verify_policy,
)

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "CapacityError",
    "ComparisonRecord",
    "CorruptTraceError",
    "DecisionTrace",
    "DomainError",
    "Family",
    "FormatError",
    "LEFTMOST",
    "LinearFunctional",
    "NEGATIVE",
    "ORIENTATIONS",
    "POLICIES",
    "POLICY_ORIENTATION",
    "POSITIVE",
    "PolicyMismatchError",
    "RIGHTMOST",
    "ShadowVector",
    "StructureError",
    "TiebreakError",
    "Tree",
    "as_weights",
    "brute_force_optimal",
    "brute_force_partition",
    "check_instance",
    "check_lipschitz",
    "dp_optimal_cost",
    "dump_trace",
    "dyadic_shadow",
    "enumerate_trees",
    "format_assignment",
    "format_rational",
    "format_tree",
    "generate",
    "greedy_partition",
    "hu_tucker",
    "hu_tucker_phase1",
    "load_trace",
    "max_step_in_domain",
    "mirror_tree",
    "parse_assignment",
    "parse_config",
    "parse_rational",
    "parse_tree",
    "partition_value",
    "phase1_explicit_shadow",
    "reconstruct_from_depths",
    "resolve_orientation_binding",
    "run_campaign",
    "sign",
    "stability_witness",
    "tree_cost",
    "tree_depths",
    "verify_policy",
]
