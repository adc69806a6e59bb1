"""Exact tie-robust combinatorial optimization with auditable decisions.

Solvers branch only on signs of linear functionals of the weights; every
comparison lands in a replayable trace, and exact ties are settled by
symbolic perturbation along a shadow direction instead of ad-hoc rules.
Ships an ordered-tree optimizer with two independent oracles, a greedy
partition demo, trace verification with computable stability margins, and
a deterministic certification campaign.
"""

from importlib import import_module

# Names load on first use (PEP 562), so `import tiebreak.cli` pays only for
# the modules its command needs: `solve` and `verify-trace` never load the
# campaign harness or the partition demo. A resolved name is stored in this
# module's globals, so each costs one lookup.
_EXPORTS = {
    "alphabetic": (
        "LEFTMOST",
        "POLICIES",
        "POLICY_ORIENTATION",
        "RIGHTMOST",
        "Tree",
        "brute_force_optimal",
        "dp_optimal_cost",
        "enumerate_trees",
        "format_tree",
        "hu_tucker",
        "hu_tucker_phase1",
        "phase1_explicit_shadow",
        "reconstruct_from_depths",
        "tree_cost",
        "tree_depths",
    ),
    "core": ("LinearFunctional", "format_rational", "parse_rational", "sign"),
    "errors": (
        "CapacityError",
        "CorruptTraceError",
        "DomainError",
        "FormatError",
        "PolicyMismatchError",
        "StructureError",
        "TiebreakError",
    ),
    "harness": (
        "CampaignConfig",
        "CampaignReport",
        "Family",
        "check_instance",
        "check_lipschitz",
        "generate",
        "parse_config",
        "resolve_orientation_binding",
        "run_campaign",
    ),
    "partition": (
        "brute_force_partition",
        "format_assignment",
        "greedy_partition",
        "partition_value",
    ),
    "perturb": (
        "NEGATIVE",
        "ORIENTATIONS",
        "POSITIVE",
        "ShadowVector",
        "dyadic_shadow",
        "max_step_in_domain",
    ),
    "trace": (
        "ComparisonRecord",
        "DecisionTrace",
        "dump_trace",
        "load_trace",
        "stability_witness",
        "verify_policy",
    ),
}

#: Home module of every exported name.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

_SUBMODULES = frozenset((*_EXPORTS, "cli"))


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is not None:
        value = getattr(import_module(f".{home}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
