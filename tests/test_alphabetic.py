"""Tree utilities, the two-phase solver, and its two oracles."""

from __future__ import annotations

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import pytest

from tiebreak.alphabetic import (
    ENUMERATION_CAP,
    LEFTMOST,
    POLICY_ORIENTATION,
    RIGHTMOST,
    brute_force_optimal,
    dp_optimal_cost,
    enumerate_trees,
    format_tree,
    hu_tucker,
    hu_tucker_phase1,
    phase1_explicit_shadow,
    reconstruct_from_depths,
    tree_cost,
    tree_depths,
)
from tiebreak.core import LinearFunctional
from tiebreak.errors import CapacityError, DomainError, StructureError
from tiebreak.harness import FAMILY_NAMES, Family, _positional_phase1_depths, generate
from tiebreak.perturb import ShadowVector, dyadic_shadow
from tiebreak.trace import ComparisonRecord, dump_trace, load_trace

CATALAN = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 132, 8: 429}


def _random_vector(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(0, 24), 1 << rng.randint(0, 3)) for _ in range(n))


def _shadow_for(policy: str, n: int):
    return dyadic_shadow(n, POLICY_ORIENTATION[policy])


# -- tree values ------------------------------------------------------------


def _leaves_in_order(tree) -> tuple[int, ...]:
    """Leaf indices in left-to-right order."""
    if isinstance(tree, int):
        return (tree,)
    return _leaves_in_order(tree[0]) + _leaves_in_order(tree[1])


def _format_tree_recursively(tree) -> str:
    """`format_tree` as first written, recursing on each subtree."""
    if isinstance(tree, int):
        return f"b{tree}"
    left, right = tree
    return f"({_format_tree_recursively(left)} {_format_tree_recursively(right)})"


def test_format_tree_matches_the_recursive_form() -> None:
    for n in range(1, 9):
        for tree in enumerate_trees(n):
            assert format_tree(tree) == _format_tree_recursively(tree)
    rng = random.Random("format-tree")
    for _ in range(50):
        tree = hu_tucker(_random_vector(rng, rng.randint(9, 60)), LEFTMOST)[0]
        assert format_tree(tree) == _format_tree_recursively(tree)


def test_tree_depths_and_cost() -> None:
    tree = ((1, 2), 3)
    assert tree_depths(tree) == (2, 2, 1)
    assert tree_cost(tree, [1, 2, 3]) == 9
    assert tree_depths(1) == (0,)
    assert tree_cost(1, [Fraction(5)]) == 0
    with pytest.raises(StructureError):
        tree_cost(tree, [1, 2])
    with pytest.raises(StructureError, match="twice"):
        tree_depths((1, 1))
    with pytest.raises(StructureError):
        tree_depths((1, 3))


# -- phase 2 ----------------------------------------------------------------


def test_reconstruct_known_sequences() -> None:
    assert reconstruct_from_depths((3, 2, 2, 3, 2)) is None
    assert reconstruct_from_depths((0,)) == 1
    assert reconstruct_from_depths((1, 1)) == (1, 2)
    assert reconstruct_from_depths((2, 2, 1)) == ((1, 2), 3)
    assert reconstruct_from_depths((1,)) is None
    assert reconstruct_from_depths((1, 2, 2)) == (1, (2, 3))


def test_reconstruct_validates_input() -> None:
    with pytest.raises(StructureError):
        reconstruct_from_depths(())
    with pytest.raises(StructureError):
        reconstruct_from_depths((1, -1))
    with pytest.raises(StructureError):
        reconstruct_from_depths((1, True))


def test_reconstruct_inverts_tree_depths() -> None:
    for n in range(1, 8):
        for tree in enumerate_trees(n):
            assert reconstruct_from_depths(tree_depths(tree)) == tree


# -- oracles ----------------------------------------------------------------


def test_enumeration_counts_are_catalan() -> None:
    for n, count in CATALAN.items():
        assert sum(1 for _ in enumerate_trees(n)) == count


def test_enumeration_limits() -> None:
    with pytest.raises(DomainError):
        enumerate_trees(0)
    with pytest.raises(CapacityError):
        enumerate_trees(ENUMERATION_CAP + 1)
    with pytest.raises(CapacityError):
        brute_force_optimal([1] * (ENUMERATION_CAP + 1))


def test_dp_known_values() -> None:
    assert dp_optimal_cost([Fraction(5)]) == 0
    assert dp_optimal_cost([1, 2]) == 3
    assert dp_optimal_cost([1, 2, 3]) == 9
    assert dp_optimal_cost([Fraction(1, 2), Fraction(1, 2)]) == 1
    with pytest.raises(DomainError):
        dp_optimal_cost([1, -1])


def test_brute_force_counts_optima() -> None:
    cost, count = brute_force_optimal([1, 1, 1, 1])
    assert cost == 8
    assert count == 1
    cost, count = brute_force_optimal([1, 1, 1])
    assert cost == 5
    assert count == 2  # both shapes tie on an all-equal triple


def test_oracles_agree_on_random_instances() -> None:
    rng = random.Random("alphabetic-oracles")
    for _ in range(300):
        n = rng.randint(1, 8)
        w = _random_vector(rng, n)
        brute_cost, count = brute_force_optimal(w)
        assert dp_optimal_cost(w) == brute_cost
        assert count >= 1


def _cubic_dp_cost(w: Sequence[Fraction]) -> Fraction:
    """Reference: the plain interval DP, trying every split of every interval."""
    n = len(w)
    scale = math.lcm(*(x.denominator for x in w))
    ints = [int(x * scale) for x in w]
    cost = [[0] * n for _ in range(n)]
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span - 1
            cost[i][j] = sum(ints[i : j + 1]) + min(
                cost[i][k] + cost[k + 1][j] for k in range(i, j)
            )
    return Fraction(cost[0][n - 1], scale)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_dp_matches_cubic_reference_per_family(family: str) -> None:
    for n in range(1, 61):
        w = generate(Family(family), n, "dp-reference")
        assert dp_optimal_cost(w) == _cubic_dp_cost(w), (family, n)


def test_dp_matches_cubic_reference_on_zero_heavy_vectors() -> None:
    rng = random.Random("dp-zero-heavy")
    for _ in range(200):
        n = rng.randint(1, 40)
        w = tuple(
            Fraction(rng.choice((0, 0, 0, 0, 1, 2, 5)), rng.choice((1, 3))) for _ in range(n)
        )
        assert dp_optimal_cost(w) == _cubic_dp_cost(w), w


def _equal_weight_optimum(n: int) -> tuple[int, int]:
    """Cost and number of optimal trees for n unit weights.

    Optimal trees keep every leaf at depth k or k + 1, k = floor(log2 n):
    n - 2^k of the 2^k depth-k positions split in two.
    """
    k = n.bit_length() - 1
    return n * k + 2 * (n - (1 << k)), math.comb(1 << k, n - (1 << k))


@pytest.mark.parametrize("n", [*range(1, 65), 255, 256, 257, 500, 1000])
def test_dp_equal_weights_closed_form(n: int) -> None:
    assert dp_optimal_cost([1] * n) == _equal_weight_optimum(n)[0]


def test_dp_peak_memory_per_interval() -> None:
    # One triangular table of costs took about 34 bytes per interval at
    # n = 400; a square table per direction took about 58.
    n = 400
    weights = [1] * n
    tracemalloc.start()
    try:
        dp_optimal_cost(weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n * (n + 1) // 2) < 45


@pytest.mark.parametrize("n", range(1, ENUMERATION_CAP + 1))
def test_brute_force_equal_weights_closed_form(n: int) -> None:
    assert brute_force_optimal([1] * n) == _equal_weight_optimum(n)


def _enumerated_optimum(w: Sequence[Fraction]) -> tuple[Fraction, int]:
    """Reference: the cost of every enumerated tree from its leaf depths."""
    costs = [tree_cost(tree, w) for tree in enumerate_trees(len(w))]
    best = min(costs)
    return best, costs.count(best)


@pytest.mark.parametrize("n", range(1, 10))
def test_brute_force_matches_tree_enumeration(n: int) -> None:
    rng = random.Random(f"brute-enumeration|{n}")
    vectors = [generate(Family(family), n, "brute-reference") for family in FAMILY_NAMES]
    vectors += [_random_vector(rng, n) for _ in range(4)]
    for w in vectors:
        assert brute_force_optimal(w) == _enumerated_optimum(w), w


def _listed_optimum(w: Sequence[Fraction]) -> tuple[Fraction, int]:
    """Reference: one list entry per ordered tree over each interval.

    Each split's left and right cost lists combine pairwise as cost(L) +
    cost(R) + W(interval); the minimum and its count come from the full
    interval's list.
    """
    n = len(w)
    scale = math.lcm(*(x.denominator for x in w))
    prefix = [0, *accumulate(int(x * scale) for x in w)]
    costs = [[[0]] * n for _ in range(n)]
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span - 1
            weight = prefix[j + 1] - prefix[i]
            trees: list[int] = []
            for k in range(i, j):
                right = [c + weight for c in costs[k + 1][j]]
                trees += [c + r for c in costs[i][k] for r in right]
            costs[i][j] = trees
    trees = costs[0][n - 1]
    best = min(trees)
    return Fraction(best, scale), trees.count(best)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_brute_force_matches_the_listed_reference_per_family(family: str) -> None:
    for n in range(1, 12):
        for seed in ("listed-a", "listed-b"):
            w = generate(Family(family), n, seed)
            assert brute_force_optimal(w) == _listed_optimum(w), (family, n, seed)


def test_brute_force_matches_the_listed_reference_on_zero_heavy_and_fractional_vectors() -> None:
    rng = random.Random("brute-listed")
    for _ in range(60):
        n = rng.randint(1, 11)
        zero_heavy = tuple(
            Fraction(rng.choice((0, 0, 0, 0, 1, 2, 5)), rng.choice((1, 3))) for _ in range(n)
        )
        fractional = tuple(Fraction(rng.randint(0, 30), rng.randint(1, 12)) for _ in range(n))
        for w in (zero_heavy, fractional):
            assert brute_force_optimal(w) == _listed_optimum(w), w
    assert brute_force_optimal((Fraction(0),) * 11) == (0, 16796)


def _fraction_sum_cost(tree, w: Sequence[Fraction]) -> Fraction:
    """Reference: one Fraction product per leaf, summed in Fraction arithmetic."""
    return sum((Fraction(wi) * d for wi, d in zip(w, tree_depths(tree))), Fraction(0))


def test_tree_cost_matches_the_fraction_sum_reference() -> None:
    rng = random.Random("tree-cost")
    vectors = [
        generate(Family(family), n, "tree-cost") for family in FAMILY_NAMES for n in (1, 5, 7)
    ]
    vectors += [
        tuple(Fraction(rng.choice((0, 0, 1, 3, 7)), rng.choice((1, 2, 3, 10))) for _ in range(7))
        for _ in range(6)
    ]
    vectors += [(0, 1, Fraction(2, 3)), (Fraction(1, 6), Fraction(1, 10), Fraction(1, 15))]
    for w in vectors:
        for tree in enumerate_trees(len(w)):
            cost = tree_cost(tree, w)
            assert type(cost) is Fraction
            assert cost == _fraction_sum_cost(tree, w), (tree, w)
    for family in FAMILY_NAMES:
        w = generate(Family(family), 60, "tree-cost")
        for policy in (LEFTMOST, RIGHTMOST):
            tree, _ = hu_tucker(w, policy)
            assert tree_cost(tree, w) == _fraction_sum_cost(tree, w) == dp_optimal_cost(w)


# -- solver -----------------------------------------------------------------


def test_solver_frozen_instances() -> None:
    tree, trace = hu_tucker((1, 2, 3), LEFTMOST)
    assert format_tree(tree) == "((b1 b2) b3)"
    assert tree_cost(tree, (1, 2, 3)) == 9
    assert len(trace.records) == 1

    tree, _ = hu_tucker((1, 2, 3), RIGHTMOST)
    assert format_tree(tree) == "((b1 b2) b3)"

    left, _ = hu_tucker([1] * 5, LEFTMOST)
    right, _ = hu_tucker([1] * 5, RIGHTMOST)
    assert tree_depths(left) == (3, 3, 2, 2, 2)
    assert tree_depths(right) == (2, 2, 2, 3, 3)
    assert tree_cost(left, [1] * 5) == 12
    assert tree_cost(right, [1] * 5) == 12


#: sha256 of `dump_trace` for one solve per (family, n, policy), seed
#: "record-stream": the record stream is part of the solver's contract, so
#: any change to a functional, value, sign or step order shows here.
FROZEN_TRACE_DIGESTS = {
    ("all-equal", 40, LEFTMOST): "6232fbb76172798cdc913d3db87349ac31f47f9f989afe0e6fc4d67e829d1ad4",
    ("all-equal", 40, RIGHTMOST): "8c23559201413d42526616b908a3af7fe7e2e343b47a57110e805e85e6e37ed2",
    ("pair-sum-ties", 33, LEFTMOST): "9b70429660456db79afdf76569c47f3bc25bae3c3790426516b5e5869e2431ce",
    ("pair-sum-ties", 33, RIGHTMOST): "22ae4ebac8318949a85e5c44d0927fcf702a57cfa9310f55fc0f0cd500a41cdc",
    ("equal-blocks:3", 40, LEFTMOST): "f937202c56cd154bb6e4da0ee3a50a8872a689bbf7fd25576dd6560ca542e247",
    ("equal-blocks:3", 40, RIGHTMOST): "847b4c0e56f7e9ac962675898b719d575621d5e7166fa5674cf815f0cf0a7c7b",
    ("uniform-random", 64, LEFTMOST): "84e7a489414afa8bc8f8f61e6c18d110b1c43627a247b2a16d9b22336e2a7d1a",
    ("uniform-random", 64, RIGHTMOST): "e3f07b0f586b87c533882eaeec248a6f3b0ab44cb4ee1d0b5bcdf0e5cd69b8e2",
}


@pytest.mark.parametrize("token,n,policy", sorted(FROZEN_TRACE_DIGESTS))
def test_solver_record_stream_is_frozen(token: str, n: int, policy: str) -> None:
    w = generate(Family.parse(token), n, "record-stream")
    _, trace = hu_tucker(w, policy)
    text = dump_trace(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_TRACE_DIGESTS[token, n, policy]
    assert load_trace(text, n).records == trace.records
    assert dump_trace(load_trace(text, n)) == text
    for rec in trace.records:
        validated = ComparisonRecord(
            functional=rec.functional,
            primary_value=rec.primary_value,
            realized_sign=rec.realized_sign,
        )
        assert validated == rec
        assert LinearFunctional(rec.functional) == rec.functional
        assert not hasattr(rec, "__dict__")
        assert not hasattr(rec.functional, "__dict__")


def test_solver_single_leaf() -> None:
    tree, trace = hu_tucker((Fraction(7),), LEFTMOST)
    assert tree == 1
    assert trace.records == ()


def test_solver_merges_non_adjacent_leaves_when_needed() -> None:
    # The minimum pair here joins the two outer leaves across the middle.
    w = (2, Fraction(3, 2), Fraction(3, 2), 2)
    tree, _ = hu_tucker(w, LEFTMOST)
    assert tree is not None
    assert tree_cost(tree, w) == dp_optimal_cost(w)


def test_solver_rejects_unknown_policy() -> None:
    with pytest.raises(DomainError):
        hu_tucker((1, 2), "middle")


def test_phase1_rejects_shadow_length_mismatch() -> None:
    with pytest.raises(StructureError):
        hu_tucker_phase1((1, 2, 3), dyadic_shadow(2))
    with pytest.raises(StructureError):
        phase1_explicit_shadow((1, 2, 3), dyadic_shadow(4))


def test_phase1_rejects_a_shadow_that_cannot_break_a_tie() -> None:
    # Two leaves combine without a comparison; three compare two equal pairs
    # whose shadow sums are equal too.
    flat = ShadowVector((1, 1, 1))
    with pytest.raises(DomainError, match="step 1"):
        hu_tucker_phase1((1, 1, 1), flat)
    with pytest.raises(DomainError, match="step 1"):
        phase1_explicit_shadow((1, 1, 1), flat)


def test_solver_is_optimal_on_random_instances() -> None:
    rng = random.Random("alphabetic-optimal")
    for _ in range(250):
        n = rng.randint(1, 9)
        w = _random_vector(rng, n)
        for policy in (LEFTMOST, RIGHTMOST):
            tree, _ = hu_tucker(w, policy)
            assert tree is not None
            assert _leaves_in_order(tree) == tuple(range(1, n + 1))
            assert tree_cost(tree, w) == dp_optimal_cost(w)


def test_policy_and_explicit_runs_emit_identical_records() -> None:
    rng = random.Random("alphabetic-equiv")
    for _ in range(150):
        n = rng.randint(1, 9)
        w = _random_vector(rng, n)
        for policy in (LEFTMOST, RIGHTMOST):
            s = _shadow_for(policy, n)
            depths_a, trace_a = hu_tucker_phase1(w, s)
            depths_b, trace_b = phase1_explicit_shadow(w, s)
            assert depths_a == depths_b
            assert trace_a.records == trace_b.records


def test_mirrored_instances_solve_to_mirrored_trees() -> None:
    rng = random.Random("alphabetic-mirror")
    for _ in range(150):
        n = rng.randint(1, 9)
        w = _random_vector(rng, n)
        left, _ = hu_tucker(w, LEFTMOST)
        right, _ = hu_tucker(tuple(reversed(w)), RIGHTMOST)
        assert left is not None and right is not None
        assert tree_depths(left) == tuple(reversed(tree_depths(right)))


def test_every_record_is_unit_form_with_leading_minus_one() -> None:
    # The incumbent pair is always earlier in the sequence and always the
    # subtrahend, so the lowest-index coefficient of every functional is -1.
    rng = random.Random("alphabetic-records")
    for _ in range(80):
        n = rng.randint(3, 9)
        w = _random_vector(rng, n)
        for policy in (LEFTMOST, RIGHTMOST):
            _, trace = hu_tucker_phase1(w, _shadow_for(policy, n))
            assert trace.records, "with three or more leaves the fold compares"
            for rec in trace.records:
                coeffs = [c for _, c in rec.functional]
                assert coeffs and set(coeffs) <= {-1, 1}
                assert coeffs[0] == -1


def test_streaming_sink_sees_the_same_records() -> None:
    w = (1, 1, 2, Fraction(1, 2), 1)
    s = _shadow_for(LEFTMOST, 5)
    seen = []
    depths_a, none_trace = hu_tucker_phase1(w, s, on_record=seen.append)
    assert none_trace is None
    depths_b, trace = hu_tucker_phase1(w, s)
    assert depths_a == depths_b
    assert tuple(seen) == trace.records


def test_phase1_depths_always_reconstruct() -> None:
    rng = random.Random("alphabetic-feasible")
    for _ in range(200):
        n = rng.randint(1, 10)
        w = _random_vector(rng, n)
        policy = rng.choice((LEFTMOST, RIGHTMOST))
        depths, _ = hu_tucker_phase1(w, _shadow_for(policy, n))
        tree = reconstruct_from_depths(depths)
        assert tree is not None
        assert tree_depths(tree) == depths


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_phase1_depths_match_the_positional_oracle(family: str) -> None:
    # The heap loop must find the same minimum pair, round after round, as
    # an all-pairs scan with positional tie-breaking, up to the campaign's
    # largest size.
    for n in (1, 2, 3, 5, 8, 16, 24, 40, 80, 200):
        w = generate(Family(family), n, "phase1-oracle")
        for policy in (LEFTMOST, RIGHTMOST):
            depths, _ = hu_tucker_phase1(w, _shadow_for(policy, n))
            assert depths == _positional_phase1_depths(w, policy), (family, n, policy)


@pytest.mark.parametrize("policy", [LEFTMOST, RIGHTMOST])
def test_phase1_comparisons_grow_as_n_log_n(policy: str) -> None:
    # All-equal weights make every combinable pair a tie. Comparing every
    # combinable pair in every round takes 343,101 comparisons at n = 200;
    # the heaps need under 4,000.
    _, trace = hu_tucker_phase1((1,) * 200, _shadow_for(policy, 200))
    assert len(trace.records) <= 8000
