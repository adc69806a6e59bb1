"""Two-way number partitioning demo: instrumented greedy and an exact oracle.

The greedy heuristic sorts weights in nonincreasing order and drops each one
onto the currently lighter side. Both the sort and the side choice run
through the same comparison machinery as the tree solver: every executed
comparison is a linear functional recorded in a decision trace, and every
exact tie is settled by the shadow direction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import RationalLike, clear_denominators, require_nonnegative_weights
from .errors import CapacityError, StructureError
from .perturb import ShadowVector, dyadic_shadow
from .trace import DecisionTrace, RecordSink, recorder

BRUTE_FORCE_CAP = 16

#: An assignment maps each index to side 1 or side 2.
Assignment = tuple[int, ...]


def format_assignment(assignment: Assignment) -> str:
    return "".join(str(side) for side in assignment)


def partition_value(assignment: Assignment, w: Sequence[RationalLike]) -> Fraction:
    """Absolute difference of the two side sums."""
    if len(assignment) != len(w):
        raise StructureError(f"assignment covers {len(assignment)} indices but instance has {len(w)}")
    scale, scaled = clear_denominators(w)
    diff = 0
    for side, weight in zip(assignment, scaled):
        if side == 1:
            diff += weight
        elif side == 2:
            diff -= weight
        else:
            raise StructureError(f"assignment sides must be 1 or 2, got {side!r}")
    return Fraction(abs(diff), scale)


def brute_force_partition(w: Sequence[RationalLike]) -> Fraction:
    """Exact optimum over all 2^n assignments. Capped at n = 16.

    An assignment's value depends only on the sum s of one side, as
    |total - 2s|, so the oracle collects each distinct sum of the side
    without index 1 once and takes the minimum over that set, which is the
    minimum over every assignment. Ties shrink the set: 16 equal weights
    have 32,768 assignments with index 1 pinned but 16 distinct sums.
    """
    vec = require_nonnegative_weights(w)
    n = len(vec)
    if n > BRUTE_FORCE_CAP:
        raise CapacityError(f"brute force is capped at n = {BRUTE_FORCE_CAP}, got {n}")
    scale, scaled = clear_denominators(vec)
    total = sum(scaled)
    # Index 1 pinned to side 1; the value is symmetric under swapping sides.
    sums = {0}
    for x in scaled[1:]:
        sums |= {s + x for s in sums}
    best = min(abs(total - 2 * s) for s in sums)
    return Fraction(best, scale)


def greedy_partition(
    w: Sequence[RationalLike],
    s: ShadowVector | None = None,
    on_record: RecordSink | None = None,
) -> tuple[Assignment, DecisionTrace | None]:
    """Sorted greedy assignment with a full decision trace.

    Sorting uses insertion sort with explicit pairwise comparisons (the
    functional is the weight difference of the two indices); placement
    compares the running side difference (coefficients +1 on side 1, -1 on
    side 2) against zero. The shadow defaults to the positive dyadic
    direction, which keeps perturbed instances inside the nonnegative
    domain. When `on_record` is given, records stream to it and the
    returned trace is None; a placement's functional lists every index
    placed so far, so the full trace holds about n^2/2 support items.
    """
    n = len(w)
    # An empty vector gets no default shadow, so `recorder` reports it as empty.
    if s is None and n:
        s = dyadic_shadow(n)
    scaled, decide, finish = recorder(w, s, on_record)

    # Nonincreasing insertion sort; ties fall to the shadow, so the order is
    # total and the comparison sequence deterministic. `order` holds only
    # earlier indices, so each functional's items are already sorted.
    order: list[int] = []
    for index in range(1, n + 1):
        pos = len(order)
        while pos > 0:
            other = order[pos - 1]
            outcome = decide(((other, -1), (index, 1)), scaled[index - 1] - scaled[other - 1])
            if outcome > 0:
                pos -= 1
            else:
                break
        order.insert(pos, index)

    balance = 0  # side-1 total minus side-2 total, scaled
    side_items: list[tuple[int, int]] = []  # (index, +1 on side 1 or -1 on side 2)
    for index in order:
        # The first index meets two empty sides and no functional to compare.
        coeff = -1 if side_items and decide(sorted(side_items), balance) > 0 else 1
        balance += coeff * scaled[index - 1]
        side_items.append((index, coeff))

    assignment = tuple(1 if coeff > 0 else 2 for _, coeff in sorted(side_items))
    return assignment, finish()
