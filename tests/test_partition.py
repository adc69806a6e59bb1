"""Greedy two-way partition demo and its exhaustive oracle."""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from tiebreak.errors import CapacityError, DomainError, StructureError
from tiebreak.harness import FAMILY_NAMES, Family, generate
from tiebreak.partition import (
    BRUTE_FORCE_CAP,
    brute_force_partition,
    format_assignment,
    greedy_partition,
    partition_value,
)
from tiebreak.perturb import NEGATIVE, POSITIVE, ShadowVector, dyadic_shadow
from tiebreak.trace import dump_trace, load_trace, stability_witness, verify_policy


def test_assignment_text_roundtrip() -> None:
    assert format_assignment((1, 2, 2, 1)) == "1221"


def test_partition_value_is_absolute_difference() -> None:
    w = (3, 1, 4)
    assert partition_value((1, 2, 1), w) == abs(3 + 4 - 1)
    assert partition_value((2, 1, 2), w) == abs(3 + 4 - 1)
    assert partition_value((1, 2), (Fraction(1, 2), Fraction(1, 2))) == 0
    with pytest.raises(StructureError):
        partition_value((1, 2), w)
    with pytest.raises(StructureError):
        partition_value((1, 2, 3), w)


def _fraction_sum_value(assignment, w) -> Fraction:
    """Reference: one Fraction added or subtracted per index."""
    diff = Fraction(0)
    for side, weight in zip(assignment, w):
        diff += Fraction(weight) if side == 1 else -Fraction(weight)
    return abs(diff)


def test_partition_value_matches_fraction_sum() -> None:
    rng = random.Random("partition-value")
    for _ in range(300):
        n = rng.randint(1, 16)
        w = tuple(Fraction(rng.choice((0, 0, 1, 3, 7, 12)), rng.choice((1, 2, 3, 8))) for _ in range(n))
        assignment = tuple(rng.choice((1, 2)) for _ in range(n))
        assert partition_value(assignment, w) == _fraction_sum_value(assignment, w)


def test_brute_force_frozen_values() -> None:
    assert brute_force_partition((3, 1, 1, 2, 2, 1)) == 0
    assert brute_force_partition((1, 2, 4)) == 1
    assert brute_force_partition((Fraction(5),)) == 5
    with pytest.raises(CapacityError):
        brute_force_partition([1] * (BRUTE_FORCE_CAP + 1))


def _every_assignment_optimum(w) -> Fraction:
    """Reference: the value of each of the 2^n assignments, over one scale."""
    scale = math.lcm(*(Fraction(x).denominator for x in w))
    scaled = [int(Fraction(x) * scale) for x in w]
    best = min(abs(sum(map(mul, signs, scaled))) for signs in product((1, -1), repeat=len(w)))
    return Fraction(best, scale)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_brute_force_matches_every_assignment_per_family(family: str) -> None:
    for n in range(1, 13):
        w = generate(Family(family), n, "partition-assignments")
        assert brute_force_partition(w) == _every_assignment_optimum(w), (family, n)


def test_brute_force_matches_every_assignment_on_zeros_and_fractions() -> None:
    rng = random.Random("partition-assignments")
    for _ in range(40):
        n = rng.randint(1, 12)
        zeros = tuple(
            Fraction(rng.choice((0, 0, 0, 1, 2, 5)), rng.choice((1, 3))) for _ in range(n)
        )
        fractions = tuple(Fraction(rng.randint(0, 30), rng.randint(1, 12)) for _ in range(n))
        for w in (zeros, fractions):
            assert brute_force_partition(w) == _every_assignment_optimum(w), w
    assert brute_force_partition((0,) * 12) == 0


@pytest.mark.parametrize("family", ["all-equal", "uniform-random"])
def test_brute_force_matches_every_assignment_at_the_cap(family: str) -> None:
    w = generate(Family(family), BRUTE_FORCE_CAP, "partition-cap")
    assert brute_force_partition(w) == _every_assignment_optimum(w)


def test_greedy_frozen_instance() -> None:
    w = (3, 1, 1, 2, 2, 1)
    assignment, trace = greedy_partition(w)
    assert format_assignment(assignment) == "112221"
    assert partition_value(assignment, w) == 0
    assert trace.n == 6
    assert trace.records


def test_greedy_single_item() -> None:
    assignment, trace = greedy_partition((Fraction(7),))
    assert assignment == (1,)
    assert trace.records == ()


def test_greedy_is_deterministic() -> None:
    w = tuple(Fraction(k, 3) for k in (5, 5, 2, 8, 1, 1))
    first = greedy_partition(w)
    second = greedy_partition(w)
    assert first[0] == second[0]
    assert first[1].records == second[1].records


def test_greedy_handles_all_equal_weights() -> None:
    w = (Fraction(2),) * 8
    assignment, trace = greedy_partition(w)
    assert partition_value(assignment, w) == 0
    assert any(rec.tie for rec in trace.records)


def test_greedy_rejects_short_shadow() -> None:
    with pytest.raises(StructureError):
        greedy_partition((1, 2, 3), dyadic_shadow(2))


def test_greedy_traces_verify_and_bound_holds() -> None:
    rng = random.Random("partition-oracle")
    for _ in range(120):
        n = rng.randint(1, 10)
        w = tuple(Fraction(rng.randint(0, 12), 1 << rng.randint(0, 2)) for _ in range(n))
        assignment, trace = greedy_partition(w)
        s = dyadic_shadow(n)
        report = verify_policy(trace, w, s)
        assert report.passed, report.first_failure
        value, brute = partition_value(assignment, w), brute_force_partition(w)
        assert value >= brute
        # Largest-first greedy's makespan, (total + value) / 2, is at most
        # 7/6 of the optimum (Graham, SIAM J. Appl. Math. 17, 1969).
        total = sum(w, Fraction(0))
        assert total + value <= Fraction(7, 6) * (total + brute)
        step = stability_witness(trace, w, s, verified=True)
        if trace.records:
            _, replay = greedy_partition(tuple(x + step * e for x, e in zip(w, s.entries)))
            assert not any(rec.tie for rec in replay.records)
            assert [r.realized_sign for r in replay.records] == [r.realized_sign for r in trace.records]


def test_greedy_reaches_the_seven_sixths_bound_exactly() -> None:
    # Greedy puts 3 | 3, then 2 | 2, then 2 on either side: makespan 7,
    # against 6 for {3, 3} | {2, 2, 2}.
    w = (3, 3, 2, 2, 2)
    assignment, _ = greedy_partition(w)
    value, brute = partition_value(assignment, w), brute_force_partition(w)
    assert (value, brute) == (2, 0)
    assert sum(w) + value == Fraction(7, 6) * (sum(w) + brute)


def test_greedy_alternate_shadow_direction_still_verifies() -> None:
    w = (2, 2, 2, 2)
    s = dyadic_shadow(4, NEGATIVE)
    _, trace = greedy_partition(w, s)
    assert verify_policy(trace, w, s).passed


#: sha256 of `dump_trace` for one greedy run per (family, n, orientation),
#: seed "record-stream"; POSITIVE is the default shadow. Like the solver's,
#: the partition record stream is part of the contract.
FROZEN_TRACE_DIGESTS = {
    ("all-equal", 40, POSITIVE): "1484992e0a089710921f2efdfddc7ca852915925569a82f1afcdc0ee417797db",
    ("all-equal", 40, NEGATIVE): "4f74d5d81c6d6961c8c0893b47683ba852969a5b0cff5601f02507a1d5e13b79",
    ("pair-sum-ties", 33, POSITIVE): "9e84047ed36c8121be5f2341e1626554e7f81d0cce08398110220ac1e0b1dc58",
    ("pair-sum-ties", 33, NEGATIVE): "2616f4460b1867e9fff10f9bc134aba2707c571465a57762137474587229687f",
    ("equal-blocks:3", 40, POSITIVE): "114624d2df5afcbf57dbddd8f344ae68faff9bfc9e1a33b31419db364f1c7516",
    ("equal-blocks:3", 40, NEGATIVE): "70ad5e40089bbc2b6bc0278cbe0216e6d023ec79cec289cdb9d7d7d7ed37338a",
    ("uniform-random", 40, POSITIVE): "d7dac33cebf500cc369e82e5ac3ce381003399b32bebb1b0de61f9bd53a21aac",
    ("uniform-random", 40, NEGATIVE): "94076825373821982ccb1c666bb8b33cd037b33866c41d091633e58661d39747",
}


@pytest.mark.parametrize("token,n,orientation", sorted(FROZEN_TRACE_DIGESTS))
def test_greedy_record_stream_is_frozen(token: str, n: int, orientation: str) -> None:
    w = generate(Family.parse(token), n, "record-stream")
    s = None if orientation == POSITIVE else dyadic_shadow(n, orientation)
    _, trace = greedy_partition(w, s)
    text = dump_trace(trace)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == FROZEN_TRACE_DIGESTS[token, n, orientation]
    assert dump_trace(load_trace(text, n)) == text


@pytest.mark.parametrize("token,n,orientation", sorted(FROZEN_TRACE_DIGESTS))
def test_greedy_streams_the_frozen_records_to_a_sink(token: str, n: int, orientation: str) -> None:
    w = generate(Family.parse(token), n, "record-stream")
    s = None if orientation == POSITIVE else dyadic_shadow(n, orientation)
    seen = []
    assignment, none_trace = greedy_partition(w, s, on_record=seen.append)
    assert none_trace is None
    stored_assignment, trace = greedy_partition(w, s)
    assert assignment == stored_assignment
    assert tuple(seen) == trace.records


def test_greedy_rejects_a_shadow_that_cannot_break_a_tie() -> None:
    # Both sort keys are equal and so are both shadow entries: no sign exists.
    with pytest.raises(DomainError):
        greedy_partition((1, 1), ShadowVector((1, 1)))
