"""Shadow directions and the domain step cap."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tiebreak.alphabetic import hu_tucker_phase1, phase1_explicit_shadow
from tiebreak.errors import DomainError, StructureError
from tiebreak.harness import ALL_EQUAL, Family, leaves_family
from tiebreak.partition import greedy_partition
from tiebreak.perturb import NEGATIVE, ShadowVector, dyadic_shadow, max_step_in_domain
from tiebreak.trace import DecisionTrace, stability_witness, verify_policy


def test_dyadic_shadow_entries() -> None:
    assert dyadic_shadow(3).entries == (8, 4, 2)
    assert dyadic_shadow(3, NEGATIVE).entries == (-8, -4, -2)
    assert dyadic_shadow(1).entries == (2,)
    assert dyadic_shadow(3) == ShadowVector((8, 4, 2))


def test_dyadic_entries_dominate_their_tail() -> None:
    # Each magnitude strictly exceeds the sum of all later ones, which is
    # what makes the lowest-index coefficient decide any unit-form sign.
    for n in (1, 2, 3, 7, 20):
        entries = dyadic_shadow(n).entries
        for i in range(n):
            assert entries[i] > sum(entries[i + 1 :])


def test_dyadic_shadow_rejects_bad_arguments() -> None:
    with pytest.raises(DomainError):
        dyadic_shadow(0)
    with pytest.raises(DomainError):
        dyadic_shadow(3, "sideways")


def test_shadow_vector_must_be_nonempty() -> None:
    for make in (lambda: ShadowVector(()), lambda: ShadowVector(entries=())):
        with pytest.raises(DomainError, match="shadow vector must have at least one entry"):
            make()


@pytest.mark.parametrize(
    "entries", [(Fraction(1, 2), 0.25, 1), (True, 2), (4, False), (1, "2"), (1, None), (1, 2 + 0j)]
)
def test_shadow_vector_takes_only_exact_entries(entries) -> None:
    # A float entry used to be accepted: phase 1 then settled ties in float
    # arithmetic, and the audits raised AttributeError on `.denominator`.
    with pytest.raises(StructureError, match="shadow entries must be ints or Fractions"):
        ShadowVector(entries)


def test_shadow_vector_stores_a_tuple() -> None:
    s = ShadowVector([4, Fraction(1, 3), -2])
    assert s.entries == (4, Fraction(1, 3), -2)
    assert type(s.entries) is tuple
    assert s == ShadowVector((4, Fraction(1, 3), -2))


def test_max_step_in_domain() -> None:
    w = [Fraction(1), Fraction(2), Fraction(3)]
    assert max_step_in_domain(w, dyadic_shadow(3)) is None
    assert max_step_in_domain(w, dyadic_shadow(3, NEGATIVE)) == Fraction(1, 8)
    assert max_step_in_domain([Fraction(0)], dyadic_shadow(1, NEGATIVE)) == 0
    assert max_step_in_domain([Fraction(0)], dyadic_shadow(1)) is None


def _max_step_in_fractions(w, s):
    """Reference: the minimum of w_i / -s_i over negative s_i, in Fractions."""
    caps = [Fraction(wi) / -Fraction(si) for wi, si in zip(w, s.entries) if si < 0]
    return min(caps) if caps else None


def test_max_step_agrees_with_fraction_arithmetic() -> None:
    rng = random.Random("perturb-cap-fractions")

    def rational(lo: int) -> Fraction:
        return Fraction(rng.randint(lo, 30), rng.randint(1, 9))

    for _ in range(300):
        n = rng.randint(1, 8)
        w = [rational(0) for _ in range(n)]
        # Fractional shadow entries of both signs, and some zero entries.
        s = ShadowVector(tuple(rational(-30) for _ in range(n)))
        assert max_step_in_domain(w, s) == _max_step_in_fractions(w, s)
        # Int weights and shadow entries take the same path.
        ints = [rng.randint(0, 9) for _ in range(n)]
        s = ShadowVector(tuple(rng.randint(-9, 9) for _ in range(n)))
        assert max_step_in_domain(ints, s) == _max_step_in_fractions(ints, s)
    # A zero weight under a negative entry caps the step at 0.
    s = ShadowVector((Fraction(-1, 3), Fraction(-5, 2), Fraction(1, 7)))
    cap = max_step_in_domain([Fraction(4, 5), Fraction(0), Fraction(2)], s)
    assert cap == 0 and type(cap) is Fraction
    # No negative entry: the step is unbounded.
    s = ShadowVector((Fraction(1, 3), 0, Fraction(5, 2)))
    assert max_step_in_domain([Fraction(0), Fraction(1, 2), Fraction(0)], s) is None
    assert max_step_in_domain(
        [Fraction(3, 4), Fraction(1, 6)], ShadowVector((Fraction(-1, 2), Fraction(-2, 9)))
    ) == Fraction(3, 4)


def test_max_step_keeps_the_vector_nonnegative() -> None:
    rng = random.Random("perturb-cap")
    for _ in range(100):
        n = rng.randint(1, 6)
        w = [Fraction(rng.randint(0, 12), 1 << rng.randint(0, 2)) for _ in range(n)]
        s = dyadic_shadow(n, NEGATIVE)
        cap = max_step_in_domain(w, s)
        assert cap is not None
        assert all(wi + cap * si >= 0 for wi, si in zip(w, s.entries))
        past = cap + Fraction(1, 997)
        assert any(wi + past * si < 0 for wi, si in zip(w, s.entries))


@pytest.mark.parametrize(
    "run",
    [
        lambda w, s: hu_tucker_phase1(w, s),
        lambda w, s: phase1_explicit_shadow(w, s),
        lambda w, s: greedy_partition(w, s),
        lambda w, s: verify_policy(DecisionTrace(n=len(w), records=()), w, s),
        lambda w, s: stability_witness(DecisionTrace(n=len(w), records=()), w, s),
        lambda w, s: max_step_in_domain(w, s),
        lambda w, s: leaves_family(Family(ALL_EQUAL), w, s, Fraction(1, 100)),
    ],
    ids=[
        "hu_tucker_phase1",
        "phase1_explicit_shadow",
        "greedy_partition",
        "verify_policy",
        "stability_witness",
        "max_step_in_domain",
        "leaves_family",
    ],
)
def test_every_entry_point_rejects_a_shadow_of_another_length(run) -> None:
    # Zipping weights with a short shadow would silently drop the extra
    # weights: max_step_in_domain((1, 2, 3), (-1,)) used to answer 1.
    w = (Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(StructureError, match="instance has 3 weights but shadow has 1"):
        run(w, ShadowVector((-1,)))
    with pytest.raises(StructureError, match="instance has 3 weights but shadow has 2"):
        run(w, ShadowVector((-8, -4)))
    # A plain tuple of the right length is no shadow either; it used to
    # raise a bare AttributeError on `.entries`.
    with pytest.raises(StructureError, match=r"shadow must be a ShadowVector, got \(-8, -4, -2\)"):
        run(w, (-8, -4, -2))
