"""Shadow directions and the domain step cap."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tiebreak.errors import DomainError
from tiebreak.perturb import CUSTOM, NEGATIVE, POSITIVE, ShadowVector, dyadic_shadow, max_step_in_domain


def test_dyadic_shadow_entries() -> None:
    assert dyadic_shadow(3).entries == (8, 4, 2)
    assert dyadic_shadow(3, NEGATIVE).entries == (-8, -4, -2)
    assert dyadic_shadow(1).entries == (2,)
    assert dyadic_shadow(3).orientation == POSITIVE


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
    with pytest.raises(DomainError):
        ShadowVector(())
    assert ShadowVector((1, 2)).orientation == CUSTOM


def test_max_step_in_domain() -> None:
    w = [Fraction(1), Fraction(2), Fraction(3)]
    assert max_step_in_domain(w, dyadic_shadow(3)) is None
    assert max_step_in_domain(w, dyadic_shadow(3, NEGATIVE)) == Fraction(1, 8)
    assert max_step_in_domain([Fraction(0)], dyadic_shadow(1, NEGATIVE)) == 0
    assert max_step_in_domain([Fraction(0)], dyadic_shadow(1)) is None


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
