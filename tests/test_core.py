"""Scalar parsing, weight vectors, and LinearFunctional behavior."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from tiebreak.core import (
    LinearFunctional,
    clear_denominators,
    format_rational,
    parse_rational,
    require_nonnegative_weights,
    sign,
)
from tiebreak.alphabetic import tree_cost
from tiebreak.errors import DomainError, FormatError, StructureError
from tiebreak.harness import check_instance, check_lipschitz
from tiebreak.partition import partition_value
from tiebreak.perturb import dyadic_shadow
from tiebreak.trace import DecisionTrace, verify_policy

#: More digits than int() converts from text by default (4,300).
HUGE = "1" * 5000


def test_sign_covers_all_three_outcomes() -> None:
    assert sign(Fraction(3, 7)) == 1
    assert sign(0) == 0
    assert sign(Fraction(-1, 1000)) == -1
    assert sign(-5) == -1


@pytest.mark.parametrize(
    "token, value",
    [
        ("42", Fraction(42)),
        ("0", Fraction(0)),
        ("-7/3", Fraction(-7, 3)),
        ("+5/10", Fraction(1, 2)),
        ("007", Fraction(7)),
        ("-0", Fraction(0)),
    ],
)
def test_parse_rational_accepts(token: str, value: Fraction) -> None:
    assert parse_rational(token) == value


@pytest.mark.parametrize(
    "token",
    ["", "1.5", "a", "1/ 2", " 1", "1/", "/2", "1//2", "1/-2", "0x10", "1e3"],
)
def test_parse_rational_rejects(token: str) -> None:
    with pytest.raises(FormatError):
        parse_rational(token)


def test_parse_rational_rejects_zero_denominator() -> None:
    with pytest.raises(FormatError, match="zero denominator"):
        parse_rational("3/0")


@pytest.mark.parametrize("token", [HUGE, f"1/{HUGE}", f"-{HUGE}/7"], ids=["num", "den", "signed"])
def test_parse_rational_rejects_tokens_past_the_digit_limit(token: str) -> None:
    # int() raises a bare ValueError past sys.get_int_max_str_digits() digits.
    with pytest.raises(FormatError, match="too many digits"):
        parse_rational(token)


def test_format_rational_canonical() -> None:
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(0) == "0"
    assert format_rational(7) == "7"


@pytest.mark.parametrize(
    "value", [10**5000, Fraction(1, 10**5000), Fraction(-(10**5000), 7)], ids=["num", "den", "signed"]
)
def test_format_rational_rejects_values_past_the_digit_limit(value: Fraction) -> None:
    # str() raises a bare ValueError past sys.get_int_max_str_digits() digits.
    with pytest.raises(FormatError, match="too many digits"):
        format_rational(value)


def test_format_parse_roundtrip_random() -> None:
    rng = random.Random("core-roundtrip")
    for _ in range(200):
        q = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert parse_rational(format_rational(q)) == q


def test_require_nonnegative_weights_coerces_and_requires_an_entry() -> None:
    w = require_nonnegative_weights([1, Fraction(1, 2)])
    assert w == (Fraction(1), Fraction(1, 2))
    assert all(type(x) is Fraction for x in w)
    with pytest.raises(StructureError):
        require_nonnegative_weights([])


def test_require_nonnegative_weights_names_the_offender() -> None:
    with pytest.raises(DomainError, match="weight 2"):
        require_nonnegative_weights([Fraction(1), Fraction(-1, 3)])
    assert require_nonnegative_weights([0, 1]) == (Fraction(0), Fraction(1))


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1", None], ids=repr)
def test_exact_vectors_take_only_ints_and_fractions(bad: object) -> None:
    # A float would be read as its binary expansion, and a bool as 0 or 1.
    for convert in (require_nonnegative_weights, clear_denominators):
        with pytest.raises(StructureError, match=re.escape(f"weight must be an exact int or Fraction, got {bad!r}")):
            convert([Fraction(1), bad])
    with pytest.raises(StructureError, match="functional coefficient must be an exact int or Fraction"):
        LinearFunctional({1: 1, 2: bad})


@pytest.mark.parametrize(
    "run",
    [
        lambda: check_instance((0.1, 0.2, 0.3), "leftmost"),
        lambda: tree_cost((1, 2), (0.5, 0.25)),
        lambda: partition_value((1, 2), (0.5, 0.25)),
        lambda: verify_policy(DecisionTrace(n=3, records=()), (1.0, 1.0, 1.0), dyadic_shadow(3)),
        lambda: check_lipschitz((1, 2), (0.5, 0)),
        lambda: LinearFunctional({1: 0.5, 2: True}),
    ],
    ids=["check_instance", "tree_cost", "partition_value", "verify_policy", "check_lipschitz", "LinearFunctional"],
)
def test_every_exact_entry_point_rejects_floats(run) -> None:
    # Each of these once ran on a float's binary expansion: check_instance
    # passed (0.1, 0.2, 0.3) with cost 8106479329266893/9007199254740992.
    with pytest.raises(StructureError, match=r"must be an exact int or Fraction, got (0\.5|0\.1|1\.0)$"):
        run()


def test_clear_denominators() -> None:
    scale, scaled = clear_denominators([Fraction(1, 2), Fraction(1, 3), 2])
    assert scale == 6
    assert scaled == [3, 2, 12]
    assert all(isinstance(x, int) for x in scaled)

    scale, scaled = clear_denominators([5, 7])
    assert scale == 1
    assert scaled == [5, 7]


def test_clear_denominators_recovers_exact_values() -> None:
    rng = random.Random("core-clear")
    for _ in range(100):
        vec = [Fraction(rng.randint(0, 60), rng.randint(1, 24)) for _ in range(8)]
        scale, scaled = clear_denominators(vec)
        assert [Fraction(x, scale) for x in scaled] == vec


def test_functional_drops_zeros_and_sorts() -> None:
    f = LinearFunctional({3: 1, 1: -1, 2: 0})
    assert f.items() == ((1, -1), (3, 1))
    assert f == ((1, -1), (3, 1))
    assert f.max_index() == 3


def test_functional_from_pairs_equals_mapping_form() -> None:
    assert LinearFunctional([(2, 5), (1, -3)]) == LinearFunctional({1: -3, 2: 5})


def test_functional_zero_and_non_unit_forms() -> None:
    zero = LinearFunctional({})
    assert zero == () and not zero
    assert zero.max_index() == 0
    assert LinearFunctional({1: 2}) == ((1, 2),)


@pytest.mark.parametrize("index", [0, -1, True, "1", Fraction(1)])
def test_functional_rejects_bad_indices(index: object) -> None:
    with pytest.raises(StructureError):
        LinearFunctional([(index, 1)])  # type: ignore[list-item]


def test_functional_rejects_duplicate_indices() -> None:
    with pytest.raises(StructureError, match="duplicate"):
        LinearFunctional([(2, 1), (2, 1)])


def test_functional_is_immutable() -> None:
    f = LinearFunctional({1: 1})
    with pytest.raises(AttributeError):
        f._items = ()  # type: ignore[misc]


def test_functional_equality_and_hash_are_structural() -> None:
    a = LinearFunctional({1: -1, 2: 1})
    b = LinearFunctional([(2, 1), (1, -1), (5, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != LinearFunctional({1: -1})
    assert a != "not a functional"
    assert len({a, b}) == 1


def test_functional_repr_shows_coefficients() -> None:
    assert repr(LinearFunctional({2: Fraction(1, 2)})) == "LinearFunctional({2: 1/2})"
