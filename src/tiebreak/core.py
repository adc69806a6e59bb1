"""Exact scalars, weight vectors, and sparse linear branching functionals.

Everything downstream (solvers, traces, the harness) works over arbitrary
precision rationals; no floats anywhere. Scalars are `fractions.Fraction`,
which already guarantees lowest terms, a positive denominator, and exact
arithmetic. The wire format is stricter than what `Fraction()` accepts, so
parsing goes through `parse_rational`.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import DomainError, FormatError, StructureError

RationalLike = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")

#: Decimal integers in config text and depth lists. int() would also take
#: "1_0", full-width digits and surrounding spaces.
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


def sign(x: RationalLike) -> int:
    """Sign of an exact scalar: -1, 0, or +1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def parse_rational(token: str) -> Fraction:
    """Parse `-7/3`, `42`, or `0`.

    Grammar: optional sign, integer, optionally `/` and a positive integer
    denominator. No whitespace anywhere inside the token.
    """
    if _RATIONAL_RE.match(token) is None:
        raise FormatError(f"malformed rational {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise FormatError(f"zero denominator in rational {token!r}") from None
    except ValueError:
        # int() refuses strings past sys.get_int_max_str_digits() digits.
        raise FormatError(f"rational has too many digits ({len(token)} characters)") from None


def _parse_int(value: str) -> int:
    if not _INT_RE.match(value):
        raise FormatError(f"expected an integer, got {value!r}")
    try:
        return int(value)
    except ValueError:
        # int() refuses strings past sys.get_int_max_str_digits() digits.
        raise FormatError(f"integer has too many digits ({len(value)} characters)") from None


def format_rational(q: RationalLike) -> str:
    """Canonical text for a rational: no `/1` suffix, no spaces.

    A numerator or denominator with more digits than Python converts to
    text (`sys.get_int_max_str_digits()`, 4,300 by default) is a
    FormatError, as it is for `parse_rational`.
    """
    q = Fraction(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise FormatError("rational has too many digits to print") from None


def require_nonnegative_weights(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """Coerce exact numbers into a weight vector of at least one nonnegative entry."""
    w = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
    if not w:
        raise StructureError("weight vector must have at least one entry")
    for i, x in enumerate(w, start=1):
        if x < 0:
            raise DomainError(f"weight {i} is negative: {format_rational(x)}")
    return w


def clear_denominators(values: Sequence[RationalLike]) -> tuple[int, list[int]]:
    """Common positive scale L and the integer vector [L * v_i].

    Lets hot loops run on plain ints; dividing by L recovers exact values.
    """
    # An int has numerator and denominator too, so it needs no Fraction.
    fractions = [v if type(v) is Fraction or type(v) is int else Fraction(v) for v in values]
    scale = lcm(*(x.denominator for x in fractions)) if fractions else 1
    return scale, [x.numerator * (scale // x.denominator) for x in fractions]


class LinearFunctional(tuple):
    """Sparse linear map from weight vectors to rationals.

    The instance is the tuple of its signed items: the nonzero (index,
    coefficient) pairs in increasing 1-based index order, zero coefficients
    dropped at construction. Equality and hashing are the tuple's, so they
    are structural on the support and run in C; solvers mint one functional
    per comparison, and the replay audits compare them record by record.
    Instances are immutable and carry no `__dict__`.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Mapping[int, RationalLike] | Iterable[tuple[int, RationalLike]]):
        if isinstance(coeffs, Mapping):
            pairs = coeffs.items()
        else:
            pairs = tuple(coeffs)
        items = []
        for index, coeff in pairs:
            if not isinstance(index, int) or isinstance(index, bool) or index < 1:
                raise StructureError(f"functional index must be a positive int, got {index!r}")
            if coeff:
                items.append((index, coeff))
        items.sort()
        for (a, _), (b, _) in zip(items, items[1:]):
            if a == b:
                raise StructureError(f"duplicate functional index {a}")
        return tuple.__new__(cls, items)

    # Solver-internal fast path, `_trusted(items)`: the items must already be
    # sorted, duplicate free, zero free, and 1-based. The validating
    # constructor costs more than the comparison loops it sits in can afford.
    _trusted = classmethod(tuple.__new__)

    def items(self) -> tuple[tuple[int, RationalLike], ...]:
        """Nonzero (index, coefficient) pairs in increasing index order.

        The package reads the tuple directly; `benchmarks/tracer.py` counts
        each record's support through this method.
        """
        return tuple(self)

    def max_index(self) -> int:
        """Largest referenced index; 0 for the zero functional."""
        return self[-1][0] if self else 0

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {format_rational(c)}" for i, c in self)
        return f"LinearFunctional({{{body}}})"

