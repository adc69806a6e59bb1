"""Shadow directions for symbolic tie-breaking, and the domain step cap.

A comparison that lands exactly on zero is re-judged in a shadow direction;
the rule itself is `trace.recorder`. The dyadic shadows (2^n, ..., 2^1) and
their entrywise negation make every unit-form functional nonzero, because
each entry strictly dominates the sum of all entries to its right.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .core import RationalLike
from .errors import DomainError, StructureError

POSITIVE = "positive"
NEGATIVE = "negative"

ORIENTATIONS = (POSITIVE, NEGATIVE)


class ShadowVector(namedtuple("ShadowVector", "entries")):
    """A direction used to resolve exact ties: entry i perturbs weight i.

    A named tuple of one field, so it is immutable and compares and hashes
    by value. Pickle and copy rebuild through the checking constructor.
    Entries are exact: each is an int (not a bool) or a Fraction.
    """

    __slots__ = ()

    def __new__(cls, entries: Sequence[RationalLike]):
        entries = tuple(entries)
        if not entries:
            raise DomainError("shadow vector must have at least one entry")
        for e in entries:
            if not isinstance(e, (int, Fraction)) or isinstance(e, bool):
                raise StructureError(f"shadow entries must be ints or Fractions, got {e!r}")
        return tuple.__new__(cls, (entries,))


def check_shadow_length(n: int, s: ShadowVector) -> None:
    """Raise StructureError unless `s` has one entry for each of n weights."""
    if len(s.entries) != n:
        raise StructureError(f"instance has {n} weights but shadow has {len(s.entries)}")


def dyadic_shadow(n: int, orientation: str = POSITIVE) -> ShadowVector:
    """Dyadic direction of length n: entry i is 2^(n+1-i), negated for NEGATIVE.

    dyadic_shadow(3) has entries (8, 4, 2). Entry magnitudes strictly
    decrease, so the lowest-index nonzero coefficient of any functional
    decides the sign of its shadow evaluation.
    """
    if n < 1:
        raise DomainError(f"shadow length must be at least 1, got {n}")
    if orientation not in ORIENTATIONS:
        raise DomainError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
    scale = 1 if orientation == POSITIVE else -1
    return ShadowVector(tuple(scale * (1 << (n + 1 - i)) for i in range(1, n + 1)))


def max_step_in_domain(w: Sequence[RationalLike], s: ShadowVector) -> Fraction | None:
    """Largest step a keeping every entry of w + a*s nonnegative.

    Returns None when unbounded (no negative shadow entry pushes a weight
    down), and 0 when any boundary entry (weight 0) moves negative
    immediately. A shadow of another length than w raises StructureError.
    """
    check_shadow_length(len(w), s)
    # The running minimum of w_i / -s_i is the pair ln / ld, ld > 0, compared
    # by cross-multiplication; one Fraction is built at the end.
    ln = ld = None
    for wi, si in zip(w, s.entries):
        if si < 0:
            cn = wi.numerator * si.denominator
            cd = -si.numerator * wi.denominator
            if ln is None or cn * ld < ln * cd:
                ln, ld = cn, cd
    return None if ln is None else Fraction(ln, ld)
