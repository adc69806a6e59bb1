"""Degenerate-instance generators and the randomized certification campaign.

The solver's guarantees are exercised exactly where naive implementations
break: all-equal weights, repeated blocks, sprinkled zeros, tied pair sums,
palindromes. `check_instance` runs one weight vector through the full
gauntlet (solve, reconstruct, compare against the DP oracle, audit the
trace, replay with explicit two-component arithmetic, replay at the
perturbed instance) and `run_campaign` drives thousands of such checks from
a single integer seed, byte-reproducibly. The campaign also settles, by
experiment against a direct positional implementation, which shadow
orientation realizes which tie policy.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, sub
from typing import Sequence

from .alphabetic import (
    LEFTMOST,
    POLICIES,
    POLICY_ORIENTATION,
    RIGHTMOST,
    brute_force_optimal,
    dp_optimal_cost,
    hu_tucker_phase1,
    phase1_depths,
    phase1_explicit_shadow,
    reconstruct_from_depths,
    tree_cost,
    tree_depths,
)
from .core import (
    RationalLike,
    _INT_RE,
    _parse_int,
    clear_denominators,
    format_rational,
    parse_rational,
    require_nonnegative_weights,
)
from .errors import DomainError, FormatError, PolicyMismatchError, StructureError
from .perturb import NEGATIVE, POSITIVE, ShadowVector, dyadic_shadow, max_step_in_domain
from .trace import DecisionTrace, stability_witness

#: Brute-force cross-checks stop here; the DP oracle carries on alone above.
ORACLE_CAP = 11

ALL_EQUAL = "all-equal"
EQUAL_BLOCKS = "equal-blocks"
ZERO_SPRINKLED = "zero-sprinkled"
PAIR_SUM_TIES = "pair-sum-ties"
PALINDROME = "palindrome"
UNIFORM_RANDOM = "uniform-random"

FAMILY_NAMES = (
    ALL_EQUAL,
    EQUAL_BLOCKS,
    ZERO_SPRINKLED,
    PAIR_SUM_TIES,
    PALINDROME,
    UNIFORM_RANDOM,
)

#: Families whose vectors satisfy at least one nontrivial linear equality.
DEGENERATE_FAMILIES = frozenset(FAMILY_NAMES) - {UNIFORM_RANDOM}

_MAX_BLOCKS = 64


@dataclass(frozen=True, slots=True)
class Family:
    """An instance family plus its parameters, e.g. `equal-blocks:3`."""

    name: str
    block_count: int = 3
    zero_fraction: Fraction = Fraction(1, 4)

    def __post_init__(self) -> None:
        if self.name not in FAMILY_NAMES:
            raise StructureError(f"unknown instance family {self.name!r}")
        if not 2 <= self.block_count <= _MAX_BLOCKS:
            raise StructureError(
                f"block count must be in 2..{_MAX_BLOCKS}, got {self.block_count}"
            )
        if not 0 < self.zero_fraction <= 1:
            raise StructureError(
                f"zero fraction must be in (0, 1], got {format_rational(self.zero_fraction)}"
            )

    def token(self) -> str:
        if self.name == EQUAL_BLOCKS:
            return f"{self.name}:{self.block_count}"
        if self.name == ZERO_SPRINKLED:
            return f"{self.name}:{format_rational(self.zero_fraction)}"
        return self.name

    @classmethod
    def parse(cls, token: str) -> "Family":
        name, has_param, param = token.partition(":")
        if name not in FAMILY_NAMES:
            raise FormatError(f"unknown instance family {name!r}")
        if name == EQUAL_BLOCKS:
            if not has_param:
                return cls(name)
            if not _INT_RE.match(param):
                raise FormatError(f"block count must be an integer, got {param!r}")
            return cls(name, block_count=_parse_int(param))
        if name == ZERO_SPRINKLED:
            if not has_param:
                return cls(name)
            return cls(name, zero_fraction=parse_rational(param))
        if has_param:
            raise FormatError(f"family {name} takes no parameter")
        return cls(name)


def _random_dyadic(rng: random.Random, *, allow_zero: bool = True) -> Fraction:
    # k / 2^m with small k, m: exact DP stays cheap, collisions stay common.
    return Fraction(rng.randint(0 if allow_zero else 1, 48), 1 << rng.randint(0, 4))


def generate(family: Family, n: int, seed: int | str) -> tuple[Fraction, ...]:
    """Deterministic weight vector for (family, n, seed)."""
    if n < 1:
        raise DomainError(f"instance size must be at least 1, got {n}")
    rng = random.Random(f"{family.token()}|{n}|{seed}")
    name = family.name
    if name == ALL_EQUAL:
        return (Fraction(1),) * n

    if name == EQUAL_BLOCKS:
        k = min(family.block_count, n)
        values: list[Fraction] = []
        while len(values) < k:
            x = _random_dyadic(rng, allow_zero=False)
            if x not in values:
                values.append(x)
        cuts = sorted(rng.sample(range(1, n), k - 1))
        bounds = [0, *cuts, n]
        out: list[Fraction] = []
        for value, lo, hi in zip(values, bounds, bounds[1:]):
            out.extend([value] * (hi - lo))
        return tuple(out)

    if name == ZERO_SPRINKLED:
        base = [_random_dyadic(rng, allow_zero=False) for _ in range(n)]
        zero_count = int(family.zero_fraction * n)
        for pos in rng.sample(range(n), zero_count):
            base[pos] = Fraction(0)
        return tuple(base)

    if name == PAIR_SUM_TIES:
        a = _random_dyadic(rng, allow_zero=False)
        b = _random_dyadic(rng, allow_zero=False)
        for _ in range(8):
            if b != a:
                break
            b = _random_dyadic(rng, allow_zero=False)
        return tuple(a if i % 2 == 0 else b for i in range(n))

    if name == PALINDROME:
        half = [_random_dyadic(rng, allow_zero=False) for _ in range((n + 1) // 2)]
        return tuple(half + half[: n // 2][::-1])

    return tuple(_random_dyadic(rng) for _ in range(n))


def _adjacent_sums(values: Sequence[int]) -> list[int]:
    return [a + b for a, b in zip(values, values[1:])]


def _equal_groups_split(original: Sequence[int], moved: Sequence[int]) -> bool:
    """True when values equal in `original` became pairwise distinct in `moved`."""
    groups: dict[int, list[int]] = {}
    for o, m in zip(original, moved):
        groups.setdefault(o, []).append(m)
    return all(len(set(g)) == len(g) for g in groups.values())


def leaves_family(
    family: Family, w: Sequence[RationalLike], s: ShadowVector, a: Fraction
) -> bool | None:
    """Does the step w + a*s break every equality that defines the family?

    None for uniform-random, which has no defining equalities. The dyadic
    shadow has pairwise distinct entries (and pairwise distinct adjacent
    sums), so any a > 0 should separate whatever the generator made equal.
    """
    if family.name == UNIFORM_RANDOM:
        return None
    if a <= 0:
        raise DomainError(f"perturbation step must be positive, got {format_rational(a)}")
    # Integers only: w is grouped as scale*w, and w + a*s is taken as
    # D*(w + a*s), where D is a positive multiple of w's scale, of the
    # shadow's denominators and of a's. A positive factor keeps every
    # equality and every zero test.
    scale, vec = clear_denominators(w)
    s_scale, at_s = clear_denominators(s.entries)
    d = lcm(scale, a.denominator * s_scale)
    w_factor = d // scale
    s_factor = a.numerator * (d // (a.denominator * s_scale))
    moved = [x * w_factor + s_factor * e for x, e in zip(vec, at_s)]
    ok = _equal_groups_split(vec, moved)
    if family.name == ZERO_SPRINKLED:
        ok = ok and all(m != 0 for x, m in zip(vec, moved) if x == 0)
    if family.name == PAIR_SUM_TIES:
        ok = ok and _equal_groups_split(_adjacent_sums(vec), _adjacent_sums(moved))
    return ok


# ---------------------------------------------------------------------------
# Single-instance certification


@dataclass(frozen=True, slots=True)
class InstanceVerdict:
    """Outcome of every check `check_instance` runs on one (w, policy)."""

    family: str
    n: int
    seed: str
    policy: str
    orientation: str
    feasible: bool
    optimal: bool
    policy_verified: bool
    equivalent: bool
    stability: str  # "pass" | "fail" | "skipped-boundary" | "not-run"
    stability_mode: str | None  # "witness" | "clamped"
    witness: Fraction | None
    left_family: bool | None
    cost: Fraction | None
    dp_cost: Fraction
    optima: int | None
    oracles_agree: bool | None
    failure: str | None
    weights: tuple[Fraction, ...]

    @property
    def passed(self) -> bool:
        return self.failure is None

    def as_row(self) -> dict:
        return {
            "kind": "instance",
            "family": self.family,
            "n": self.n,
            "seed": self.seed,
            "policy": self.policy,
            "orientation": self.orientation,
            "feasible": self.feasible,
            "optimal": self.optimal,
            "policy_verified": self.policy_verified,
            "equivalent": self.equivalent,
            "stability": self.stability,
            "stability_mode": self.stability_mode,
            "witness": None if self.witness is None else format_rational(self.witness),
            "left_family": self.left_family,
            "cost": None if self.cost is None else format_rational(self.cost),
            "dp_cost": format_rational(self.dp_cost),
            "optima": self.optima,
            "oracles_agree": self.oracles_agree,
            "verdict": "PASS" if self.passed else "FAIL",
            "failure": self.failure,
            # Failing rows carry the full instance so they replay standalone.
            "repro": None if self.passed else weights_text(self.weights),
        }


def weights_text(w: Sequence[RationalLike]) -> str:
    return " ".join(format_rational(Fraction(x)) for x in w)


class _PathMismatch(Exception):
    pass


def _path_repeats(
    entry_weights: list, weight_add, weight_sub, decide, depths: tuple[int, ...], pending
) -> bool:
    """Run phase 1 with a checking `decide`; the solve's path must repeat exactly.

    `decide` takes the next record from `pending`, an iterator over the
    solve's records, and raises _PathMismatch at the first decision that
    differs from it. The run must also reach the same depths and leave no
    record unused.
    """
    try:
        redone = phase1_depths(entry_weights, weight_add, weight_sub, decide)
    except _PathMismatch:
        return False
    return redone == depths and next(pending, None) is None


def _explicit_run_matches(
    vec: tuple[Fraction, ...],
    shadow: ShadowVector,
    depths: tuple[int, ...],
    trace: DecisionTrace,
) -> bool:
    """Re-solve with two-component arithmetic, checking each decision in place.

    Every comparison's own (diff, drift) pair gives its lexicographic sign,
    which must equal the next record's realized sign; the record must also
    have this comparison's functional, value (diff / scale, compared by
    cross-multiplication) and tie flag. A comparison zero in both
    components decides nothing and counts as a mismatch. No record is built.
    """
    scale, scaled = clear_denominators(vec)
    pending = iter(trace.records)

    def decide(items, diff) -> int:
        d, drift = diff
        if d:
            realized = 1 if d > 0 else -1
        elif drift:
            realized = 1 if drift > 0 else -1
        else:
            raise _PathMismatch
        record = next(pending, None)
        if record is None:
            raise _PathMismatch
        _, functional, value, recorded, tie, _ = record
        if (
            recorded != realized
            or tie != (not d)
            or d * value.denominator != value.numerator * scale
            or functional != tuple(items)
        ):
            raise _PathMismatch
        return realized

    return _path_repeats(
        list(zip(scaled, shadow.entries)),
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
        lambda a, b: (a[0] - b[0], a[1] - b[1]),
        decide,
        depths,
        pending,
    )


def _perturbed_run_matches(
    vec: tuple[Fraction, ...],
    shadow: ShadowVector,
    step: Fraction,
    depths: tuple[int, ...],
    trace: DecisionTrace,
) -> bool:
    """Re-solve at w + step*s; the decision path must repeat without any tie.

    Each comparison's sign at the moved weights must equal the next
    record's realized sign, over the record's functional; a tie is a
    mismatch. A moved weight below zero raises DomainError.
    """
    scale, scaled = clear_denominators(vec)
    num, den = step.numerator, step.denominator
    # The moved weights times the positive scale * den, as ints: every sign
    # the replay takes is the same as at w + step*s itself.
    moved = [x * den + num * e * scale for x, e in zip(scaled, shadow.entries)]
    if min(moved) < 0:
        raise DomainError(f"step {format_rational(step)} makes a weight negative")
    pending = iter(trace.records)

    def decide(items, diff) -> int:
        record = next(pending, None)
        if record is None or not diff:
            raise _PathMismatch
        realized = 1 if diff > 0 else -1
        if record[3] != realized or record[1] != tuple(items):
            raise _PathMismatch
        return realized

    return _path_repeats(moved, add, sub, decide, depths, pending)


def check_instance(
    w: Sequence[RationalLike],
    policy: str,
    *,
    family: Family | None = None,
    seed: str = "",
    dp_cost: Fraction | None = None,
    brute: tuple[Fraction, int] | None = None,
) -> InstanceVerdict:
    """Run one weight vector through every certification check.

    Checks: the depth sequence reconstructs (feasibility), the tree cost
    matches the DP oracle (optimality), the trace passes the policy audit
    (one `stability_witness` pass, which also bounds the witness), the
    explicit two-component re-run makes every recorded decision, and
    re-solving at the stability witness repeats the decision path tie-free.
    Both re-runs check each decision against the trace as they make it and
    build no records. Failures are recorded, never raised. When the witness
    step would leave the nonnegative domain (possible with the negative
    orientation) the replay is clamped to the largest admissible step, and
    at boundary points with no admissible step it is skipped; both cases
    are labeled, not failed.
    """
    vec = require_nonnegative_weights(w)
    n = len(vec)
    if policy not in POLICIES:
        raise DomainError(f"policy must be one of {POLICIES}, got {policy!r}")
    orientation = POLICY_ORIENTATION[policy]
    shadow = dyadic_shadow(n, orientation)

    depths, trace = hu_tucker_phase1(vec, shadow)
    tree = reconstruct_from_depths(depths)
    feasible = tree is not None
    if dp_cost is None:
        dp_cost = dp_optimal_cost(vec)
    cost = None if tree is None else tree_cost(tree, vec)
    optimal = feasible and cost == dp_cost

    # One audit pass: the policy check and the witness bound together.
    try:
        witness: Fraction | None = stability_witness(trace, vec, shadow)
    except PolicyMismatchError:
        witness = None
    policy_verified = witness is not None
    equivalent = _explicit_run_matches(vec, shadow, depths, trace)

    left: bool | None = None
    stability = "not-run"
    stability_mode: str | None = None
    if witness is not None:
        if family is not None:
            left = leaves_family(family, vec, shadow, witness)
        cap = max_step_in_domain(vec, shadow)
        if cap is not None and cap == 0:
            stability = "skipped-boundary"
        else:
            step = witness if cap is None or witness <= cap else cap
            stability_mode = "witness" if step == witness else "clamped"
            ok = _perturbed_run_matches(vec, shadow, step, depths, trace)
            stability = "pass" if ok else "fail"

    if brute is None and n <= ORACLE_CAP:
        brute = brute_force_optimal(vec)
    optima = None if brute is None else brute[1]
    oracles_agree = None if brute is None else brute[0] == dp_cost

    failure = None
    if not feasible:
        failure = "feasibility"
    elif not optimal:
        failure = "optimality"
    elif oracles_agree is False:
        failure = "oracle-agreement"
    elif not policy_verified:
        failure = "policy"
    elif not equivalent:
        failure = "equivalence"
    elif stability == "fail":
        failure = "stability"
    elif left is False:
        failure = "family-departure"

    return InstanceVerdict(
        family="" if family is None else family.token(),
        n=n,
        seed=seed,
        policy=policy,
        orientation=orientation,
        feasible=feasible,
        optimal=optimal,
        policy_verified=policy_verified,
        equivalent=equivalent,
        stability=stability,
        stability_mode=stability_mode,
        witness=witness,
        left_family=left,
        cost=cost,
        dp_cost=dp_cost,
        optima=optima,
        oracles_agree=oracles_agree,
        failure=failure,
        weights=vec,
    )


# ---------------------------------------------------------------------------
# Cost continuity


def _lipschitz_parts(
    w: Sequence[RationalLike], delta: Sequence[RationalLike]
) -> tuple[Fraction, Fraction, Fraction]:
    vec = require_nonnegative_weights(w)
    if len(delta) != len(vec):
        raise StructureError(
            f"weights have length {len(vec)} but delta has length {len(delta)}"
        )
    moved = require_nonnegative_weights(x + Fraction(d) for x, d in zip(vec, delta))
    before = dp_optimal_cost(vec)
    after = dp_optimal_cost(moved)
    bound = (len(vec) - 1) * sum((abs(Fraction(d)) for d in delta), Fraction(0))
    return before, after, bound


def check_lipschitz(w: Sequence[RationalLike], delta: Sequence[RationalLike]) -> bool:
    """|OPT(w + delta) - OPT(w)| <= (n - 1) * sum |delta_i|, exactly.

    The modulus comes from leaf depths never exceeding n - 1. Both endpoints
    must be in the nonnegative domain; a violation raises DomainError.
    """
    before, after, bound = _lipschitz_parts(w, delta)
    return abs(after - before) <= bound


@dataclass(frozen=True, slots=True)
class LipschitzVerdict:
    index: int
    n: int
    seed: str
    cost_before: Fraction
    cost_after: Fraction
    bound: Fraction
    ok: bool

    def as_row(self) -> dict:
        return {
            "kind": "lipschitz",
            "index": self.index,
            "n": self.n,
            "seed": self.seed,
            "cost_before": format_rational(self.cost_before),
            "cost_after": format_rational(self.cost_after),
            "difference": format_rational(abs(self.cost_after - self.cost_before)),
            "bound": format_rational(self.bound),
            "verdict": "PASS" if self.ok else "FAIL",
        }


# ---------------------------------------------------------------------------
# Orientation binding


def _positional_phase1_depths(w: Sequence[RationalLike], policy: str) -> tuple[int, ...]:
    """Reference combine loop with positional tie-breaking, no shadows.

    Ties among minimum-weight combinable pairs go to the first pair in
    (left, right) order for leftmost and the last for rightmost. Kept
    deliberately independent of the instrumented solver: this is the ground
    truth the shadow orientations are measured against.
    """
    vec = require_nonnegative_weights(w)
    _, scaled = clear_denominators(vec)
    # Node: [weight, shape, is_leaf].
    nodes = [[x, i, True] for i, x in enumerate(scaled, start=1)]
    while len(nodes) > 1:
        m = len(nodes)
        pairs: list[tuple[int, int]] = []
        for i in range(m - 1):
            j = i + 1
            while True:
                pairs.append((i, j))
                if nodes[j][2] or j + 1 >= m:
                    break
                j += 1
        best = min(nodes[i][0] + nodes[j][0] for i, j in pairs)
        minimal = [p for p in pairs if nodes[p[0]][0] + nodes[p[1]][0] == best]
        i, j = minimal[0] if policy == LEFTMOST else minimal[-1]
        nodes[i] = [best, (nodes[i][1], nodes[j][1]), False]
        del nodes[j]
    return tree_depths(nodes[0][1])


_BINDING_PROBES: tuple[tuple[Family, int], ...] = (
    (Family(ALL_EQUAL), 5),
    (Family(ALL_EQUAL), 6),
    (Family(PAIR_SUM_TIES), 6),
    (Family(PALINDROME), 5),
    (Family(EQUAL_BLOCKS, block_count=2), 7),
    (Family(ZERO_SPRINKLED, zero_fraction=Fraction(1, 2)), 6),
)


def resolve_orientation_binding() -> dict[str, str]:
    """Measure which dyadic orientation realizes which tie policy.

    Probes tie-heavy instances, solving each with explicit two-component
    arithmetic under both orientations and with the positional reference
    under both policies. Returns {policy: orientation}; raises
    StructureError if the observations do not form a clean bijection.
    """
    observations: dict[str, tuple[tuple[int, ...], ...]] = {}
    references: dict[str, tuple[tuple[int, ...], ...]] = {}
    instances = [
        generate(family, n, f"binding-{k}")
        for k, (family, n) in enumerate(_BINDING_PROBES)
    ]
    for orientation in (NEGATIVE, POSITIVE):
        observations[orientation] = tuple(
            phase1_explicit_shadow(w, dyadic_shadow(len(w), orientation))[0]
            for w in instances
        )
    for policy in POLICIES:
        references[policy] = tuple(
            _positional_phase1_depths(w, policy) for w in instances
        )
    binding: dict[str, str] = {}
    for policy in POLICIES:
        matching = [
            orientation
            for orientation in (NEGATIVE, POSITIVE)
            if observations[orientation] == references[policy]
        ]
        if len(matching) != 1:
            raise StructureError(
                f"orientation binding for {policy} is not unique: {matching}"
            )
        binding[policy] = matching[0]
    if binding[LEFTMOST] == binding[RIGHTMOST]:
        raise StructureError(f"both policies bound to {binding[LEFTMOST]}")
    return binding


# ---------------------------------------------------------------------------
# Campaign


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign, hence its report, exactly."""

    seed: int
    counts: tuple[tuple[Family, int], ...]
    policies: tuple[str, ...] = POLICIES
    n_min: int = 1
    n_max: int = 200
    lipschitz_pairs: int = 0
    lipschitz_n_max: int = 40

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise StructureError(f"seed must be an integer, got {self.seed!r}")
        if not self.policies:
            raise StructureError("at least one policy is required")
        for p in self.policies:
            if p not in POLICIES:
                raise StructureError(f"policy must be one of {POLICIES}, got {p!r}")
        if len(set(self.policies)) != len(self.policies):
            raise StructureError(f"duplicate policies: {self.policies}")
        if not 1 <= self.n_min <= self.n_max:
            raise StructureError(
                f"need 1 <= n_min <= n_max, got {self.n_min}..{self.n_max}"
            )
        seen: set[str] = set()
        for family, count in self.counts:
            token = family.token()
            if token in seen:
                raise StructureError(f"family {token} configured twice")
            seen.add(token)
            if count < 0:
                raise StructureError(f"count for {token} must be >= 0, got {count}")
        if self.lipschitz_pairs < 0:
            raise StructureError(f"lipschitz_pairs must be >= 0, got {self.lipschitz_pairs}")
        if self.lipschitz_n_max < 1:
            raise StructureError(f"lipschitz_n_max must be >= 1, got {self.lipschitz_n_max}")

    def as_obj(self) -> dict:
        return {
            "seed": self.seed,
            "policies": list(self.policies),
            "n_min": self.n_min,
            "n_max": self.n_max,
            "counts": {family.token(): count for family, count in self.counts},
            "lipschitz_pairs": self.lipschitz_pairs,
            "lipschitz_n_max": self.lipschitz_n_max,
        }


_CONFIG_SCALARS = ("seed", "n_min", "n_max", "lipschitz_pairs", "lipschitz_n_max")


def parse_config(text: str) -> CampaignConfig:
    """Parse the flat `key = value` campaign config format.

    `#` starts a comment; blank lines are ignored. Family counts use keys
    of the form `count.<family-token>`, e.g. `count.equal-blocks:3 = 170`.
    """
    scalars: dict[str, int] = {}
    policies: tuple[str, ...] | None = None
    counts: dict[str, tuple[Family, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise FormatError("expected 'key = value'", line=lineno)
        key = key.strip()
        value = value.strip()
        try:
            if key in _CONFIG_SCALARS:
                if key in scalars:
                    raise FormatError(f"duplicate key {key!r}")
                scalars[key] = _parse_int(value)
            elif key == "policies":
                if policies is not None:
                    raise FormatError("duplicate key 'policies'")
                policies = tuple(p.strip() for p in value.split(","))
            elif key.startswith("count."):
                family = Family.parse(key[len("count.") :])
                token = family.token()
                if token in counts:
                    raise FormatError(f"family {token} configured twice")
                counts[token] = (family, _parse_int(value))
            else:
                raise FormatError(f"unknown key {key!r}")
        except (FormatError, StructureError) as exc:
            raise FormatError(str(exc), line=lineno) from exc
    if "seed" not in scalars:
        raise FormatError("config must set seed")
    kwargs: dict = {"seed": scalars["seed"]}
    if policies is not None:
        kwargs["policies"] = policies
    for key in ("n_min", "n_max", "lipschitz_pairs"):
        if key in scalars:
            kwargs[key] = scalars[key]
    kwargs["counts"] = tuple(counts[token] for token in sorted(counts))
    n_max = kwargs.get("n_max", 200)
    kwargs["lipschitz_n_max"] = scalars.get("lipschitz_n_max", min(40, n_max))
    try:
        return CampaignConfig(**kwargs)
    except StructureError as exc:
        raise FormatError(str(exc)) from exc


#: Sampling weight per size bit-length; larger sizes get rarer because an
#: instance's certification cost grows faster than its size, and the few
#: largest instances would otherwise dominate the campaign's runtime.
_SIZE_BIT_WEIGHTS = (8, 8, 7, 6, 5, 3, 1.5, 0.5)


def _sample_size(rng: random.Random, index: int, n_min: int, n_max: int) -> int:
    if n_min == n_max:
        return n_min
    # The extremes are always exercised, not left to luck.
    if index == 0:
        return n_max
    if index == 1:
        return n_min
    lo_bits = n_min.bit_length()
    hi_bits = n_max.bit_length()
    bits = range(lo_bits, hi_bits + 1)
    weights = [
        _SIZE_BIT_WEIGHTS[b - 1] if b <= len(_SIZE_BIT_WEIGHTS) else 0.5 for b in bits
    ]
    k = rng.choices(bits, weights=weights)[0]
    return rng.randint(max(n_min, 1 << (k - 1)), min(n_max, (1 << k) - 1))


@dataclass(frozen=True)
class CampaignReport:
    """All verdicts of one campaign plus the aggregate roll-up."""

    config: CampaignConfig
    binding: dict[str, str] | None
    binding_error: str | None
    instances: tuple[InstanceVerdict, ...]
    lipschitz: tuple[LipschitzVerdict, ...]
    aggregate: dict

    @property
    def passed(self) -> bool:
        return self.aggregate["verdict"] == "PASS"

    def render(self) -> str:
        """Line-delimited records, then a `#`-prefixed human summary.

        Byte-deterministic: rows are canonically ordered, keys sorted, all
        numbers exact, and nothing environmental (time, host, paths) leaks
        in.
        """
        header = {
            "kind": "header",
            "binding": self.binding,
            "binding_error": self.binding_error,
            "config": self.config.as_obj(),
        }
        rows = [header]
        rows.extend(v.as_row() for v in self.instances)
        rows.extend(v.as_row() for v in self.lipschitz)
        rows.append({"kind": "aggregate", **self.aggregate})
        out = [json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows]
        out.extend(self._summary_lines())
        return "\n".join(out) + "\n"

    def _summary_lines(self) -> list[str]:
        agg = self.aggregate
        if self.binding is None:
            binding_line = f"# tie policy binding: unresolved ({self.binding_error})"
        else:
            binding_line = (
                f"# tie policy binding: leftmost <-> {self.binding[LEFTMOST]} dyadic"
                f" shadow; rightmost <-> {self.binding[RIGHTMOST]} dyadic shadow"
            )
        return [
            f"# campaign verdict: {agg['verdict']}",
            binding_line,
            (
                f"# solver runs: {agg['solver_runs']} over {agg['weight_vectors']}"
                f" weight vectors ({agg['degenerate_vectors']} degenerate,"
                f" {agg['multiple_optima_vectors']} with multiple optima)"
            ),
            (
                f"# stability replays: {agg['stability_at_witness']} at the exact"
                f" witness, {agg['stability_clamped']} clamped to the domain,"
                f" {agg['stability_skipped_boundary']} skipped at the boundary"
            ),
            f"# lipschitz: {agg['lipschitz_pairs']} pairs, {agg['lipschitz_failures']} over the bound",
            f"# failing runs: {agg['failing_runs']}",
        ]


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Execute the configured campaign; failures land in the report, not here."""
    binding: dict[str, str] | None
    binding_error: str | None
    try:
        binding = resolve_orientation_binding()
        binding_error = None
    except StructureError as exc:
        binding = None
        binding_error = str(exc)

    verdicts: list[InstanceVerdict] = []
    for family, count in sorted(config.counts, key=lambda fc: fc[0].token()):
        token = family.token()
        for index in range(count):
            size_rng = random.Random(f"{config.seed}|size|{token}|{index}")
            n = _sample_size(size_rng, index, config.n_min, config.n_max)
            seed = f"{config.seed}.{index}"
            w = generate(family, n, seed)
            dp = dp_optimal_cost(w)
            brute = brute_force_optimal(w) if n <= ORACLE_CAP else None
            for policy in config.policies:
                verdicts.append(
                    check_instance(
                        w,
                        policy,
                        family=family,
                        seed=seed,
                        dp_cost=dp,
                        brute=brute,
                    )
                )
    verdicts.sort(key=lambda v: (v.family, v.n, v.seed, v.policy))

    lipschitz: list[LipschitzVerdict] = []
    for index in range(config.lipschitz_pairs):
        seed = f"{config.seed}|lipschitz|{index}"
        rng = random.Random(seed)
        n = rng.randint(1, config.lipschitz_n_max)
        w = tuple(_random_dyadic(rng) for _ in range(n))
        moved = tuple(_random_dyadic(rng) for _ in range(n))
        delta = tuple(b - a for a, b in zip(w, moved))
        before, after, bound = _lipschitz_parts(w, delta)
        lipschitz.append(
            LipschitzVerdict(
                index=index,
                n=n,
                seed=seed,
                cost_before=before,
                cost_after=after,
                bound=bound,
                ok=abs(after - before) <= bound,
            )
        )

    aggregate = _aggregate(binding, binding_error, verdicts, lipschitz)
    return CampaignReport(
        config=config,
        binding=binding,
        binding_error=binding_error,
        instances=tuple(verdicts),
        lipschitz=tuple(lipschitz),
        aggregate=aggregate,
    )


def _aggregate(
    binding: dict[str, str] | None,
    binding_error: str | None,
    verdicts: Sequence[InstanceVerdict],
    lipschitz: Sequence[LipschitzVerdict],
) -> dict:
    vectors = {(v.family, v.n, v.seed) for v in verdicts}
    degenerate = {
        key for key in vectors if key[0].partition(":")[0] in DEGENERATE_FAMILIES
    }
    multi = {
        (v.family, v.n, v.seed)
        for v in verdicts
        if v.optima is not None and v.optima > 1
    }
    failing = sum(1 for v in verdicts if not v.passed)
    lipschitz_failures = sum(1 for v in lipschitz if not v.ok)
    binding_matches = None if binding is None else binding == POLICY_ORIENTATION
    verdict = (
        "PASS"
        if failing == 0 and lipschitz_failures == 0 and binding_matches is True
        else "FAIL"
    )
    return {
        "binding": binding,
        "binding_error": binding_error,
        "binding_matches_configuration": binding_matches,
        "solver_runs": len(verdicts),
        "weight_vectors": len(vectors),
        "degenerate_vectors": len(degenerate),
        "multiple_optima_vectors": len(multi),
        "failing_runs": failing,
        "stability_at_witness": sum(
            1 for v in verdicts if v.stability == "pass" and v.stability_mode == "witness"
        ),
        "stability_clamped": sum(
            1 for v in verdicts if v.stability == "pass" and v.stability_mode == "clamped"
        ),
        "stability_skipped_boundary": sum(
            1 for v in verdicts if v.stability == "skipped-boundary"
        ),
        "lipschitz_pairs": len(lipschitz),
        "lipschitz_failures": lipschitz_failures,
        "verdict": verdict,
    }
