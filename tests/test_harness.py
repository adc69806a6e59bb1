"""Instance families, certification checks, and campaign plumbing."""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter
from fractions import Fraction
from operator import add, sub

import pytest

import tiebreak.alphabetic as alphabetic
import tiebreak.harness as harness
from tiebreak.alphabetic import (
    LEFTMOST,
    POLICIES,
    POLICY_ORIENTATION,
    RIGHTMOST,
    hu_tucker_phase1,
    phase1_depths,
    phase1_explicit_shadow,
)
from tiebreak.core import LinearFunctional, clear_denominators, format_rational
from tiebreak.errors import CorruptTraceError, DomainError, FormatError, StructureError
from tiebreak.harness import (
    ALL_EQUAL,
    DEGENERATE_FAMILIES,
    EQUAL_BLOCKS,
    FAMILY_NAMES,
    PAIR_SUM_TIES,
    PALINDROME,
    UNIFORM_RANDOM,
    ZERO_SPRINKLED,
    CampaignConfig,
    Family,
    _parse_int,
    _replay_matches,
    _sample_size,
    check_instance,
    check_lipschitz,
    generate,
    leaves_family,
    parse_config,
    resolve_orientation_binding,
    run_campaign,
)
from tiebreak.perturb import (
    ORIENTATIONS,
    ShadowVector,
    dyadic_shadow,
    max_step_in_domain,
)
from tiebreak.trace import (
    ComparisonRecord,
    DecisionTrace,
    _audit,
    _confirm_witness,
    stability_witness,
    verify_policy,
)


# -- families ---------------------------------------------------------------


def test_family_tokens_roundtrip() -> None:
    assert Family(ALL_EQUAL).token() == "all-equal"
    assert Family(EQUAL_BLOCKS, block_count=5).token() == "equal-blocks:5"
    assert Family(ZERO_SPRINKLED, zero_fraction=Fraction(1, 3)).token() == "zero-sprinkled:1/3"
    for name in FAMILY_NAMES:
        family = Family(name)
        assert Family.parse(family.token()) == family


def test_family_parse_defaults_and_errors() -> None:
    assert Family.parse("equal-blocks").block_count == 3
    assert Family.parse("zero-sprinkled").zero_fraction == Fraction(1, 4)
    with pytest.raises(FormatError, match="unknown instance family"):
        Family.parse("sawtooth")
    with pytest.raises(FormatError, match="takes no parameter"):
        Family.parse("palindrome:2")
    with pytest.raises(FormatError, match="block count"):
        Family.parse("equal-blocks:x")
    with pytest.raises(FormatError, match="block count"):
        Family.parse("equal-blocks:1_0")
    with pytest.raises(StructureError, match="block count"):
        Family.parse("equal-blocks:1")
    with pytest.raises(StructureError, match="zero fraction"):
        Family.parse("zero-sprinkled:2")


@pytest.mark.parametrize(
    "params, message",
    [
        ({"block_count": 3.0}, "block count must be an integer, got 3.0"),
        ({"block_count": True}, "block count must be an integer, got True"),
        ({"block_count": "3"}, "block count must be an integer, got '3'"),
        ({"zero_fraction": 0.5}, "zero fraction must be an exact int or Fraction, got 0.5"),
        ({"zero_fraction": True}, "zero fraction must be an exact int or Fraction, got True"),
    ],
    ids=["float-count", "bool-count", "text-count", "float-fraction", "bool-fraction"],
)
def test_family_rejects_inexact_parameters(params: dict, message: str) -> None:
    # A float count would make the token `equal-blocks:3.0`, and a float
    # fraction is no exact share of the entries.
    name = EQUAL_BLOCKS if "block_count" in params else ZERO_SPRINKLED
    with pytest.raises(StructureError) as err:
        Family(name, **params)
    assert str(err.value) == message
    # int counts and int or Fraction fractions stay accepted.
    assert Family(EQUAL_BLOCKS, block_count=4).token() == "equal-blocks:4"
    assert Family(ZERO_SPRINKLED, zero_fraction=1).token() == "zero-sprinkled:1"


def test_degenerate_families_cover_all_but_uniform() -> None:
    assert UNIFORM_RANDOM not in DEGENERATE_FAMILIES
    assert DEGENERATE_FAMILIES == frozenset(FAMILY_NAMES) - {UNIFORM_RANDOM}


def test_generate_is_deterministic_and_size_checked() -> None:
    family = Family(UNIFORM_RANDOM)
    assert generate(family, 30, 7) == generate(family, 30, 7)
    assert generate(family, 30, 7) != generate(family, 30, 8)
    with pytest.raises(DomainError):
        generate(family, 0, 7)
    for name in FAMILY_NAMES:
        assert len(generate(Family(name), 1, 3)) == 1


def test_generate_family_structure() -> None:
    assert generate(Family(ALL_EQUAL), 6, 1) == (Fraction(1),) * 6

    w = generate(Family(EQUAL_BLOCKS, block_count=3), 20, 2)
    values = sorted(set(w))
    assert len(values) == 3
    for value in values:
        positions = [i for i, x in enumerate(w) if x == value]
        assert positions == list(range(positions[0], positions[-1] + 1))

    w = generate(Family(ZERO_SPRINKLED), 16, 3)
    assert sum(1 for x in w if x == 0) == 4
    assert all(x >= 0 for x in w)

    w = generate(Family(PAIR_SUM_TIES), 9, 4)
    sums = {a + b for a, b in zip(w, w[1:])}
    assert len(sums) == 1

    w = generate(Family(PALINDROME), 9, 5)
    assert w == tuple(reversed(w))


def test_leaves_family_contract() -> None:
    s = dyadic_shadow(4)
    w = (Fraction(1),) * 4
    assert leaves_family(Family(UNIFORM_RANDOM), w, s, Fraction(1)) is None
    assert leaves_family(Family(ALL_EQUAL), w, s, Fraction(1, 100)) is True
    with pytest.raises(DomainError, match="positive"):
        leaves_family(Family(ALL_EQUAL), w, s, Fraction(0))
    # A shadow with repeated entries cannot separate equal weights.
    flat = ShadowVector((Fraction(1), Fraction(1)))
    assert leaves_family(Family(ALL_EQUAL), (1, 1), flat, Fraction(1)) is False


def _leaves_family_in_fractions(family, w, s, a):
    """`leaves_family` in Fraction arithmetic, as it was first written."""
    if family.name == UNIFORM_RANDOM:
        return None

    def split(original, moved):
        groups = {}
        for o, m in zip(original, moved):
            groups.setdefault(o, []).append(m)
        return all(len(set(g)) == len(g) for g in groups.values())

    def sums(values):
        return [x + y for x, y in zip(values, values[1:])]

    vec = [Fraction(x) for x in w]
    moved = [x + a * e for x, e in zip(vec, s.entries)]
    ok = split(vec, moved)
    if family.name == ZERO_SPRINKLED:
        ok = ok and all(m != 0 for x, m in zip(vec, moved) if x == 0)
    if family.name == PAIR_SUM_TIES:
        ok = ok and split(sums(vec), sums(moved))
    return ok


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_leaves_family_agrees_with_fraction_arithmetic(name: str) -> None:
    family = Family(name)
    rng = random.Random(f"leaves-{name}")
    outcomes = set()
    for n in range(1, 25):
        w = generate(family, n, "leaves")
        shadows = [(dyadic_shadow(n, orientation), True) for orientation in ORIENTATIONS]
        # Fractional entries with repeats and zeros, so that some steps keep
        # an equality and the check must answer False.
        entries = (Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 6))) for _ in range(n))
        shadows.append((ShadowVector(tuple(entries)), False))
        for s, dyadic in shadows:
            steps = {Fraction(1), Fraction(1, 3), Fraction(rng.randint(1, 9), rng.randint(1, 9))}
            if dyadic:
                _, trace = hu_tucker_phase1(w, s)
                steps.add(stability_witness(trace, w, s))
            for a in steps:
                got = leaves_family(family, w, s, a)
                assert got == _leaves_family_in_fractions(family, w, s, a), (n, s, a)
                outcomes.add(got)
    assert outcomes == ({None} if name == UNIFORM_RANDOM else {True, False})


# -- single-instance certification ------------------------------------------


def test_check_instance_passing_run() -> None:
    verdict = check_instance((1, 2, 3), RIGHTMOST, family=Family(UNIFORM_RANDOM), seed="t")
    assert verdict.passed
    assert verdict.feasible and verdict.optimal
    assert verdict.policy_verified and verdict.equivalent
    assert verdict.stability == "pass"
    assert verdict.stability_mode == "witness"  # positive orientation never clamps
    assert verdict.witness == Fraction(2, 7)
    assert verdict.cost == 9 and verdict.dp_cost == 9
    assert verdict.oracles_agree is True and verdict.optima == 1
    row = verdict.as_row()
    assert row["kind"] == "instance"
    assert row["verdict"] == "PASS"
    assert row["repro"] is None
    assert row["witness"] == "2/7"


def test_check_instance_single_leaf_and_boundary() -> None:
    verdict = check_instance((Fraction(5),), RIGHTMOST)
    assert verdict.passed
    assert verdict.stability == "pass"

    # All-zero weights with the negative orientation: no admissible step.
    verdict = check_instance((0,), LEFTMOST)
    assert verdict.passed
    assert verdict.stability == "skipped-boundary"
    assert verdict.stability_mode is None


def test_check_instance_clamps_on_negative_orientation() -> None:
    # Degenerate and tiny: the witness (1 on an all-tie trace) would step
    # outside the nonnegative domain, so the replay runs at the clamp.
    verdict = check_instance((Fraction(1, 64),) * 3, LEFTMOST)
    assert verdict.passed
    assert verdict.stability == "pass"
    assert verdict.stability_mode == "clamped"


def test_check_instance_flags_wrong_oracle_values() -> None:
    verdict = check_instance((1, 2, 3), RIGHTMOST, dp_cost=Fraction(10))
    assert not verdict.passed
    assert verdict.failure == "optimality"
    assert verdict.as_row()["repro"] == "1 2 3"

    verdict = check_instance((1, 2, 3), RIGHTMOST, brute=(Fraction(10), 1))
    assert verdict.failure == "oracle-agreement"


@pytest.mark.parametrize(
    "oracle",
    [{"dp_cost": 9.5}, {"dp_cost": 9.0}, {"dp_cost": True}, {"brute": (9.5, 1)}, {"brute": (False, 1)}],
    ids=["dp-float", "dp-integral-float", "dp-bool", "brute-float", "brute-bool"],
)
def test_check_instance_rejects_inexact_oracle_costs(oracle: dict) -> None:
    # A float cost would be compared, and reported, as a nearby rational.
    with pytest.raises(StructureError, match="must be an exact int or Fraction"):
        check_instance((1, 2, 3), RIGHTMOST, **oracle)


INSTANCE_ROW_KEYS = {
    "kind", "family", "n", "seed", "policy", "orientation", "feasible", "optimal",
    "policy_verified", "equivalent", "stability", "stability_mode", "witness", "left_family",
    "cost", "dp_cost", "optima", "oracles_agree", "verdict", "failure", "repro",
}


def test_instance_rows_format_every_rational_field_as_text() -> None:
    # An int oracle cost prints as a rational token, as a Fraction one does.
    passing = check_instance((1, 2, 3), RIGHTMOST, dp_cost=9).as_row()
    assert set(passing) == INSTANCE_ROW_KEYS
    assert passing["dp_cost"] == "9" and passing["cost"] == "9" and passing["witness"] == "2/7"
    assert passing["verdict"] == "PASS" and passing["failure"] is None and passing["repro"] is None
    assert passing["n"] == 3 and passing["optima"] == 1 and passing["feasible"] is True

    failing = check_instance((1, 2, 3), RIGHTMOST, dp_cost=10).as_row()
    assert set(failing) == INSTANCE_ROW_KEYS
    assert failing["dp_cost"] == "10" and failing["cost"] == "9"
    assert failing["verdict"] == "FAIL" and failing["failure"] == "optimality"
    assert failing["repro"] == "1 2 3"


def test_lipschitz_rows_format_every_rational_field_as_text() -> None:
    (verdict,) = run_campaign(CampaignConfig(seed=3, counts=(), n_max=6, lipschitz_pairs=1)).lipschitz
    row = verdict.as_row()
    assert set(row) == {
        "kind", "index", "n", "seed", "cost_before", "cost_after", "difference", "bound", "verdict",
    }
    assert row["kind"] == "lipschitz" and row["verdict"] == "PASS"
    assert row["difference"] == format_rational(abs(verdict.cost_after - verdict.cost_before))
    assert row["bound"] == format_rational(verdict.bound)


def test_failure_is_the_first_failing_check_in_precedence_order() -> None:
    verdict = check_instance((1, 2, 3), RIGHTMOST, family=Family(ALL_EQUAL))
    assert verdict.failure is None and verdict.passed
    # Each step fails one more check, earlier in the order than the last.
    broken = [
        ("family-departure", {"left_family": False}),
        ("stability", {"stability": "fail"}),
        ("equivalence", {"equivalent": False}),
        ("policy", {"policy_verified": False}),
        ("oracle-agreement", {"oracles_agree": False}),
        ("optimality", {"optimal": False}),
        ("feasibility", {"feasible": False}),
    ]
    for failure, change in broken:
        verdict = dataclasses.replace(verdict, **change)
        assert verdict.failure == failure and not verdict.passed
    # A check that did not run (None) or a stability label other than
    # "fail" is not a failure.
    skipped = dataclasses.replace(
        check_instance((0,), LEFTMOST), left_family=None, oracles_agree=None
    )
    assert skipped.stability == "skipped-boundary" and skipped.failure is None


def test_check_instance_large_sizes_skip_enumeration() -> None:
    verdict = check_instance((1,) * 12, RIGHTMOST)
    assert verdict.passed
    assert verdict.optima is None
    assert verdict.oracles_agree is None


def test_check_instance_mints_records_only_for_the_solve(monkeypatch) -> None:
    # The replays check each decision against the solve's records in place,
    # so one check mints exactly the solve's records and no more. Records
    # are minted in `recorder`'s `decide`, one per call.
    w = generate(Family(PAIR_SUM_TIES), 24, "mint")
    s = dyadic_shadow(24, POLICY_ORIENTATION[RIGHTMOST])
    _, trace = hu_tucker_phase1(w, s)
    recorder = alphabetic.recorder
    decides: list[int] = []
    minted: list[int] = []

    def counting_recorder(*args):
        decide, finish = recorder(*args)
        decides.append(0)

        def counting_decide(*decide_args):
            decides[-1] += 1
            return decide(*decide_args)

        def counting_finish():
            made = finish()
            minted.extend(made.records)
            return made

        return counting_decide, counting_finish

    monkeypatch.setattr(alphabetic, "recorder", counting_recorder)
    verdict = check_instance(w, RIGHTMOST)
    assert verdict.passed and verdict.equivalent
    assert verdict.stability == "pass" and verdict.stability_mode == "witness"
    assert decides == [len(trace.records)]
    assert minted == list(trace.records)


def test_check_instance_runs_the_combine_loop_twice(monkeypatch) -> None:
    # The solve is one pass; one replay scores the explicit and the
    # perturbed re-run together, so it is the only other pass.
    passes = []

    def counting_phase1_depths(*args):
        passes.append(len(args[0]))
        return phase1_depths(*args)

    monkeypatch.setattr(alphabetic, "phase1_depths", counting_phase1_depths)
    monkeypatch.setattr(harness, "phase1_depths", counting_phase1_depths)
    for w, policy, stability in [
        (generate(Family(PAIR_SUM_TIES), 24, "passes"), RIGHTMOST, "pass"),
        ((Fraction(1, 64),) * 3, LEFTMOST, "pass"),
        ((0, 1, 1), LEFTMOST, "skipped-boundary"),
    ]:
        passes.clear()
        verdict = check_instance(w, policy)
        assert verdict.passed and verdict.stability == stability
        assert passes == [len(w), len(w)]


# The three cases of the test above, one per stability mode.
_STABILITY_MODES = [
    (generate(Family(PAIR_SUM_TIES), 24, "passes"), RIGHTMOST, "pass", "witness"),
    ((Fraction(1, 64),) * 3, LEFTMOST, "pass", "clamped"),
    ((0, 1, 1), LEFTMOST, "skipped-boundary", None),
]


@pytest.mark.parametrize(
    "w, policy, stability, mode", _STABILITY_MODES, ids=["witness", "clamped", "skipped-boundary"]
)
def test_witness_recheck_runs_once_per_verified_run(
    monkeypatch, w, policy: str, stability: str, mode: str | None
) -> None:
    # The witness re-evaluation is the one test of signs at w + a*s, so it
    # runs once for every run the audit verified, whatever its stability.
    confirm = harness._confirm_witness
    calls = []

    def counting_confirm(*args):
        calls.append(args[2])
        return confirm(*args)

    monkeypatch.setattr(harness, "_confirm_witness", counting_confirm)
    verdict = check_instance(w, policy)
    assert verdict.passed
    assert (verdict.stability, verdict.stability_mode) == (stability, mode)
    assert calls == [verdict.witness]


def test_a_wrong_witness_fails_its_recheck_in_check_instance(monkeypatch) -> None:
    # A bound far above the true one moves some sign at the witness: the
    # replay there is not stable, so the re-evaluation runs and rejects it.
    w = generate(Family(PAIR_SUM_TIES), 24, "passes")
    audit = harness._audit

    def inflated_audit(*args):
        signs, first_failure, bound, terms, scale = audit(*args)
        return signs, first_failure, bound * 10**6, terms, scale

    monkeypatch.setattr(harness, "_audit", inflated_audit)
    with pytest.raises(StructureError, match="witness failed its own re-evaluation"):
        check_instance(w, RIGHTMOST)


# -- replays that check each decision in place ------------------------------


def _solve(w, policy):
    s = dyadic_shadow(len(w), POLICY_ORIENTATION[policy])
    depths, trace = hu_tucker_phase1(w, s)
    return s, depths, trace


def _stream_matches(w, s, depths, trace) -> bool:
    """Reference verdict: phase1_explicit_shadow's record stream equals the trace."""
    redone, replay = phase1_explicit_shadow(w, s)
    return redone == depths and replay.records == trace.records


def _forge(trace: DecisionTrace, records) -> DecisionTrace:
    """A trace of `records` over the same instance."""
    return DecisionTrace(n=trace.n, records=tuple(records))


def _forgeries(trace: DecisionTrace) -> dict[str, DecisionTrace]:
    """One altered copy of a trace with two or more records per kind of change."""
    records = list(trace.records)
    # Alter a tie where there is one, so that a flipped branch still reads
    # as a sign the shadow could have given.
    k = next((j for j, r in enumerate(records) if r.tie), len(records) // 2)
    functional, value, realized = records[k]
    other = next(r.functional for r in records if r.functional != functional)

    def replaced(record) -> DecisionTrace:
        return _forge(trace, records[:k] + [record] + records[k + 1 :])

    new = tuple.__new__
    return {
        "value": replaced(new(ComparisonRecord, (functional, value + 1, realized))),
        "functional": replaced(new(ComparisonRecord, (other, value, realized))),
        "branch": replaced(new(ComparisonRecord, (functional, value, -realized))),
        "dropped": _forge(trace, records[:k] + records[k + 1 :]),
        "added": _forge(trace, records + [records[-1]]),
    }


def _rebuilt(trace: DecisionTrace) -> DecisionTrace:
    """An equal trace that shares no functional or value object with `trace`."""
    return DecisionTrace(
        n=trace.n,
        records=tuple(
            ComparisonRecord(
                functional=LinearFunctional(dict(r.functional)),
                primary_value=Fraction(r.primary_value.numerator, r.primary_value.denominator),
                realized_sign=r.realized_sign,
            )
            for r in trace.records
        ),
    )


class _PathMismatch(Exception):
    pass


def _path_repeats(entry_weights, weight_add, weight_sub, decide, depths, pending) -> bool:
    """Reference: phase 1 with a checking `decide` must repeat the solve's path.

    `decide` raises _PathMismatch at the first decision that differs from
    the next record of `pending`; the run must also reach the same depths
    and leave no record unused.
    """
    try:
        redone = phase1_depths(entry_weights, weight_add, weight_sub, decide)
    except _PathMismatch:
        return False
    return redone == depths and next(pending, None) is None


def _explicit_reference(w, s, depths, trace) -> bool:
    """Reference explicit replay: its own lexicographic (diff, drift) decisions."""
    scale, scaled = clear_denominators(w)
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
        functional, value, recorded = record
        if (
            recorded != realized
            or d * value.denominator != value.numerator * scale
            or functional != tuple(items)
        ):
            raise _PathMismatch
        return realized

    return _path_repeats(
        list(zip(scaled, s.entries)),
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
        lambda a, b: (a[0] - b[0], a[1] - b[1]),
        decide,
        depths,
        pending,
    )


def _perturbed_reference(w, s, step, depths, trace) -> bool:
    """Reference perturbed replay: its own strict decisions at w + step*s."""
    scale, scaled = clear_denominators(w)
    num, den = step.numerator, step.denominator
    moved = [x * den + num * e * scale for x, e in zip(scaled, s.entries)]
    if min(moved) < 0:
        raise DomainError(f"step {format_rational(step)} makes a weight negative")
    pending = iter(trace.records)

    def decide(items, diff) -> int:
        record = next(pending, None)
        if record is None or not diff:
            raise _PathMismatch
        realized = 1 if diff > 0 else -1
        if record[2] != realized or record[0] != tuple(items):
            raise _PathMismatch
        return realized

    return _path_repeats(moved, add, sub, decide, depths, pending)


def _audit_passes(w, s, trace) -> bool:
    """verify_policy's verdict, with a corrupt trace counted as not passed."""
    try:
        return verify_policy(trace, w, s).passed
    except CorruptTraceError:
        return False


def _signs_hold_at(w, s, step, trace) -> bool:
    """The witness re-evaluation at `step`, from terms computed here.

    The terms are each functional's own (f(w) * scale, f(s)), not the
    recorded values, so a corrupt value (the audit's to reject) does not
    mask a sign.
    """
    scale, scaled = clear_denominators(w)
    terms = [
        (sum(c * scaled[i - 1] for i, c in f), sum(c * s.entries[i - 1] for i, c in f))
        for f, _, _ in trace.records
    ]
    try:
        _confirm_witness(trace, terms, step, scale)
    except StructureError:
        return False
    return True


def _certified(w, s, step, depths, trace) -> tuple[bool, bool | None]:
    """What check_instance reads: (audit passes and path repeats, stable at `step`).

    Stable is the path repeating with every sign holding at w + step*s;
    None when there is no step.
    """
    repeats = _replay_matches(w, depths, trace)
    stable = None if step is None else repeats and _signs_hold_at(w, s, step, trace)
    return _audit_passes(w, s, trace) and repeats, stable


def _replay_steps(w, s, trace) -> list[Fraction | None]:
    """No step, the step whose stability `check_instance` reports, and 7 times that step."""
    witness = stability_witness(trace, w, s)
    cap = max_step_in_domain(w, s)
    if cap == 0:
        return [None]
    step = witness if cap is None or witness <= cap else cap
    return [None, step, 7 * step]


def test_replay_matches_the_two_reference_replays() -> None:
    # The audit, the witness re-evaluation and the one replay together must
    # give exactly the two separate replays' verdicts, on every family, size
    # and policy, on the solve's trace and on each forgery, with no step, at
    # the step check_instance uses and past it. The audit checks each record,
    # the re-evaluation the signs at the step and the replay the path, so no
    # one of them alone gives a reference's verdict.
    outcomes: Counter = Counter()
    for name in FAMILY_NAMES:
        for n in range(1, 41):
            w = generate(Family(name), n, "combined")
            for policy in POLICIES:
                s, depths, trace = _solve(w, policy)
                cases = [trace]
                if len(trace.records) >= 2:
                    cases += _forgeries(trace).values()
                for step in _replay_steps(w, s, trace):
                    for case in cases:
                        expected_equivalent = _explicit_reference(w, s, depths, case)
                        if step is None:
                            expected = (expected_equivalent, None)
                        else:
                            try:
                                expected = (
                                    expected_equivalent,
                                    _perturbed_reference(w, s, step, depths, case),
                                )
                            except DomainError:
                                # Past the domain: check_instance clamps the
                                # step, so it never certifies one there.
                                continue
                        got = _certified(w, s, step, depths, case)
                        assert got == expected, (name, n, policy, step)
                        outcomes[got] += 1
    assert {(a, b) for a in (True, False) for b in (True, False)} <= set(outcomes)
    assert outcomes[(True, None)] and outcomes[(False, None)]


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_explicit_replay_agrees_with_the_record_stream_comparison(name: str) -> None:
    # The audit and the in-place replay together must give the verdict that
    # comparing the records phase1_explicit_shadow emits with the solve's
    # gives: on the solve's own trace, on an equal copy built from fresh
    # objects, and on forgeries.
    family = Family(name)
    for n in range(1, 41):
        w = generate(family, n, "in-place")
        for policy in POLICIES:
            s, depths, trace = _solve(w, policy)
            cases = [trace, _rebuilt(trace)]
            if len(trace.records) >= 2 and n % 3 == 1:
                cases += _forgeries(trace).values()
            for case in cases:
                equivalent, stable = _certified(w, s, None, depths, case)
                assert stable is None
                assert equivalent == _stream_matches(w, s, depths, case)
            assert _replay_matches(w, depths, trace) is True


@pytest.mark.parametrize("kind", ["value", "functional", "branch", "dropped", "added"])
def test_forged_traces_fail_the_replays(kind: str) -> None:
    w = generate(Family(PAIR_SUM_TIES), 16, "forged")
    s, depths, trace = _solve(w, RIGHTMOST)
    witness = stability_witness(trace, w, s)
    assert _certified(w, s, witness, depths, trace) == (True, True)
    equivalent, stable = _certified(w, s, witness, depths, _forgeries(trace)[kind])
    assert not equivalent
    # The path and the moved signs say nothing about values: the audit
    # rejects those.
    assert stable == (kind == "value")


@pytest.mark.parametrize("policy", POLICIES)
def test_perturbed_replay_fails_where_the_path_ties(policy: str) -> None:
    # The smallest a > 0 with f(w) + a*f(s) = 0 for some record: below it
    # every recorded sign holds, and at it the re-evaluation meets a tie.
    # The tied record's sign is -1 under one policy and +1 under the other,
    # so a tie read as either sign would go unnoticed under one of them.
    w = generate(Family(UNIFORM_RANDOM), 12, "tie-at-step")
    s, depths, trace = _solve(w, policy)
    roots = []
    for step, r in enumerate(trace.records, 1):
        drift = sum(c * s.entries[i - 1] for i, c in r.functional)
        if r.primary_value * drift < 0:
            roots.append((-r.primary_value / drift, step, r.realized_sign))
    first, tied_step, tied_sign = min(roots)
    assert tied_sign == (-1 if policy == LEFTMOST else 1)
    cap = max_step_in_domain(w, s)
    assert cap is None or first <= cap
    witness = stability_witness(trace, w, s)
    assert witness < first
    _, first_failure, _, terms, scale = _audit(trace, w, s)
    assert first_failure is None
    _confirm_witness(trace, terms, witness, scale)
    with pytest.raises(StructureError, match=f"re-evaluation at step {tied_step}$"):
        _confirm_witness(trace, terms, first, scale)
    # The path does not depend on the step.
    assert _replay_matches(w, depths, trace)


# -- continuity -------------------------------------------------------------


def test_check_lipschitz() -> None:
    assert check_lipschitz((1, 2, 3), (0, 0, 0)) is True
    assert check_lipschitz((1, 2, 3), (Fraction(1, 2), 0, Fraction(-1, 2))) is True
    with pytest.raises(StructureError):
        check_lipschitz((1, 2), (1,))
    with pytest.raises(DomainError):
        check_lipschitz((1, 2), (0, -3))


# -- orientation binding ----------------------------------------------------


def test_resolved_binding_matches_configuration() -> None:
    assert resolve_orientation_binding() == POLICY_ORIENTATION


def test_binding_is_measured_once_per_process(monkeypatch) -> None:
    # The probes are fixed, so two campaigns in one process share one
    # measurement, and each caller gets a dict of its own.
    explicit_solves = []

    def counting_explicit(*args):
        explicit_solves.append(len(args[0]))
        return phase1_explicit_shadow(*args)

    monkeypatch.setattr(harness, "phase1_explicit_shadow", counting_explicit)
    harness._measured_binding.cache_clear()
    config = CampaignConfig(seed=5, counts=((Family(ALL_EQUAL), 1),), n_max=4)
    first = run_campaign(config)
    second = run_campaign(config)
    assert len(explicit_solves) == 2 * len(harness._BINDING_PROBES)
    assert first.render() == second.render()
    assert first.binding == second.binding == POLICY_ORIENTATION
    assert first.binding is not second.binding
    first.binding[LEFTMOST] = first.binding[RIGHTMOST]
    assert second.binding == POLICY_ORIENTATION
    assert resolve_orientation_binding() == POLICY_ORIENTATION
    assert len(explicit_solves) == 2 * len(harness._BINDING_PROBES)


# -- campaign config --------------------------------------------------------


def test_campaign_config_validation() -> None:
    with pytest.raises(StructureError, match="seed"):
        CampaignConfig(seed="7", counts=())  # type: ignore[arg-type]
    with pytest.raises(StructureError, match="policy"):
        CampaignConfig(seed=7, counts=(), policies=("sideways",))
    with pytest.raises(StructureError, match="duplicate"):
        CampaignConfig(seed=7, counts=(), policies=(LEFTMOST, LEFTMOST))
    with pytest.raises(StructureError, match="n_min"):
        CampaignConfig(seed=7, counts=(), n_min=0)
    with pytest.raises(StructureError, match="configured twice"):
        CampaignConfig(seed=7, counts=((Family(ALL_EQUAL), 1), (Family(ALL_EQUAL), 2)))
    with pytest.raises(StructureError, match=">= 0"):
        CampaignConfig(seed=7, counts=((Family(ALL_EQUAL), -1),))
    with pytest.raises(StructureError, match="lipschitz_pairs"):
        CampaignConfig(seed=7, counts=(), lipschitz_pairs=-1)
    # bool is an int subclass; the report header would print `true`.
    for name in ("n_min", "n_max", "lipschitz_pairs", "lipschitz_n_max"):
        with pytest.raises(StructureError, match=f"{name} must be an integer, got True"):
            CampaignConfig(seed=7, counts=(), **{name: True})
    with pytest.raises(StructureError, match="n_max must be an integer"):
        CampaignConfig(seed=7, counts=(), n_max="3")  # type: ignore[arg-type]
    with pytest.raises(StructureError, match="count for all-equal must be an integer, got True"):
        CampaignConfig(seed=7, counts=((Family(ALL_EQUAL), True),))
    with pytest.raises(StructureError, match="count keys must be families"):
        CampaignConfig(seed=7, counts=((ALL_EQUAL, 1),))  # type: ignore[arg-type]


def test_parse_config_full_document() -> None:
    text = """
    # campaign
    seed = 99
    n_min = 1
    n_max = 12   # inline comment
    policies = leftmost, rightmost
    count.all-equal = 3
    count.equal-blocks:4 = 2
    lipschitz_pairs = 5
    """
    config = parse_config(text)
    assert config.seed == 99
    assert config.n_max == 12
    assert config.policies == (LEFTMOST, RIGHTMOST)
    assert dict(config.as_obj()["counts"]) == {"all-equal": 3, "equal-blocks:4": 2}
    assert config.lipschitz_pairs == 5
    assert config.lipschitz_n_max == 12  # defaults to min(40, n_max)


def test_config_text_and_api_share_the_lipschitz_default() -> None:
    text = "seed = 1\ncount.all-equal = 1\nn_max = 10\nlipschitz_pairs = 3\n"
    api = CampaignConfig(seed=1, counts=((Family.parse("all-equal"), 1),), n_max=10, lipschitz_pairs=3)
    assert parse_config(text) == api
    assert api.lipschitz_n_max == 10
    assert CampaignConfig(seed=1, counts=()).lipschitz_n_max == 40


@pytest.mark.parametrize("text", ["1_0", "\uff15", " 7"])
def test_parse_int_takes_only_ascii_decimal_digits(text: str) -> None:
    with pytest.raises(FormatError, match="expected an integer"):
        _parse_int(text)


def test_parse_int_rejects_integers_past_the_digit_limit() -> None:
    # int() raises a bare ValueError past sys.get_int_max_str_digits() digits.
    huge = "1" * 5000
    with pytest.raises(FormatError, match="too many digits"):
        _parse_int(huge)
    with pytest.raises(FormatError, match="line 1.*too many digits"):
        parse_config(f"seed = {huge}")
    with pytest.raises(FormatError, match="line 2.*too many digits"):
        parse_config(f"seed = 7\ncount.equal-blocks:{huge} = 1")


@pytest.mark.parametrize(
    "text, message",
    [
        ("n_max = 5", "config must set seed"),
        ("seed 7", "line 1.*expected 'key = value'"),
        ("seed = 7\nwat = 3", "line 2.*unknown key"),
        ("seed = 7\nseed = 8", "line 2.*duplicate"),
        ("seed = 7\ncount.sawtooth = 1", "line 2.*unknown instance family"),
        ("seed = 7\nn_min = x", "line 2.*expected an integer"),
        ("seed = 1_0", "line 1.*expected an integer"),
        ("seed = \uff15", "line 1.*expected an integer"),
        ("seed = 7\ncount.all-equal = 1\ncount.all-equal = 2", "line 3.*twice"),
        ("seed = 7\nn_min = 5\nn_max = 2", "n_min"),
    ],
)
def test_parse_config_errors(text: str, message: str) -> None:
    with pytest.raises(FormatError, match=message):
        parse_config(text)


# -- campaigns --------------------------------------------------------------


def _tiny_config() -> CampaignConfig:
    return CampaignConfig(
        seed=41,
        counts=((Family(ALL_EQUAL), 3), (Family(UNIFORM_RANDOM), 2)),
        n_min=1,
        n_max=7,
        lipschitz_pairs=4,
        lipschitz_n_max=6,
    )


def _sample_size_with_float_weights(rng, index, n_min, n_max):
    """`_sample_size` with the float weights it was first written with."""
    if n_min == n_max:
        return n_min
    if index == 0:
        return n_max
    if index == 1:
        return n_min
    table = (8, 8, 7, 6, 5, 3, 1.5, 0.5)
    bits = range(n_min.bit_length(), n_max.bit_length() + 1)
    weights = [table[b - 1] if b <= len(table) else 0.5 for b in bits]
    k = rng.choices(bits, weights=weights)[0]
    return rng.randint(max(n_min, 1 << (k - 1)), min(n_max, (1 << k) - 1))


def test_sample_size_draws_the_sizes_the_float_weights_drew() -> None:
    # The integer weights are the float ones doubled. Doubling is exact in
    # binary floating point, so `random.choices` picks the same bit-length.
    for n_min, n_max in [(1, 200), (1, 40), (5, 9), (3, 1000), (200, 5000)]:
        for index in range(300):
            seed = f"sizes|{n_min}|{n_max}|{index}"
            got = _sample_size(random.Random(seed), index, n_min, n_max)
            assert got == _sample_size_with_float_weights(random.Random(seed), index, n_min, n_max)


def test_campaign_counts_and_ordering() -> None:
    report = run_campaign(_tiny_config())
    assert report.passed
    agg = report.aggregate
    assert agg["weight_vectors"] == 5
    assert agg["solver_runs"] == 10  # both policies per vector
    assert agg["failing_runs"] == 0
    assert agg["lipschitz_pairs"] == 4
    assert agg["lipschitz_failures"] == 0
    assert agg["binding_matches_configuration"] is True
    assert agg["verdict"] == "PASS"
    assert agg["degenerate_vectors"] == 3

    sizes = {(v.family, v.n) for v in report.instances}
    # The first two draws per family pin the extremes.
    for token in ("all-equal", "uniform-random"):
        assert (token, 7) in sizes
        assert (token, 1) in sizes

    keys = [(v.family, v.n, v.seed, v.policy) for v in report.instances]
    assert keys == sorted(keys)


def test_campaign_report_renders_machine_readable_rows() -> None:
    report = run_campaign(_tiny_config())
    text = report.render()
    lines = text.splitlines()
    objs = [json.loads(line) for line in lines if not line.startswith("#")]
    assert objs[0]["kind"] == "header"
    assert objs[0]["config"]["seed"] == 41
    assert objs[-1]["kind"] == "aggregate"
    kinds = {obj["kind"] for obj in objs}
    assert kinds == {"header", "instance", "lipschitz", "aggregate"}
    assert any(line.startswith("#") for line in lines)


def test_campaign_is_reproducible_byte_for_byte() -> None:
    first = run_campaign(_tiny_config()).render()
    second = run_campaign(_tiny_config()).render()
    assert first == second


def test_campaign_with_no_work_still_reports() -> None:
    report = run_campaign(CampaignConfig(seed=1, counts=()))
    assert report.passed
    assert report.aggregate["weight_vectors"] == 0
    assert report.aggregate["verdict"] == "PASS"
