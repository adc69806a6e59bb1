"""Instance families, certification checks, and campaign plumbing."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from tiebreak.alphabetic import (
    LEFTMOST,
    POLICIES,
    POLICY_ORIENTATION,
    RIGHTMOST,
    hu_tucker_phase1,
    phase1_explicit_shadow,
)
from tiebreak.core import LinearFunctional
from tiebreak.errors import DomainError, FormatError, StructureError
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
    _explicit_run_matches,
    _parse_int,
    _perturbed_run_matches,
    check_instance,
    check_lipschitz,
    generate,
    leaves_family,
    parse_config,
    resolve_orientation_binding,
    run_campaign,
)
from tiebreak.perturb import (
    CUSTOM,
    ORIENTATIONS,
    ShadowVector,
    dyadic_shadow,
    max_step_in_domain,
)
from tiebreak.trace import LEFT, RIGHT, ComparisonRecord, DecisionTrace, stability_witness


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
    flat = ShadowVector((Fraction(1), Fraction(1)), CUSTOM)
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
        shadows = [dyadic_shadow(n, orientation) for orientation in ORIENTATIONS]
        # Fractional entries with repeats and zeros, so that some steps keep
        # an equality and the check must answer False.
        entries = (Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 6))) for _ in range(n))
        shadows.append(ShadowVector(tuple(entries), CUSTOM))
        for s in shadows:
            steps = {Fraction(1), Fraction(1, 3), Fraction(rng.randint(1, 9), rng.randint(1, 9))}
            if s.orientation != CUSTOM:
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


def test_check_instance_large_sizes_skip_enumeration() -> None:
    verdict = check_instance((1,) * 12, RIGHTMOST)
    assert verdict.passed
    assert verdict.optima is None
    assert verdict.oracles_agree is None


def test_check_instance_mints_records_only_for_the_solve(monkeypatch) -> None:
    # The replays check each decision against the solve's records in place,
    # so one check mints exactly the solve's records and no more.
    w = generate(Family(PAIR_SUM_TIES), 24, "mint")
    s = dyadic_shadow(24, POLICY_ORIENTATION[RIGHTMOST])
    _, trace = hu_tucker_phase1(w, s)
    make = ComparisonRecord.make
    minted = []

    def counting_make(*args):
        minted.append(args[0])
        return make(*args)

    monkeypatch.setattr(ComparisonRecord, "make", counting_make)
    verdict = check_instance(w, RIGHTMOST)
    assert verdict.passed and verdict.equivalent
    assert verdict.stability == "pass" and verdict.stability_mode == "witness"
    assert minted == list(range(1, len(trace.records) + 1))


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
    """A trace of `records`, renumbered from step 1, other fields as given."""
    return DecisionTrace(
        n=trace.n,
        records=tuple(
            tuple.__new__(ComparisonRecord, (step, *record[1:]))
            for step, record in enumerate(records, start=1)
        ),
    )


def _forgeries(trace: DecisionTrace) -> dict[str, DecisionTrace]:
    """One altered copy of a trace with two or more records per kind of change."""
    records = list(trace.records)
    # Alter a tie where there is one, so that a flipped branch still reads
    # as a sign the shadow could have given.
    k = next((j for j, r in enumerate(records) if r.tie), len(records) // 2)
    step, functional, value, realized, tie, branch = records[k]
    other = next(r.functional for r in records if r.functional != functional)

    def replaced(record) -> DecisionTrace:
        return _forge(trace, records[:k] + [record] + records[k + 1 :])

    new = tuple.__new__
    return {
        "value": replaced(new(ComparisonRecord, (step, functional, value + 1, realized, tie, branch))),
        "functional": replaced(new(ComparisonRecord, (step, other, value, realized, tie, branch))),
        "branch": replaced(
            new(ComparisonRecord, (step, functional, value, -realized, tie, RIGHT if branch == LEFT else LEFT))
        ),
        "tie-flag": replaced(new(ComparisonRecord, (step, functional, value, realized, not tie, branch))),
        "dropped": _forge(trace, records[:k] + records[k + 1 :]),
        "added": _forge(trace, records + [records[-1]]),
    }


def _rebuilt(trace: DecisionTrace) -> DecisionTrace:
    """An equal trace that shares no functional or value object with `trace`."""
    return DecisionTrace(
        n=trace.n,
        records=tuple(
            ComparisonRecord(
                step=r.step,
                functional=LinearFunctional(dict(r.functional)),
                primary_value=Fraction(r.primary_value.numerator, r.primary_value.denominator),
                realized_sign=r.realized_sign,
                tie=r.tie,
                branch=r.branch,
            )
            for r in trace.records
        ),
    )


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_explicit_replay_agrees_with_the_record_stream_comparison(name: str) -> None:
    # The in-place replay must give the verdict that comparing the records
    # phase1_explicit_shadow emits with the solve's gives: on the solve's
    # own trace, on an equal copy built from fresh objects, and on forgeries.
    family = Family(name)
    for n in range(1, 41):
        w = generate(family, n, "in-place")
        for policy in POLICIES:
            s, depths, trace = _solve(w, policy)
            cases = [trace, _rebuilt(trace)]
            if len(trace.records) >= 2 and n % 3 == 1:
                cases += _forgeries(trace).values()
            for case in cases:
                assert _explicit_run_matches(w, s, depths, case) == _stream_matches(w, s, depths, case)
            assert _explicit_run_matches(w, s, depths, trace)


@pytest.mark.parametrize("kind", ["value", "functional", "branch", "tie-flag", "dropped", "added"])
def test_forged_traces_fail_the_replays(kind: str) -> None:
    w = generate(Family(PAIR_SUM_TIES), 16, "forged")
    s, depths, trace = _solve(w, RIGHTMOST)
    witness = stability_witness(trace, w, s)
    assert _explicit_run_matches(w, s, depths, trace)
    assert _perturbed_run_matches(w, s, witness, depths, trace)
    forged = _forgeries(trace)[kind]
    assert not _explicit_run_matches(w, s, depths, forged)
    if kind in ("functional", "branch", "dropped", "added"):
        # The perturbed replay checks the path, not values or tie flags.
        assert not _perturbed_run_matches(w, s, witness, depths, forged)


@pytest.mark.parametrize("policy", POLICIES)
def test_perturbed_replay_fails_where_the_path_ties(policy: str) -> None:
    # The smallest a > 0 with f(w) + a*f(s) = 0 for some record: below it
    # every recorded sign holds, and at it the replay meets a tie. The tied
    # record's sign is -1 under one policy and +1 under the other, so a tie
    # read as either sign would go unnoticed under one of them.
    w = generate(Family(UNIFORM_RANDOM), 12, "tie-at-step")
    s, depths, trace = _solve(w, policy)
    roots = []
    for r in trace.records:
        drift = r.functional.evaluate(s.entries)
        if r.primary_value * drift < 0:
            roots.append((-r.primary_value / drift, r.realized_sign))
    first, tied_sign = min(roots)
    assert tied_sign == (-1 if policy == LEFTMOST else 1)
    cap = max_step_in_domain(w, s)
    assert cap is None or first <= cap
    witness = stability_witness(trace, w, s)
    assert witness < first
    assert _perturbed_run_matches(w, s, witness, depths, trace)
    assert not _perturbed_run_matches(w, s, first, depths, trace)


def test_perturbed_replay_keeps_moved_weights_nonnegative() -> None:
    w = (Fraction(0), Fraction(1), Fraction(1))
    s, depths, trace = _solve(w, LEFTMOST)
    with pytest.raises(DomainError, match="negative"):
        _perturbed_run_matches(w, s, Fraction(1), depths, trace)


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
