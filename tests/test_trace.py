"""Records, traces, the wire format, and the two audits built on them."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from tiebreak.alphabetic import LEFTMOST, RIGHTMOST, hu_tucker_phase1
from tiebreak.core import LinearFunctional, sign
from tiebreak.errors import (
    CorruptTraceError,
    DomainError,
    FormatError,
    PolicyMismatchError,
    StructureError,
)
from tiebreak.harness import FAMILY_NAMES, Family, generate
from tiebreak.perturb import NEGATIVE, POSITIVE, ShadowVector, dyadic_shadow
from tiebreak.trace import (
    LEFT,
    RIGHT,
    ComparisonRecord,
    DecisionTrace,
    RecordCheck,
    VerificationReport,
    dump_trace,
    load_trace,
    recorder,
    stability_witness,
    verify_policy,
)

F12 = LinearFunctional({1: 1, 2: -1})


def _rec(step: int = 1, value: int = 1, realized: int = 1) -> ComparisonRecord:
    return ComparisonRecord.make(step, F12, Fraction(value), realized)


def _solve(w, policy):
    vec = tuple(Fraction(x) for x in w)
    orientation = NEGATIVE if policy == LEFTMOST else POSITIVE
    s = dyadic_shadow(len(vec), orientation)
    depths, trace = hu_tucker_phase1(vec, s)
    return vec, s, depths, trace


def test_make_derives_tie_and_branch() -> None:
    rec = ComparisonRecord.make(3, F12, Fraction(-2, 5), -1)
    assert rec.step == 3
    assert rec.primary_value == Fraction(-2, 5)
    assert not rec.tie
    assert rec.branch == LEFT

    tied = ComparisonRecord.make(1, F12, 0, 1)
    assert tied.tie
    assert tied.branch == RIGHT
    assert isinstance(tied.primary_value, Fraction)


def test_record_rejects_inconsistent_fields() -> None:
    good = dict(step=1, functional=F12, primary_value=Fraction(1), realized_sign=1, tie=False, branch=RIGHT)
    ComparisonRecord(**good)
    for bad in (
        {**good, "step": 0},
        {**good, "realized_sign": 0},
        {**good, "tie": True},
        {**good, "branch": LEFT},
        {**good, "primary_value": Fraction(-1)},
        {**good, "primary_value": Fraction(0)},
    ):
        with pytest.raises(StructureError):
            ComparisonRecord(**bad)


@pytest.mark.parametrize(
    "make, other, field",
    [
        (_rec, lambda: _rec(value=2), "step"),
        (
            lambda: DecisionTrace(n=2, records=(_rec(),)),
            lambda: DecisionTrace(n=3, records=(_rec(),)),
            "records",
        ),
        (lambda: RecordCheck(1, -1, True), lambda: RecordCheck(1, -1, False), "ok"),
        (
            lambda: VerificationReport(True, (RecordCheck(1, 1, True),), None),
            lambda: VerificationReport(False, (RecordCheck(1, 1, False),), 1),
            "first_failure",
        ),
        (lambda: ShadowVector((8, 4, 2)), lambda: ShadowVector((8, 4, 1)), "entries"),
    ],
    ids=["ComparisonRecord", "DecisionTrace", "RecordCheck", "VerificationReport", "ShadowVector"],
)
def test_values_are_immutable_and_compare_and_hash_by_value(make, other, field: str) -> None:
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    assert value == make() and hash(value) == hash(make())
    assert value != other()
    assert value != "something else"
    assert len({value, make()}) == 1
    assert f"{field}=" in repr(value)


@pytest.mark.parametrize(
    "cls, fields",
    [
        # Not a trace with records: a ComparisonRecord neither pickles nor copies.
        (DecisionTrace, {"n": 2, "records": ()}),
        (RecordCheck, {"step": 3, "expected_sign": -1, "ok": False}),
        (VerificationReport, {"passed": False, "checks": (RecordCheck(1, 1, False),), "first_failure": 1}),
        (ShadowVector, {"entries": (8, 4, 2)}),
    ],
    ids=lambda arg: arg.__name__ if isinstance(arg, type) else "",
)
def test_fields_construct_by_position_or_keyword(cls, fields: dict) -> None:
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert {name: getattr(by_position, name) for name in fields} == fields
    # pickle and copy rebuild through the constructor, field by field.
    for again in (pickle.loads(pickle.dumps(by_keyword)), copy.copy(by_keyword), copy.deepcopy(by_keyword)):
        assert type(again) is cls and again == by_keyword


def test_trace_requires_consecutive_steps_within_range() -> None:
    DecisionTrace(n=2, records=(_rec(1), _rec(2)))
    with pytest.raises(StructureError, match="expected 1, got 2"):
        DecisionTrace(n=2, records=(_rec(2),))
    with pytest.raises(StructureError, match="expected 2, got 3"):
        DecisionTrace(2, (_rec(1), _rec(3)))
    with pytest.raises(StructureError, match=r"step 1 references index 2 outside 1\.\.1"):
        DecisionTrace(n=1, records=(_rec(1),))
    with pytest.raises(StructureError, match="trace instance size must be >= 1, got 0"):
        DecisionTrace(n=0, records=())
    assert DecisionTrace(n=5, records=()).records == ()


def test_recorder_numbers_records_and_breaks_ties_on_the_shadow() -> None:
    decide, finish = recorder(2, 2, (4, 2))
    items = ((1, -1), (2, 1))
    assert decide(items, 3) == 1
    assert decide(items, -1) == -1
    assert decide(items, 0) == -1  # shadow value -4 + 2
    assert decide(items, 0, 5) == 1  # a given drift replaces the shadow value
    with pytest.raises(DomainError, match="step 5"):
        decide(items, 0, 0)
    trace = finish()
    assert trace.n == 2
    assert [(r.step, r.primary_value, r.realized_sign, r.tie) for r in trace.records] == [
        (1, Fraction(3, 2), 1, False),
        (2, Fraction(-1, 2), -1, False),
        (3, 0, -1, True),
        (4, 0, 1, True),
    ]
    assert all(r.functional == LinearFunctional(items) for r in trace.records)
    # One Fraction per distinct value.
    assert trace.records[2].primary_value is trace.records[3].primary_value

    streamed: list[ComparisonRecord] = []
    decide, finish = recorder(2, 1, (4, 2), streamed.append)
    assert decide(((1, 1),), 1) == 1
    assert finish() is None
    assert [r.step for r in streamed] == [1]


def test_dump_load_roundtrip_for_solver_traces() -> None:
    for w, policy in [((1, 2, 3), LEFTMOST), ((1, 1, 1, 1, 1), RIGHTMOST), ((2, Fraction(3, 2), Fraction(3, 2), 2), LEFTMOST)]:
        _, _, _, trace = _solve(w, policy)
        again = load_trace(dump_trace(trace), trace.n)
        assert again.records == trace.records
        assert again.n == trace.n


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_dump_load_dump_is_byte_identical(name: str) -> None:
    for n in range(1, 41):
        w = generate(Family(name), n, "reload")
        for policy in (LEFTMOST, RIGHTMOST):
            _, _, _, trace = _solve(w, policy)
            text = dump_trace(trace)
            again = load_trace(text, n)
            assert dump_trace(again) == text
            assert again.records == trace.records


def _line(step: int, coeff: str, value: str = "1") -> str:
    return (
        f'{{"step": {step}, "coeffs": {{"1": "{coeff}", "2": "-1"}}, '
        f'"value": "{value}", "tie": false, "branch": "R"}}'
    )


def test_load_reads_every_spelling_of_an_integral_coefficient_as_an_int() -> None:
    tokens = ["1", "+1", "01", "2/2", "1", "2/2"]
    trace = load_trace("\n".join(_line(k, t) for k, t in enumerate(tokens, start=1)), 2)
    fresh = LinearFunctional({1: 1, 2: -1})
    for record in trace.records:
        assert record.functional == fresh
        assert hash(record.functional) == hash(fresh)
        assert [type(c) for _, c in record.functional] == [int, int]
        assert record.primary_value == 1 and type(record.primary_value) is Fraction


def test_load_keeps_fractional_coefficients_as_fractions() -> None:
    trace = load_trace("\n".join(_line(k, "3/2", "1/2") for k in (1, 2)), 2)
    for record in trace.records:
        ((_, coeff), _) = record.functional
        assert type(coeff) is Fraction and coeff == Fraction(3, 2)
        assert record.primary_value == Fraction(1, 2)


@pytest.mark.parametrize(
    "second, message",
    [
        (_line(2, "1.5"), "malformed rational"),
        (_line(2, "1", "1.5"), "malformed rational"),
        (_line(2, "1/0"), "zero denominator"),
        (_line(2, "1" * 5000), "too many digits"),
        (_line(2, "1", "1" * 5000), "too many digits"),
    ],
    ids=["coeff", "value", "zero-denominator", "long-coeff", "long-value"],
)
def test_load_names_the_first_line_with_a_bad_token(second: str, message: str) -> None:
    # Line 1 fills the per-load token memo; the bad token on lines 2 and 3
    # must raise, naming line 2.
    bad = second.replace('"step": 2', '"step": 3')
    with pytest.raises(FormatError, match="line 2") as err:
        load_trace("\n".join([_line(1, "1"), second, bad]), 2)
    assert message in str(err.value)


def test_dump_of_an_empty_trace_is_empty() -> None:
    assert dump_trace(DecisionTrace(n=1, records=())) == ""
    assert load_trace("", 1).records == ()


def test_load_skips_blank_lines_and_reports_line_numbers() -> None:
    _, _, _, trace = _solve((1, 2, 3), LEFTMOST)
    text = dump_trace(trace)
    assert load_trace("\n" + text + "\n \t\r\n\n", 3).records == trace.records

    with pytest.raises(FormatError, match="line 2"):
        load_trace("\n{not json}", 3)


@pytest.mark.parametrize(
    "separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\r"], ids=repr
)
def test_load_splits_records_only_at_newlines(separator: str) -> None:
    # The format is one record per line; str.splitlines() would also split
    # at each of these.
    _, _, _, trace = _solve((1, 1, 1, 1, 1), LEFTMOST)
    text = dump_trace(trace)
    assert len(trace.records) == 9
    with pytest.raises(FormatError, match="line 1"):
        load_trace(text.replace("\n", separator), 5)
    # Nor is a line holding only that character blank, except for `\r`,
    # which JSON counts as whitespace.
    if separator != "\r":
        with pytest.raises(FormatError, match="line 2"):
            load_trace(text.replace("\n", "\n" + separator + "\n", 1), 5)


def test_load_reads_crlf_line_endings() -> None:
    _, _, _, trace = _solve((1, 1, 1, 1, 1), LEFTMOST)
    text = dump_trace(trace).replace("\n", "\r\n")
    assert load_trace(text, 5).records == trace.records


@pytest.mark.parametrize(
    "line, message",
    [
        ('["not", "an", "object"]', "key-value object"),
        ('{"step": 1}', "keys must be exactly"),
        ('{"step": true, "coeffs": {}, "value": "0", "tie": true, "branch": "R"}', "step must be an integer"),
        ('{"step": 1, "coeffs": [], "value": "0", "tie": true, "branch": "R"}', "coeffs must be a map"),
        ('{"step": 1, "coeffs": {"x": "1"}, "value": "0", "tie": true, "branch": "R"}', "not an integer"),
        ('{"step": 1, "coeffs": {"1": 1}, "value": "0", "tie": true, "branch": "R"}', "rational text"),
        ('{"step": 1, "coeffs": {"1": "1.5"}, "value": "0", "tie": true, "branch": "R"}', "malformed rational"),
        ('{"step": 1, "coeffs": {"1": "1"}, "value": 0, "tie": true, "branch": "R"}', "value must be rational text"),
        ('{"step": 1, "coeffs": {"1": "1"}, "value": "0", "tie": 1, "branch": "R"}', "tie must be a boolean"),
        ('{"step": 1, "coeffs": {"1": "1"}, "value": "0", "tie": true, "branch": "up"}', "branch"),
        ('{"step": 1, "coeffs": {"1": "1"}, "value": "2", "tie": true, "branch": "R"}', "contradicts"),
        ('{"step": 1, "coeffs": {"0": "1"}, "value": "1", "tie": false, "branch": "R"}', "positive int"),
        ('{"step": 1, "coeffs": {"1_0": "1"}, "value": "1", "tie": false, "branch": "R"}', "not an integer"),
        ('{"step": 1, "coeffs": {" 1": "1"}, "value": "1", "tie": false, "branch": "R"}', "not an integer"),
        ('{"step": 1, "coeffs": {"\u0662": "1"}, "value": "1", "tie": false, "branch": "R"}', "not an integer"),
        ('{"step": 1, "coeffs": {"1": "1"}, "value": "1", "tie": false, "branch": "L", "branch": "R"}', "duplicate key 'branch'"),
        ('{"step": 1, "coeffs": {"1": "-1", "1": "1"}, "value": "1", "tie": false, "branch": "R"}', "duplicate key '1'"),
        ('\ufeff{"step": 1, "coeffs": {"1": "1"}, "value": "1", "tie": false, "branch": "R"}', "Unexpected UTF-8 BOM"),
        ('{"step": 1, "coeffs": {"1": "1"}, "value": "1", "tie": false, "branch": "R"} {}', "Extra data"),
    ],
)
def test_load_rejects_malformed_records(line: str, message: str) -> None:
    with pytest.raises(FormatError, match="line 1") as err:
        load_trace(line, 3)
    assert message in str(err.value)


@pytest.mark.parametrize(
    "line, message",
    [
        (
            '{"step": ' + "1" * 5000 + ', "coeffs": {"1": "1"}, "value": "1", "tie": false, "branch": "R"}',
            "not a valid record: too many digits",
        ),
        (
            '{"step": 1, "coeffs": {"' + "1" * 5000 + '": "1"}, "value": "1", "tie": false, "branch": "R"}',
            "coefficient index has too many digits (5000)",
        ),
        (
            '{"step": 1, "coeffs": {"1": "1"}, "value": "' + "1" * 5000 + '", "tie": false, "branch": "R"}',
            "too many digits",
        ),
    ],
    ids=["step", "index", "value"],
)
def test_load_rejects_numbers_past_the_digit_limit(line: str, message: str) -> None:
    with pytest.raises(FormatError, match="line 1") as err:
        load_trace(line, 3)
    assert message in str(err.value)


def test_load_rejects_step_gaps_at_trace_level() -> None:
    line = '{"step": 2, "coeffs": {"1": "1"}, "value": "1", "tie": false, "branch": "R"}'
    with pytest.raises(FormatError, match="expected 1"):
        load_trace(line, 3)


def test_loaded_fractional_coefficients_stay_exact() -> None:
    line = '{"step": 1, "coeffs": {"2": "-1/2"}, "value": "-1/4", "tie": false, "branch": "L"}'
    trace = load_trace(line, 2)
    rec = trace.records[0]
    assert rec.functional == LinearFunctional({2: Fraction(-1, 2)})
    assert rec.primary_value == Fraction(-1, 4)
    w = [Fraction(1), Fraction(1, 2)]
    report = verify_policy(trace, w, dyadic_shadow(2))
    assert report.passed
    # |f(w)| / (|f(s)| + 1) with f(s) = -1/2 * 2 = -1.
    assert stability_witness(trace, w, dyadic_shadow(2)) == Fraction(1, 8)


def test_verify_policy_passes_freshly_solved_traces() -> None:
    for w, policy in [((1, 2, 3), LEFTMOST), ((1, 1, 1, 1), RIGHTMOST), ((0, 0, 5), LEFTMOST)]:
        vec, s, _, trace = _solve(w, policy)
        report = verify_policy(trace, vec, s)
        assert report.passed
        assert report.first_failure is None
        assert len(report.checks) == len(trace.records)
        assert all(c.ok for c in report.checks)
        assert [c.expected_sign for c in report.checks] == [r.realized_sign for r in trace.records]


def test_verify_policy_flags_the_wrong_orientation() -> None:
    # An all-equal instance branches purely on the shadow, so auditing the
    # leftmost trace against the positive direction must report mismatches.
    vec, _, _, trace = _solve((1, 1, 1, 1), LEFTMOST)
    report = verify_policy(trace, vec, dyadic_shadow(4, POSITIVE))
    assert not report.passed
    assert report.first_failure == min(c.step for c in report.checks if not c.ok)


def test_verify_policy_detects_corrupt_values() -> None:
    vec, s, _, trace = _solve((1, 2, 3), LEFTMOST)
    rec = trace.records[0]
    forged = ComparisonRecord.make(
        rec.step, rec.functional, rec.primary_value + 1, rec.realized_sign
    )
    bad = DecisionTrace(n=trace.n, records=(forged,))
    with pytest.raises(CorruptTraceError, match="step 1"):
        verify_policy(bad, vec, s)


def test_verify_policy_checks_dimensions() -> None:
    vec, s, _, trace = _solve((1, 2, 3), LEFTMOST)
    with pytest.raises(StructureError):
        verify_policy(trace, vec + (Fraction(1),), s)
    with pytest.raises(StructureError):
        verify_policy(trace, vec, dyadic_shadow(4))


def test_stability_witness_frozen_values() -> None:
    vec, s, _, trace = _solve((1, 2, 3), LEFTMOST)
    assert stability_witness(trace, vec, s) == Fraction(2, 7)
    vec, s, _, trace = _solve((1, 2, 3), RIGHTMOST)
    assert stability_witness(trace, vec, s) == Fraction(2, 7)
    vec, s, _, trace = _solve((1, 1, 1, 1, 1), LEFTMOST)
    # With s = (-32, -16, -8, -4, -2) only two records are not ties, both of
    # value -1: -w1 - w2 + w4 with drift 32 + 16 - 4 = 44, and -w1 - w2 + w5
    # with drift 32 + 16 - 2 = 46. The witness is min(1/45, 1/47).
    assert [r.functional for r in trace.records if not r.tie] == [
        LinearFunctional({1: -1, 2: -1, 4: 1}),
        LinearFunctional({1: -1, 2: -1, 5: 1}),
    ]
    assert all(r.primary_value == -1 for r in trace.records if not r.tie)
    assert stability_witness(trace, vec, s) == Fraction(1, 47)


def test_stability_witness_is_one_for_all_tie_traces() -> None:
    vec, s, _, trace = _solve((1, 1), LEFTMOST)
    assert all(r.tie for r in trace.records)
    assert stability_witness(trace, vec, s) == 1
    assert stability_witness(DecisionTrace(n=1, records=()), (Fraction(1),), dyadic_shadow(1)) == 1


def test_stability_witness_preserves_every_recorded_sign() -> None:
    # Independent replay: evaluate each functional at w + a*s directly.
    rng = random.Random("trace-witness")
    for _ in range(60):
        n = rng.randint(2, 8)
        w = tuple(Fraction(rng.randint(0, 12), 1 << rng.randint(0, 2)) for _ in range(n))
        policy = rng.choice((LEFTMOST, RIGHTMOST))
        vec, s, _, trace = _solve(w, policy)
        a = stability_witness(trace, vec, s)
        assert a > 0
        moved = [wi + a * si for wi, si in zip(vec, s.entries)]
        for rec in trace.records:
            assert sign(sum(c * moved[i - 1] for i, c in rec.functional)) == rec.realized_sign


def test_stability_witness_rejects_a_record_its_value_contradicts() -> None:
    # Value +1 but realized sign -1: no positive step can keep that sign, so
    # the witness fails its own re-evaluation even when told to trust the trace.
    forged = ComparisonRecord.make(1, F12, Fraction(1), -1)
    trace = DecisionTrace(n=2, records=(forged,))
    with pytest.raises(StructureError, match="re-evaluation at step 1"):
        stability_witness(trace, (Fraction(2), Fraction(1)), dyadic_shadow(2), verified=True)


def test_stability_witness_requires_a_verified_trace() -> None:
    vec, _, _, trace = _solve((1, 1, 1), LEFTMOST)
    with pytest.raises(PolicyMismatchError):
        stability_witness(trace, vec, dyadic_shadow(3, POSITIVE))
