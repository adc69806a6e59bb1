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
from tiebreak.partition import greedy_partition
from tiebreak.perturb import NEGATIVE, POSITIVE, ShadowVector, dyadic_shadow
from tiebreak.trace import (
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


def _rec(value: int = 1, realized: int = 1) -> ComparisonRecord:
    return ComparisonRecord(F12, Fraction(value), realized)


def _solve(w, policy):
    vec = tuple(Fraction(x) for x in w)
    orientation = NEGATIVE if policy == LEFTMOST else POSITIVE
    s = dyadic_shadow(len(vec), orientation)
    depths, trace = hu_tucker_phase1(vec, s)
    return vec, s, depths, trace


def test_recorder_derives_tie_and_branch() -> None:
    # The recorder mints records without the validating constructor, so the
    # fields it sets must be ones that constructor accepts. The tie flag and
    # the dumped step and branch follow from them.
    scaled, decide, finish = recorder((Fraction(1, 5), Fraction(2, 5)), ShadowVector((4, 2)))
    assert scaled == [1, 2]
    assert decide(F12, -2) == -1
    assert decide(F12, 0) == 1  # shadow value 4 - 2
    trace = finish()
    rec, tied = trace.records
    assert rec.primary_value == Fraction(-2, 5)
    assert not rec.tie
    assert tied.tie
    assert isinstance(tied.primary_value, Fraction)
    assert dump_trace(trace) == (
        '{"step": 1, "coeffs": {"1": "1", "2": "-1"}, "value": "-2/5", "tie": false, "branch": "L"}\n'
        '{"step": 2, "coeffs": {"1": "1", "2": "-1"}, "value": "0", "tie": true, "branch": "R"}\n'
    )
    for minted in (rec, tied):
        assert type(minted) is ComparisonRecord
        assert type(minted.functional) is LinearFunctional
        assert ComparisonRecord(*minted) == minted
        assert LinearFunctional(minted.functional) == minted.functional


def test_record_rejects_inconsistent_fields() -> None:
    good = dict(functional=F12, primary_value=Fraction(1), realized_sign=1)
    ComparisonRecord(**good)
    # On a tie the shadow decides, so either sign agrees with a zero value.
    for realized in (-1, 1):
        ComparisonRecord(**{**good, "primary_value": Fraction(0), "realized_sign": realized})
    for bad in (
        {**good, "realized_sign": 0},
        {**good, "realized_sign": -1},
        {**good, "primary_value": Fraction(-1)},
    ):
        with pytest.raises(StructureError):
            ComparisonRecord(**bad)


def test_record_keeps_only_the_decision() -> None:
    # Step, tie flag and branch letter follow from a record's position,
    # value and sign, so the record does not store them.
    assert ComparisonRecord._fields == ("functional", "primary_value", "realized_sign")
    assert isinstance(ComparisonRecord.tie, property)
    assert _rec(value=0).tie and not _rec(value=-1, realized=-1).tie
    assert not hasattr(_rec(), "step") and not hasattr(_rec(), "branch")


@pytest.mark.parametrize(
    "make, other, field",
    [
        (_rec, lambda: _rec(value=2), "primary_value"),
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
        (
            ComparisonRecord,
            {"functional": F12, "primary_value": Fraction(0), "realized_sign": -1},
        ),
        (DecisionTrace, {"n": 2, "records": ()}),
        pytest.param(
            DecisionTrace, {"n": 2, "records": (_rec(), _rec(value=-3, realized=-1))}, id="DecisionTrace-records"
        ),
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
    # In memory a record's step is its position; a trace file spells the
    # steps out, and they must count from 1 by line.
    DecisionTrace(n=2, records=(_rec(), _rec()))
    with pytest.raises(FormatError, match="line 1: .*expected 1, got 2"):
        load_trace(_line(2, "1"), 2)
    with pytest.raises(FormatError, match="line 2: .*expected 2, got 3"):
        load_trace(_line(1, "1") + "\n" + _line(3, "1"), 2)
    with pytest.raises(StructureError, match=r"step 2 references index 2 outside 1\.\.1"):
        DecisionTrace(n=1, records=(ComparisonRecord(LinearFunctional({1: 1}), Fraction(1), 1), _rec()))
    with pytest.raises(StructureError, match="trace instance size must be >= 1, got 0"):
        DecisionTrace(n=0, records=())
    assert DecisionTrace(n=5, records=()).records == ()


def test_recorder_numbers_records_and_breaks_ties_on_the_shadow() -> None:
    scaled, decide, finish = recorder((Fraction(1, 2), 1), ShadowVector((4, 2)))
    assert scaled == [1, 2]
    items = ((1, -1), (2, 1))
    assert decide(items, 3) == 1
    assert decide(items, -1) == -1
    assert decide(items, 0) == -1  # shadow value -4 + 2
    assert decide(items, 0) == -1
    with pytest.raises(DomainError, match="step 5"):
        decide(((1, -1), (2, 2)), 0)  # shadow value -4 + 4
    trace = finish()
    assert trace.n == 2
    assert [(r.primary_value, r.realized_sign, r.tie) for r in trace.records] == [
        (Fraction(3, 2), 1, False),
        (Fraction(-1, 2), -1, False),
        (0, -1, True),
        (0, -1, True),
    ]
    assert all(r.functional == LinearFunctional(items) for r in trace.records)
    # One Fraction per distinct value.
    assert trace.records[2].primary_value is trace.records[3].primary_value

    streamed: list[ComparisonRecord] = []
    scaled, decide, finish = recorder((1, 3), ShadowVector((4, 2)), streamed.append)
    assert scaled == [1, 3]
    assert decide(((1, 1),), 1) == 1
    assert finish() is None
    assert streamed == [ComparisonRecord(LinearFunctional({1: 1}), Fraction(1), 1)]


def test_recorder_checks_the_weights_and_the_shadow() -> None:
    s = ShadowVector((4, 2))
    with pytest.raises(StructureError, match="at least one entry"):
        recorder((), s)
    with pytest.raises(DomainError, match="weight 2 is negative"):
        recorder((1, -1), s)
    with pytest.raises(StructureError, match="must be an exact int or Fraction"):
        recorder((1, 0.5), s)
    with pytest.raises(StructureError, match="instance has 3 weights but shadow has 2"):
        recorder((1, 2, 3), s)
    with pytest.raises(StructureError, match="shadow must be a ShadowVector"):
        recorder((1, 2), (4, 2))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_recorder_traces_pass_the_validating_constructor(name: str) -> None:
    # `recorder` builds its traces and records unchecked; the validating
    # constructors must accept and reproduce each of them.
    for n in range(1, 41):
        w = generate(Family(name), n, "trusted")
        traces = [_solve(w, policy)[3] for policy in (LEFTMOST, RIGHTMOST)]
        if n <= 16:
            traces.append(greedy_partition(w)[1])
        for trace in traces:
            assert type(trace) is DecisionTrace
            assert DecisionTrace(trace.n, trace.records) == trace
            assert all(ComparisonRecord(*record) == record for record in trace.records)


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
    # A size below 1 is a FormatError; one that is not an int is rejected
    # with the other sizes in test_core.
    with pytest.raises(FormatError, match="trace instance size must be >= 1, got 0"):
        load_trace("", 0)


def test_load_names_the_line_of_an_index_outside_the_instance() -> None:
    # Blank lines are skipped, so step 1 is on line 2 here.
    line = (
        '{"step": 1, "coeffs": {"1": "-1", "4": "1"}, "value": "1", "tie": false, "branch": "R"}'
    )
    with pytest.raises(FormatError, match=r"^line 2: step 1 references index 4 outside 1\.\.3$") as info:
        load_trace("\n" + line, 3)
    assert info.value.line == 2
    assert load_trace("\n" + line, 4).records[0].functional == LinearFunctional({1: -1, 4: 1})


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
        ('{"step": 1, "coeffs": {"1": "1", "01": "-1", "2": "1"}, "value": "1", "tie": false, "branch": "R"}', "index '01' repeats index 1"),
        ('\ufeff{"step": 1, "coeffs": {"1": "1"}, "value": "1", "tie": false, "branch": "R"}', "Unexpected UTF-8 BOM"),
        ('{"step": 1, "coeffs": {"1": "1"}, "value": "1", "tie": false, "branch": "R"} {}', "Extra data"),
        ('{"step": 1, "coeffs": {"1": "0", "2": "1"}, "value": "1", "tie": false, "branch": "R"}', "coefficient for index 1 is zero"),
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
    with pytest.raises(FormatError, match="line 1: .*expected 1"):
        load_trace(line, 3)


#: The leftmost trace of five unit weights: nine records, line 5 a tie
#: (value 0, branch R) and line 6 not (value -1, branch L).
_TIED = dump_trace(hu_tucker_phase1((Fraction(1),) * 5, dyadic_shadow(5, NEGATIVE))[1])

#: Wire fields that `load_trace` checks against the record's line and value:
#: (line, old text, new text, message).
FIELD_CONTRADICTIONS = {
    "step-gap": (6, '"step": 6', '"step": 7', "trace steps must increase from 1 without gaps; expected 6, got 7"),
    "step-true": (1, '"step": 1', '"step": true', "step must be an integer >= 1, got True"),
    "step-float": (1, '"step": 1', '"step": 1.0', "step must be an integer >= 1, got 1.0"),
    "tie-on-nonzero": (6, '"tie": false', '"tie": true', "step 6: tie flag contradicts the recorded value"),
    "no-tie-on-zero": (5, '"tie": true', '"tie": false', "step 5: tie flag contradicts the recorded value"),
    "branch-on-nonzero": (6, '"branch": "L"', '"branch": "R"', "step 6: sign contradicts the recorded value"),
}


def _changed_line(text: str, line: int, old: str, new: str) -> str:
    lines = text.split("\n")
    assert old in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace(old, new, 1)
    return "\n".join(lines)


@pytest.mark.parametrize("line, old, new, message", FIELD_CONTRADICTIONS.values(), ids=list(FIELD_CONTRADICTIONS))
def test_load_checks_step_tie_and_branch_where_the_line_enters(line: int, old: str, new: str, message: str) -> None:
    assert len(load_trace(_TIED, 5).records) == 9
    with pytest.raises(FormatError) as err:
        load_trace(_changed_line(_TIED, line, old, new), 5)
    assert str(err.value) == f"line {line}: {message}"


def test_load_accepts_either_branch_on_a_tie_and_the_audit_judges_it() -> None:
    # On a zero value the shadow picks the branch, so the loader cannot
    # reject the other one; the policy audit flags it.
    trace = load_trace(_changed_line(_TIED, 5, '"branch": "R"', '"branch": "L"'), 5)
    assert trace.records[4].realized_sign == -1
    report = verify_policy(trace, (Fraction(1),) * 5, dyadic_shadow(5, NEGATIVE))
    assert report.first_failure == 5


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
    forged = ComparisonRecord._make((rec.functional, rec.primary_value + 1, rec.realized_sign))
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
    forged = ComparisonRecord._make((F12, Fraction(1), -1))
    trace = DecisionTrace(n=2, records=(forged,))
    with pytest.raises(StructureError, match="re-evaluation at step 1"):
        stability_witness(trace, (Fraction(2), Fraction(1)), dyadic_shadow(2), verified=True)


def test_stability_witness_requires_a_verified_trace() -> None:
    vec, _, _, trace = _solve((1, 1, 1), LEFTMOST)
    with pytest.raises(PolicyMismatchError):
        stability_witness(trace, vec, dyadic_shadow(3, POSITIVE))
