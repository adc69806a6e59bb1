"""Decision traces: the comparisons a solver made, and tools to audit them.

A trace captures every branching comparison as (functional, value, sign).
A record's step is its position, counted from 1, and its tie flag (value 0)
and branch letter (its sign) follow from it; the trace file spells these
out, and `load_trace` checks them. Auditing re-evaluates each functional
against the instance: a mismatch with the recorded value means the trace
is corrupt, while a sign that contradicts the shadow direction means the
solver did not follow the claimed tie policy. A verified trace also yields
a concrete step bound below which the whole decision path is insensitive
to perturbation.

Every recorded run enters through `recorder`, which checks and scales the
instance and holds the one symbolic-perturbation decision rule. The
audits recompute that rule on their own, so they share no solver code.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Sequence

from .core import (
    LinearFunctional,
    RationalLike,
    _require_int,
    clear_denominators,
    format_rational,
    parse_rational,
    require_nonnegative_weights,
    sign,
)
from .errors import CorruptTraceError, DomainError, FormatError, PolicyMismatchError, StructureError
from .perturb import ShadowVector, check_shadow_length

LEFT = "L"
RIGHT = "R"


class ComparisonRecord(namedtuple("ComparisonRecord", "functional primary_value realized_sign")):
    """One branching comparison.

    `realized_sign` is the sign the solver acted on: the sign of
    `primary_value`, or on a tie (value 0) the shadow's, so it is never 0.

    A record is a named tuple. Solvers mint one per comparison and the replay
    audits compare them one by one, so equality and hashing are the tuple's,
    which run in C, and audit loops unpack records as tuples. The
    constructor checks the sign against the value; `_make`, `_replace` and
    `recorder` trust it. Pickle and copy rebuild through the constructor.
    """

    __slots__ = ()

    def __new__(cls, functional: LinearFunctional, primary_value: Fraction, realized_sign: int):
        if realized_sign not in (-1, 1):
            raise StructureError(f"realized sign must be -1 or +1, got {realized_sign}")
        if primary_value and realized_sign != sign(primary_value):
            raise StructureError("sign contradicts the recorded value")
        return tuple.__new__(cls, (functional, primary_value, realized_sign))

    @property
    def tie(self) -> bool:
        """Whether the value was 0, so that the shadow chose the sign."""
        return self.primary_value == 0


class DecisionTrace(namedtuple("DecisionTrace", "n records")):
    """An ordered run of comparison records over an n-entry instance; `_make` trusts it."""

    __slots__ = ()

    def __new__(cls, n: int, records: tuple[ComparisonRecord, ...]):
        if n < 1:
            raise StructureError(f"trace instance size must be >= 1, got {n}")
        for step, (functional, _, _) in enumerate(records, 1):
            if functional.max_index() > n:
                raise StructureError(
                    f"step {step} references index {functional.max_index()} "
                    f"outside 1..{n}"
                )
        return tuple.__new__(cls, (n, records))


class RecordCheck(namedtuple("RecordCheck", "step expected_sign ok")):
    """One record's audit: the sign the shadow dictates, and whether it was taken."""

    __slots__ = ()

    # `_trusted((step, expected_sign, ok))` builds one from a field tuple.
    # `verify_policy` makes one per record, and a call through the
    # generated `__new__` costs about twice as much.
    _trusted = classmethod(tuple.__new__)


VerificationReport = namedtuple("VerificationReport", "passed checks first_failure")
VerificationReport.__doc__ = "Per-record policy audit plus the overall verdict."


def _audit(
    trace: DecisionTrace, w: Sequence[RationalLike], s: ShadowVector
) -> tuple[list[int], int | None, Fraction, list[tuple], int]:
    """The one per-record pass that `verify_policy` and `stability_witness` share.

    Each functional is evaluated once at the denominator-cleared weights,
    giving raw = f(w) * scale, and once on the shadow, giving the drift
    f(s). A raw value that disagrees with the recorded one raises
    CorruptTraceError. Returns the sign the policy dictates for each record
    (the sign of raw, on a tie the sign of the drift), the first step whose
    realized sign differs from it (None when none does), the witness bound
    min |f(w)| / (|f(s)| + 1) over the records with f(w) != 0 (1 when there
    are none), the (raw, drift) pairs and the scale.
    """
    if len(w) != trace.n:
        raise StructureError(f"trace is over {trace.n} weights but instance has {len(w)}")
    check_shadow_length(trace.n, s)
    scale, scaled = clear_denominators(w)
    # Index 0 is padding, so that 1-based indices need no shift.
    at_w = [0, *scaled]
    at_s = [0, *s.entries]
    expected_signs = []
    terms = []
    first_failure = None
    # The running minimum is the pair wn / wd, compared by cross-
    # multiplication. Raw values and drifts are ints, or Fractions when a
    # loaded functional has fractional coefficients.
    wn = wd = 1
    for step, (f, recorded, realized) in enumerate(trace.records, 1):
        raw = drift = 0
        for i, c in f:
            raw += c * at_w[i]
            drift += c * at_s[i]
        # Agreement with the record is the identity raw * qd == qn * scale.
        if raw * recorded.denominator != recorded.numerator * scale:
            raise CorruptTraceError(
                f"step {step}: recorded value {format_rational(recorded)} "
                f"but re-evaluation gives {format_rational(Fraction(raw, scale))}"
            )
        # The rule `recorder` applies (primary sign, shadow on a tie),
        # recomputed here so that the audit does not trust the solver's.
        if raw:
            expected = 1 if raw > 0 else -1
            slack = abs(drift) + 1
            bn = abs(raw) * slack.denominator
            bd = scale * slack.numerator
            if bn * wd < wn * bd:
                wn, wd = bn, bd
        else:
            expected = (drift > 0) - (drift < 0)
        if expected != realized and first_failure is None:
            first_failure = step
        expected_signs.append(expected)
        terms.append((raw, drift))
    return expected_signs, first_failure, Fraction(wn, wd), terms, scale


def verify_policy(trace: DecisionTrace, w: Sequence[RationalLike], s: ShadowVector) -> VerificationReport:
    """Audit a trace against its instance and a shadow direction.

    Each functional is re-evaluated at w. Disagreement with the recorded
    value raises CorruptTraceError; an otherwise intact record fails when
    its realized sign differs from the sign the shadow direction dictates.
    """
    expected_signs, first_failure, _, _, _ = _audit(trace, w, s)
    check = RecordCheck._trusted
    checks = tuple([
        check((step, expected, expected == record[2]))
        for step, (record, expected) in enumerate(zip(trace.records, expected_signs), 1)
    ])
    return VerificationReport(first_failure is None, checks, first_failure)


def stability_witness(
    trace: DecisionTrace,
    w: Sequence[RationalLike],
    s: ShadowVector,
    *,
    verified: bool = False,
) -> Fraction:
    """A step a* > 0 below which every recorded sign survives perturbation.

    For all rational 0 < a <= a*, sign(f(w + a*s)) equals the recorded
    realized sign for every record f. The trace must pass verify_policy:
    the audit runs in the same pass as the bound, and a trace that fails it
    raises PolicyMismatchError. With verified=True that error is not raised,
    and the re-evaluation of every record at a* (which `check_instance`
    shares) rejects such a trace with StructureError instead. A corrupt
    recorded value raises CorruptTraceError either way. The bound is the
    minimum of |value| / (|f(s)| + 1) over non-tie records and 1 when every
    comparison was a tie (or the trace is empty).
    """
    _, first_failure, witness, terms, scale = _audit(trace, w, s)
    if first_failure is not None and not verified:
        raise PolicyMismatchError(
            f"trace fails policy verification at step {first_failure}; "
            f"no stability witness exists"
        )
    _confirm_witness(trace, terms, witness, scale)
    return witness


def _confirm_witness(trace: DecisionTrace, terms: list, witness: Fraction, scale: int) -> None:
    """Check every record's sign at w + a*s, a the witness, from `_audit`'s terms and scale.

    The one test of signs at a moved point, shared by `stability_witness`
    and `check_instance`. A record whose sign there is not its realized
    sign raises StructureError. Each f(w + a*s) is linear in a, so with the
    audit's sign as a -> 0+ this fixes every sign on (0, a*].
    """
    ad = witness.denominator
    an = witness.numerator * scale
    for step, (raw, drift), record in zip(range(1, len(terms) + 1), terms, trace.records):
        # sign(f(w) + a*f(s)) via the numerator raw*ad + an*drift*scale over
        # the positive denominator scale*ad.
        moved = raw * ad + an * drift
        if (moved > 0) - (moved < 0) != record[2]:
            raise StructureError(f"witness failed its own re-evaluation at step {step}")


def dump_trace(trace: DecisionTrace) -> str:
    """Serialize to line-delimited records, one JSON object per comparison.

    Step, tie flag and branch (L for a negative sign) are derived. Each line
    is written out directly: rational text is digits, `-` and `/`, so
    nothing needs JSON escaping. A trace repeats a few coefficients and
    values many times, so each distinct one is formatted once per call.
    """
    coeff_texts: dict[RationalLike, str] = {}
    value_texts: dict[Fraction, str] = {}
    lines = []
    for step, (functional, value, realized) in enumerate(trace.records, 1):
        coeffs = []
        for i, c in functional:
            text = coeff_texts.get(c)
            if text is None:
                text = coeff_texts[c] = format_rational(c)
            coeffs.append(f'"{i}": "{text}"')
        text = value_texts.get(value)
        if text is None:
            text = value_texts[value] = format_rational(value)
        tie = "false" if value else "true"
        lines.append(
            f'{{"step": {step}, "coeffs": {{{", ".join(coeffs)}}}, "value": "{text}", '
            f'"tie": {tie}, "branch": "{LEFT if realized < 0 else RIGHT}"}}\n'
        )
    return "".join(lines)


_TRACE_KEYS = {"step", "coeffs", "value", "tie", "branch"}

_INDEX_RE = re.compile(r"[0-9]+\Z")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # The decoder keeps the last of repeated keys; the trace format has none.
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise FormatError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def load_trace(text: str, n: int) -> DecisionTrace:
    """Parse the line-delimited trace format for an n-entry instance.

    Lines end at `\n` (a `\r` before it is allowed), and a line holding only
    spaces, tabs and `\r` is ignored. Any malformed line, unknown key, or
    record that contradicts itself raises FormatError naming the line: steps
    must count up from 1, every coefficient index must be in 1..n and every
    coefficient nonzero, the tie flag must say whether the value is 0, and
    a nonzero value's sign must be the branch's (L negative, R positive). A
    size n that is not an int raises StructureError.
    """
    _require_int("trace instance size", n)
    if n < 1:
        raise FormatError(f"trace instance size must be >= 1, got {n}")
    # Imported here, so that importing this module does not load json.
    import json

    # One decoder per call: `json.loads` with a hook builds one per line.
    decode = json.JSONDecoder(object_pairs_hook=_unique_keys).decode
    records = []
    # A trace repeats a few coefficient and value texts many times, so each
    # distinct text is parsed once per call. Only successful parses are kept,
    # so a bad token raises on the first line that has it.
    coeff_memo: dict[str, RationalLike] = {}
    value_memo: dict[str, Fraction] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip(" \t\r"):
            continue
        if line.startswith("\ufeff"):
            # The check, and message, of `json.loads`, which `decode` lacks.
            raise FormatError(
                "not a valid record: Unexpected UTF-8 BOM (decode using utf-8-sig)", line=lineno
            )
        try:
            obj = decode(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not a valid record: {exc.msg}", line=lineno) from exc
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno) from exc
        except ValueError as exc:
            # int() refuses number literals past sys.get_int_max_str_digits().
            raise FormatError("not a valid record: too many digits", line=lineno) from exc
        if not isinstance(obj, dict):
            raise FormatError("record must be a key-value object", line=lineno)
        if set(obj) != _TRACE_KEYS:
            raise FormatError(
                f"record keys must be exactly {sorted(_TRACE_KEYS)}, got {sorted(obj)}",
                line=lineno,
            )
        try:
            records.append(_record_from_obj(obj, len(records) + 1, n, coeff_memo, value_memo))
        except (StructureError, FormatError) as exc:
            raise FormatError(str(exc), line=lineno) from exc
    # Each line's indices are checked as it is read.
    return DecisionTrace._make((n, tuple(records)))


def _record_from_obj(
    obj: dict,
    expected: int,
    n: int,
    coeff_memo: dict[str, RationalLike],
    value_memo: dict[str, Fraction],
) -> ComparisonRecord:
    raw_coeffs = obj["coeffs"]
    if not isinstance(raw_coeffs, dict):
        raise FormatError("coeffs must be a map from index to rational text")
    coeffs: dict[int, RationalLike] = {}
    for key, text in raw_coeffs.items():
        if not _INDEX_RE.match(key):
            raise FormatError(f"coefficient index {key!r} is not an integer")
        try:
            index = int(key)
        except ValueError:
            raise FormatError(f"coefficient index has too many digits ({len(key)})") from None
        if index in coeffs:
            raise FormatError(f"coefficient index {key!r} repeats index {index}")
        if not isinstance(text, str):
            raise FormatError(f"coefficient for index {key} must be rational text")
        coeff = coeff_memo.get(text)
        if coeff is None:
            parsed = parse_rational(text)
            if not parsed:
                raise FormatError(f"coefficient for index {key} is zero")
            # Integral coefficients are held as ints so functionals from a
            # file compare equal, structurally, to freshly built ones.
            coeff = parsed.numerator if parsed.denominator == 1 else parsed
            coeff_memo[text] = coeff
        coeffs[index] = coeff
    text = obj["value"]
    if not isinstance(text, str):
        raise FormatError("value must be rational text")
    value = value_memo.get(text)
    if value is None:
        value = value_memo[text] = parse_rational(text)
    tie = obj["tie"]
    if not isinstance(tie, bool):
        raise FormatError(f"tie must be a boolean, got {tie!r}")
    branch = obj["branch"]
    if branch not in (LEFT, RIGHT):
        raise FormatError(f"branch must be {LEFT!r} or {RIGHT!r}, got {branch!r}")
    realized = -1 if branch == LEFT else 1
    functional = LinearFunctional(coeffs)
    step = obj["step"]
    if type(step) is not int or step < 1:
        raise FormatError(f"step must be an integer >= 1, got {step!r}")
    if step != expected:
        raise FormatError(
            f"trace steps must increase from 1 without gaps; expected {expected}, got {step}"
        )
    if functional.max_index() > n:
        raise FormatError(f"step {step} references index {functional.max_index()} outside 1..{n}")
    if tie != (value == 0):
        raise FormatError(f"step {step}: tie flag contradicts the recorded value")
    if not tie and realized != sign(value):
        raise FormatError(f"step {step}: sign contradicts the recorded value")
    return tuple.__new__(ComparisonRecord, (functional, value, realized))


def recorder(
    w: Sequence[RationalLike], s: ShadowVector, on_record: RecordSink | None = None
) -> tuple[list[int], Callable[..., int], Callable[[], DecisionTrace | None]]:
    """The one entry into a recorded run over weights w and shadow `s`.

    Checks w and `s` and returns `(scaled, decide, finish)`: `scaled` is w
    times its common denominator `scale`, as ints. `decide(items, diff)`
    judges one comparison, given as signed items (nonzero `(index,
    coefficient)` pairs, sorted, unique, 1-based) and its value `diff` at
    `scaled`: its sign is that of `diff`, and on an exact tie the
    functional's sign on `s` (Edelsbrunner and Muecke, "Simulation of
    Simplicity", ACM TOG 9(1), 1990). A tie that `s` leaves at zero raises
    DomainError naming the step, the call's number from 1. Each call emits
    one record, of value diff / scale, to `on_record` when it is given
    (then `finish()` returns None), or else to the DecisionTrace that
    `finish()` returns, whose records share one `Fraction` per distinct
    diff; streamed ones each get their own, so a sink that drops them keeps
    memory flat. Records are minted unchecked: the rule makes each sign
    agree with its value, and callers pass indices in 1..n.
    """
    scale, scaled = clear_denominators(require_nonnegative_weights(w))
    n = len(scaled)
    check_shadow_length(n, s)
    records: list[ComparisonRecord] = []
    sink = records.append if on_record is None else on_record
    new = tuple.__new__
    values: dict[int, Fraction] = {}
    keep_values = on_record is None
    # Index 0 is padding, so that 1-based indices need no shift.
    at_s = (0, *s.entries)
    step = 0

    def decide(items: Sequence[tuple[int, RationalLike]], diff: int) -> int:
        nonlocal step
        step += 1
        if diff:
            realized = 1 if diff > 0 else -1
        else:
            drift = 0
            for i, c in items:
                drift += c * at_s[i]
            if not drift:
                raise DomainError(f"shadow direction fails to resolve the tie at step {step}")
            realized = 1 if drift > 0 else -1
        primary = values.get(diff)
        if primary is None:
            primary = Fraction(diff, scale)
            if keep_values:
                values[diff] = primary
        sink(new(ComparisonRecord, (new(LinearFunctional, items), primary, realized)))
        return realized

    def finish() -> DecisionTrace | None:
        return DecisionTrace._make((n, tuple(records))) if on_record is None else None

    return scaled, decide, finish


RecordSink = Callable[[ComparisonRecord], None]
