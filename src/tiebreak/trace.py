"""Decision traces: the comparisons a solver made, and tools to audit them.

A trace captures every branching comparison as (functional, value, sign,
branch). Auditing re-evaluates each functional against the instance: a
mismatch with the recorded value means the trace is corrupt, while a sign
that contradicts the shadow direction means the solver did not follow the
claimed tie policy. A verified trace also yields a concrete step bound
below which the whole decision path is insensitive to perturbation.

Every solver branches through `recorder`, the single symbolic-perturbation
decision rule, which also numbers and emits the records. The audits
recompute that rule on their own, so they do not share the solver's code.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Sequence

from .core import (
    LinearFunctional,
    RationalLike,
    clear_denominators,
    format_rational,
    parse_rational,
    sign,
)
from .errors import CorruptTraceError, DomainError, FormatError, PolicyMismatchError, StructureError
from .perturb import ShadowVector, check_shadow_length

LEFT = "L"
RIGHT = "R"


class ComparisonRecord(tuple):
    """One branching comparison.

    `realized_sign` is the sign the solver acted on after tie-breaking, so it
    is never 0; `tie` is true exactly when the primary value was 0 and the
    shadow had to decide. The branch letter is redundant with the sign and is
    kept because the wire format stores it.

    A record is the tuple (step, functional, primary_value, realized_sign,
    tie, branch) with read-only field properties. Solvers mint one per
    comparison and the replay audits compare them one by one, so building a
    record is a single `tuple.__new__` and equality and hashing are the
    tuple's, which run in C. Audit loops unpack records as tuples. There is
    no `_replace`: every record comes from `make` or the validating keyword
    constructor.
    """

    __slots__ = ()

    def __new__(
        cls,
        *,
        step: int,
        functional: LinearFunctional,
        primary_value: Fraction,
        realized_sign: int,
        tie: bool,
        branch: str,
    ):
        if step < 1:
            raise StructureError(f"step must be >= 1, got {step}")
        if realized_sign not in (-1, 1):
            raise StructureError(f"realized sign must be -1 or +1, got {realized_sign}")
        if tie != (primary_value == 0):
            raise StructureError(f"step {step}: tie flag contradicts the recorded value")
        if not tie and realized_sign != sign(primary_value):
            raise StructureError(f"step {step}: sign contradicts the recorded value")
        if branch != (LEFT if realized_sign < 0 else RIGHT):
            raise StructureError(f"step {step}: branch {branch!r} contradicts the sign")
        return tuple.__new__(cls, (step, functional, primary_value, realized_sign, tie, branch))

    step = property(itemgetter(0))
    functional = property(itemgetter(1))
    primary_value = property(itemgetter(2))
    realized_sign = property(itemgetter(3))
    tie = property(itemgetter(4))
    branch = property(itemgetter(5))

    @classmethod
    def make(
        cls, step: int, functional: LinearFunctional, primary: RationalLike, realized: int
    ) -> "ComparisonRecord":
        """Build a record, deriving the tie flag and branch letter.

        Trusts its arguments to be consistent (the derivation makes them so);
        this is the solvers' hot path.
        """
        if type(primary) is not Fraction:
            primary = Fraction(primary)
        return tuple.__new__(
            cls, (step, functional, primary, realized, not primary, LEFT if realized < 0 else RIGHT)
        )

    def __repr__(self) -> str:
        step, functional, primary_value, realized_sign, tie, branch = self
        return (
            f"ComparisonRecord(step={step}, functional={functional!r}, "
            f"primary_value={primary_value!r}, realized_sign={realized_sign}, "
            f"tie={tie}, branch={branch!r})"
        )


class DecisionTrace(tuple):
    """An ordered run of comparison records over an n-entry instance.

    The instance is the tuple (n, records) with read-only field properties;
    this and the two report classes below follow `ComparisonRecord`.
    """

    __slots__ = ()

    def __new__(cls, n: int, records: tuple[ComparisonRecord, ...]):
        if n < 1:
            raise StructureError(f"trace instance size must be >= 1, got {n}")
        expected = 1
        for step, functional, _, _, _, _ in records:
            if step != expected:
                raise StructureError(
                    f"trace steps must increase from 1 without gaps; "
                    f"expected {expected}, got {step}"
                )
            if functional.max_index() > n:
                raise StructureError(
                    f"step {step} references index {functional.max_index()} "
                    f"outside 1..{n}"
                )
            expected += 1
        return tuple.__new__(cls, (n, records))

    n = property(itemgetter(0))
    records = property(itemgetter(1))

    def __getnewargs__(self) -> tuple:
        # pickle and copy rebuild through __new__, one argument per field.
        return tuple(self)

    def __repr__(self) -> str:
        return "DecisionTrace(n={!r}, records={!r})".format(*self)


class RecordCheck(tuple):
    """One record's audit: the sign the shadow dictates, and whether it was taken."""

    __slots__ = ()

    def __new__(cls, step: int, expected_sign: int, ok: bool):
        return tuple.__new__(cls, (step, expected_sign, ok))

    # `_trusted((step, expected_sign, ok))` builds one from a field tuple.
    # `verify_policy` makes one per record, and a call through `__new__`
    # above costs about twice as much.
    _trusted = classmethod(tuple.__new__)

    step = property(itemgetter(0))
    expected_sign = property(itemgetter(1))
    ok = property(itemgetter(2))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return "RecordCheck(step={!r}, expected_sign={!r}, ok={!r})".format(*self)


class VerificationReport(tuple):
    """Per-record policy audit plus the overall verdict."""

    __slots__ = ()

    def __new__(cls, passed: bool, checks: tuple[RecordCheck, ...], first_failure: int | None):
        return tuple.__new__(cls, (passed, checks, first_failure))

    passed = property(itemgetter(0))
    checks = property(itemgetter(1))
    first_failure = property(itemgetter(2))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return "VerificationReport(passed={!r}, checks={!r}, first_failure={!r})".format(*self)


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
    # raw -> a recorded value already found equal to raw / scale. Solver
    # traces share one Fraction per distinct value, so most records skip
    # the cross-multiplication.
    agreed: dict = {}
    for step, f, recorded, realized, _, _ in trace.records:
        raw = drift = 0
        for i, c in f:
            raw += c * at_w[i]
            drift += c * at_s[i]
        # Agreement with the record is the identity raw * qd == qn * scale.
        if agreed.get(raw) is not recorded:
            if raw * recorded.denominator != recorded.numerator * scale:
                raise CorruptTraceError(
                    f"step {step}: recorded value {format_rational(recorded)} "
                    f"but re-evaluation gives {format_rational(Fraction(raw, scale))}"
                )
            agreed[raw] = recorded
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
    value raises CorruptTraceError; an otherwise intact record fails when its
    realized sign differs from the sign the shadow direction dictates.
    """
    expected_signs, first_failure, _, _, _ = _audit(trace, w, s)
    check = RecordCheck._trusted
    checks = tuple([
        check((record[0], expected, expected == record[3]))
        for record, expected in zip(trace.records, expected_signs)
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
    raises PolicyMismatchError. With verified=True that error is not raised
    and the re-evaluation below rejects such a trace instead. A corrupt
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
    ad = witness.denominator
    an = witness.numerator * scale
    for (step, _, _, realized, _, _), (raw, drift) in zip(trace.records, terms):
        # sign(f(w) + a*f(s)) via the numerator raw*ad + an*drift*scale over
        # the positive denominator scale*ad.
        moved = raw * ad + an * drift
        if (moved > 0) - (moved < 0) != realized:
            raise StructureError(f"witness failed its own re-evaluation at step {step}")
    return witness


def dump_trace(trace: DecisionTrace) -> str:
    """Serialize to line-delimited records, one JSON object per comparison.

    Each line is written out directly: rational text is digits, `-` and `/`,
    so nothing needs JSON escaping. A trace repeats a few coefficients and
    values many times, so each distinct one is formatted once per call.
    """
    coeff_texts: dict[RationalLike, str] = {}
    value_texts: dict[Fraction, str] = {}
    lines = []
    for step, functional, value, _, tie, branch in trace.records:
        coeffs = []
        for i, c in functional:
            text = coeff_texts.get(c)
            if text is None:
                text = coeff_texts[c] = format_rational(c)
            coeffs.append(f'"{i}": "{text}"')
        text = value_texts.get(value)
        if text is None:
            text = value_texts[value] = format_rational(value)
        lines.append(
            f'{{"step": {step}, "coeffs": {{{", ".join(coeffs)}}}, "value": "{text}", '
            f'"tie": {"true" if tie else "false"}, "branch": "{branch}"}}\n'
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
    record that contradicts itself raises FormatError naming the line.
    """
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
            records.append(_record_from_obj(obj, coeff_memo, value_memo))
        except (StructureError, FormatError) as exc:
            raise FormatError(str(exc), line=lineno) from exc
    try:
        return DecisionTrace(n=n, records=tuple(records))
    except StructureError as exc:
        raise FormatError(str(exc)) from exc


def _record_from_obj(
    obj: dict, coeff_memo: dict[str, RationalLike], value_memo: dict[str, Fraction]
) -> ComparisonRecord:
    step = obj["step"]
    if not isinstance(step, int) or isinstance(step, bool):
        raise FormatError(f"step must be an integer, got {step!r}")
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
        if not isinstance(text, str):
            raise FormatError(f"coefficient for index {key} must be rational text")
        coeff = coeff_memo.get(text)
        if coeff is None:
            parsed = parse_rational(text)
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
    record = ComparisonRecord(
        step=step,
        functional=LinearFunctional(coeffs),
        primary_value=value,
        realized_sign=realized,
        tie=tie,
        branch=branch,
    )
    return record


def recorder(
    n: int,
    scale: int,
    shadow_entries: Sequence[RationalLike],
    on_record: RecordSink | None = None,
) -> tuple[Callable[..., int], Callable[[], DecisionTrace | None]]:
    """The one symbolic-perturbation decision rule, for a run over n entries.

    Returns `(decide, finish)`. `decide(items, diff, drift=None)` judges one
    comparison: `items` is its functional as signed items (nonzero `(index,
    coefficient)` pairs, sorted, unique and 1-based) and `diff` its value at
    the instance, times `scale`. The realized sign is the sign of `diff`,
    and on an exact tie the sign of `drift`, which defaults to the
    functional's value on `shadow_entries` (Edelsbrunner and Muecke,
    "Simulation of Simplicity", ACM TOG 9(1), 1990). A tie that the drift
    leaves at zero raises DomainError. Every call emits one record, steps
    numbered from 1, with value diff / scale. Records stream to
    `on_record` when it is given, and then `finish()` returns None;
    otherwise `finish()` returns them as a DecisionTrace, whose records
    share one `Fraction` per distinct diff. Streamed records each get their
    own, so that a sink that drops them keeps memory flat.
    """
    records: list[ComparisonRecord] = []
    sink = records.append if on_record is None else on_record
    functional = LinearFunctional._trusted
    make = ComparisonRecord.make
    values: dict[int, Fraction] = {}
    keep_values = on_record is None
    # Index 0 is padding, so that 1-based indices need no shift.
    at_s = (0, *shadow_entries)
    step = 0

    def decide(items: Sequence[tuple[int, RationalLike]], diff: int, drift=None) -> int:
        nonlocal step
        step += 1
        if diff:
            realized = 1 if diff > 0 else -1
        else:
            if drift is None:
                drift = 0
                for i, c in items:
                    drift += c * at_s[i]
            if drift > 0:
                realized = 1
            elif drift < 0:
                realized = -1
            else:
                raise DomainError(f"shadow direction fails to resolve the tie at step {step}")
        primary = values.get(diff)
        if primary is None:
            primary = Fraction(diff, scale)
            if keep_values:
                values[diff] = primary
        sink(make(step, functional(items), primary, realized))
        return realized

    def finish() -> DecisionTrace | None:
        return DecisionTrace(n=n, records=tuple(records)) if on_record is None else None

    return decide, finish


RecordSink = Callable[[ComparisonRecord], None]
