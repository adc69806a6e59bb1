"""Span tracer for the traced benchmark run.

`Tracer.install()` replaces the public functions of every `tiebreak` module
with wrappers that record a span (name, start, end, parent) per call, or
only count calls for the per-record leaf helpers in `core` and `perturb`.
A function imported by name into another module (`harness` and `cli` import
`hu_tucker_phase1`, `verify_policy`, `dump_trace`, ...) is patched in that
module's namespace too, so every call site is caught. Spans stay in memory;
the caller writes them out when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from math import comb
from time import perf_counter


def _catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1); start/end from perf_counter.
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _count_records(self, records) -> None:
        counts = self.counts
        counts["alphabetic.records"] += len(records)
        counts["alphabetic.ties"] += sum(1 for rec in records if rec.tie)
        counts["alphabetic.support"] += sum(len(rec.functional.items()) for rec in records)

    def _counting_sink(self, sink):
        counts = self.counts

        def counted(rec) -> None:
            counts["alphabetic.records"] += 1
            counts["alphabetic.ties"] += rec.tie
            counts["alphabetic.support"] += len(rec.functional.items())
            sink(rec)

        return counted

    def _spanned(self, name, fn, before=None, after=None):
        """Wrap `fn` in a span; `before` may rename the span or swap arguments.

        Bookkeeping in `after` is timed as a `tracer` child span, so it stays
        out of every layer's self time.
        """
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_name = name
            if before is not None:
                span_name, args, kwargs = before(args, kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((span_name, 0.0, 0.0, parent))
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
                spans.append(("tracer", end, perf_counter(), parent))
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-function hooks ------------------------------------------------

    def _phase1_before(self, plain: str, streamed: str, sink_position: int):
        """Name the span by whether records stream, and count streamed records."""

        def before(args, kwargs):
            if len(args) > sink_position:
                kwargs = {**kwargs, "on_record": args[sink_position]}
                args = args[:sink_position]
            sink = kwargs.get("on_record")
            if sink is None:
                return plain, args, kwargs
            return streamed, args, {**kwargs, "on_record": self._counting_sink(sink)}

        return before

    def _phase1_after(self, args, kwargs, result) -> None:
        self.counts["alphabetic.merges"] += max(len(args[0]) - 1, 0)
        trace = result[1]
        if trace is not None:
            self._count_records(trace.records)

    def _check_after(self, args, kwargs, verdict) -> None:
        counts = self.counts
        if verdict.stability in ("pass", "fail"):
            counts["harness.replays"] += 1
            counts["harness.replays_at_witness"] += verdict.stability_mode == "witness"
        if verdict.failure is not None:
            counts[f"harness.failures.{verdict.failure}"] += 1

    def _wrappers(self, tb) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every traced public function."""
        counts = self.counts

        def add(key, amount):
            counts[key] += amount

        alphabetic, trace, perturb, core = tb.alphabetic, tb.trace, tb.perturb, tb.core
        partition, harness, cli = tb.partition, tb.harness, tb.cli
        spanned = self._spanned
        return [
            (alphabetic, "hu_tucker", spanned("alphabetic.hu_tucker", alphabetic.hu_tucker)),
            (
                alphabetic,
                "hu_tucker_phase1",
                spanned(
                    "alphabetic.phase1",
                    alphabetic.hu_tucker_phase1,
                    before=self._phase1_before(
                        "alphabetic.phase1", "alphabetic.replay", 3
                    ),
                    after=self._phase1_after,
                ),
            ),
            (
                alphabetic,
                "phase1_explicit_shadow",
                spanned(
                    "alphabetic.explicit",
                    alphabetic.phase1_explicit_shadow,
                    before=self._phase1_before(
                        "alphabetic.explicit", "alphabetic.explicit", 2
                    ),
                    after=self._phase1_after,
                ),
            ),
            (
                alphabetic,
                "reconstruct_from_depths",
                spanned("alphabetic.reconstruct", alphabetic.reconstruct_from_depths),
            ),
            (
                alphabetic,
                "dp_optimal_cost",
                spanned(
                    "alphabetic.dp",
                    alphabetic.dp_optimal_cost,
                    after=lambda a, k, r: add("alphabetic.dp_calls", 1),
                ),
            ),
            (
                alphabetic,
                "brute_force_optimal",
                spanned(
                    "alphabetic.brute",
                    alphabetic.brute_force_optimal,
                    after=lambda a, k, r: add("alphabetic.brute_trees", _catalan(len(a[0]) - 1)),
                ),
            ),
            (
                trace,
                "verify_policy",
                spanned(
                    "trace.verify",
                    trace.verify_policy,
                    after=lambda a, k, r: add("trace.verify_records", len(a[0].records)),
                ),
            ),
            (trace, "stability_witness", spanned("trace.witness", trace.stability_witness)),
            (
                trace,
                "dump_trace",
                spanned(
                    "trace.dump",
                    trace.dump_trace,
                    after=lambda a, k, r: add("trace.dump_bytes", len(r.encode("utf-8"))),
                ),
            ),
            (
                trace,
                "load_trace",
                spanned(
                    "trace.load",
                    trace.load_trace,
                    after=lambda a, k, r: add("trace.load_records", len(r.records)),
                ),
            ),
            (
                perturb,
                "dyadic_shadow",
                self._counted("perturb.shadow_calls", perturb.dyadic_shadow),
            ),
            (
                perturb,
                "max_step_in_domain",
                spanned("perturb.max_step", perturb.max_step_in_domain),
            ),
            (core, "parse_rational", self._counted("core.parse_calls", core.parse_rational)),
            (
                partition,
                "greedy_partition",
                spanned(
                    "partition.greedy",
                    partition.greedy_partition,
                    after=lambda a, k, r: add("partition.records", len(r[1].records)),
                ),
            ),
            (
                partition,
                "brute_force_partition",
                spanned("partition.brute", partition.brute_force_partition),
            ),
            (harness, "run_campaign", spanned("harness.run_campaign", harness.run_campaign)),
            (
                harness,
                "check_instance",
                spanned("harness.check", harness.check_instance, after=self._check_after),
            ),
            (harness, "generate", spanned("harness.generate", harness.generate)),
            (
                harness,
                "resolve_orientation_binding",
                spanned("harness.binding", harness.resolve_orientation_binding),
            ),
            (harness, "check_lipschitz", spanned("harness.lipschitz", harness.check_lipschitz)),
            # run_campaign computes its Lipschitz rows through this helper.
            (harness, "_lipschitz_parts", spanned("harness.lipschitz", harness._lipschitz_parts)),
            (
                harness.CampaignReport,
                "render",
                spanned(
                    "harness.render",
                    harness.CampaignReport.render,
                    after=lambda a, k, r: add("harness.report_bytes", len(r.encode("utf-8"))),
                ),
            ),
            (cli, "main", spanned("cli.main", cli.main)),
        ]

    def merge_child(self, path) -> float:
        """Add a traced CLI child's spans and counts; returns its start-up seconds."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        offset = len(self.spans)
        for name, start, end, parent in data["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1))
        self.counts.update(data["counts"])
        return data["startup_s"]

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of each traced function in every tiebreak module."""
        import tiebreak as tb
        import tiebreak.cli  # noqa: F401  (not imported by the package itself)

        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "tiebreak" or name.startswith("tiebreak.")
        ]
        for owner, attr, wrapper in self._wrappers(tb):
            original = getattr(owner, attr)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict[str, float]:
    """Seconds per span name: each span's duration minus its children's."""
    durations = [end - start for _, start, end, _ in spans]
    own = list(durations)
    for (_, _, _, parent), duration in zip(spans, durations):
        if parent >= 0:
            own[parent] -= duration
    totals: dict[str, float] = {}
    for (name, _, _, _), seconds in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + seconds
    return totals
