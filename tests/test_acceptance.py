"""Acceptance gate: one criterion per test, one printed verdict line each.

The heavyweight certification campaign runs once per session; the criteria
that quantify over its instances read the shared report. Verdict lines are
written to the real stdout so they appear even under pytest capture.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import sys
import time
from fractions import Fraction

import pytest

from tiebreak.alphabetic import (
    LEFTMOST,
    RIGHTMOST,
    brute_force_optimal,
    dp_optimal_cost,
    format_tree,
    hu_tucker,
    reconstruct_from_depths,
    tree_cost,
    tree_depths,
)
from tiebreak.harness import (
    ALL_EQUAL,
    DEGENERATE_FAMILIES,
    EQUAL_BLOCKS,
    PAIR_SUM_TIES,
    PALINDROME,
    UNIFORM_RANDOM,
    ZERO_SPRINKLED,
    CampaignConfig,
    Family,
    run_campaign,
)
from tiebreak.partition import brute_force_partition, greedy_partition, partition_value
from tiebreak.perturb import NEGATIVE, POSITIVE, dyadic_shadow
from tiebreak.trace import stability_witness, verify_policy

#: 1,000 weight vectors, 800 of them from degenerate families, solved under
#: both tie policies with full certification, plus 500 continuity pairs.
CAMPAIGN_CONFIG = CampaignConfig(
    seed=20260822,
    counts=(
        (Family(ALL_EQUAL), 170),
        (Family(EQUAL_BLOCKS), 170),
        (Family(PAIR_SUM_TIES), 170),
        (Family(PALINDROME), 120),
        (Family(UNIFORM_RANDOM), 200),
        (Family(ZERO_SPRINKLED), 170),
    ),
    n_min=1,
    n_max=200,
    lipschitz_pairs=500,
    lipschitz_n_max=40,
)


@pytest.fixture()
def criterion(capfd):
    """Print `acceptance <name>: PASS|FAIL` no matter how the block exits."""

    @contextlib.contextmanager
    def tracked(name: str):
        ok = False
        try:
            yield
            ok = True
        finally:
            # Suspend fd-level capture so the verdict reaches the terminal.
            with capfd.disabled():
                sys.stdout.write(f"acceptance {name}: {'PASS' if ok else 'FAIL'}\n")
                sys.stdout.flush()

    return tracked


@pytest.fixture(scope="session")
def campaign():
    start = time.monotonic()
    report = run_campaign(CAMPAIGN_CONFIG)
    return report, time.monotonic() - start


def _random_vector(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(0, 24), 1 << rng.randint(0, 3)) for _ in range(n))


def test_dp_agrees_with_exhaustive_search_on_small_sizes(criterion) -> None:
    with criterion("oracle-agreement"):
        rng = random.Random("acceptance-oracle-agreement")
        start = time.monotonic()
        for n in range(2, 12):
            for _ in range(200):
                w = _random_vector(rng, n)
                assert dp_optimal_cost(w) == brute_force_optimal(w)[0]
        assert time.monotonic() - start < 120


def test_solver_is_optimal_across_the_campaign(campaign, criterion) -> None:
    with criterion("robust-optimality"):
        report, elapsed = campaign
        agg = report.aggregate
        assert agg["weight_vectors"] == 1000
        assert agg["degenerate_vectors"] >= 500
        assert agg["solver_runs"] == 2000  # both policies per vector
        assert {v.policy for v in report.instances} == {LEFTMOST, RIGHTMOST}
        degenerate = {f.token() for f, _ in CAMPAIGN_CONFIG.counts if f.name != UNIFORM_RANDOM}
        assert {f.name for f, _ in CAMPAIGN_CONFIG.counts} - {UNIFORM_RANDOM} == set(DEGENERATE_FAMILIES)
        assert sum(1 for v in report.instances if v.family in degenerate) == 1600
        assert all(v.optimal for v in report.instances)
        assert all(v.oracles_agree is not False for v in report.instances)
        assert agg["failing_runs"] == 0
        assert elapsed < 300


def test_solver_never_reports_failure(campaign, criterion) -> None:
    with criterion("feasibility"):
        report, _ = campaign
        assert report.instances
        assert all(v.feasible for v in report.instances)
        assert all(v.cost is not None for v in report.instances)


def test_impossible_depths_rejected_and_produced_depths_rebuild(campaign, criterion) -> None:
    with criterion("depth-reconstruction"):
        assert reconstruct_from_depths((3, 2, 2, 3, 2)) is None
        report, _ = campaign
        # feasible == the solver's depth sequence reconstructed to a tree
        assert all(v.feasible for v in report.instances)


def test_policy_runs_match_explicit_shadow_arithmetic(campaign, criterion) -> None:
    with criterion("symbolic-equivalence"):
        report, _ = campaign
        # Equivalence is the audit (each record's lexicographic sign of
        # (f(w), f(s)), which a surviving tie would fail) and the replayed
        # path together, so it also certifies tie-freeness.
        assert all(v.equivalent for v in report.instances)
        assert report.binding_error is None
        assert report.binding is not None
        assert report.binding[LEFTMOST] in (POSITIVE, NEGATIVE)
        assert report.aggregate["binding_matches_configuration"] is True
        first_line = report.render().splitlines()[0]
        assert '"binding"' in first_line and LEFTMOST in first_line


def test_witness_step_replays_the_exact_decision_path(campaign, criterion) -> None:
    with criterion("path-stability"):
        report, _ = campaign
        at_witness = [v for v in report.instances if v.stability_mode == "witness"]
        assert len(at_witness) >= 200
        assert all(v.stability == "pass" for v in at_witness)
        assert all(v.witness is not None and v.witness > 0 for v in at_witness)
        # Clamped and boundary-skipped replays may not certify the full
        # witness step, but they must never certify a failure.
        assert all(v.stability != "fail" for v in report.instances)


def test_optimal_cost_is_lipschitz_in_the_weights(campaign, criterion) -> None:
    with criterion("cost-continuity"):
        report, _ = campaign
        assert report.aggregate["lipschitz_pairs"] == 500
        assert report.aggregate["lipschitz_failures"] == 0
        assert all(v.ok for v in report.lipschitz)


def test_fixed_instances_have_their_known_solutions(criterion) -> None:
    with criterion("fixed-values"):
        w3 = (Fraction(1), Fraction(2), Fraction(3))
        for policy in (LEFTMOST, RIGHTMOST):
            tree, _ = hu_tucker(w3, policy)
            assert format_tree(tree) == "((b1 b2) b3)"
            assert tree_cost(tree, w3) == 9
        assert dp_optimal_cost(w3) == brute_force_optimal(w3)[0] == 9

        w5 = (Fraction(1),) * 5
        left, _ = hu_tucker(w5, LEFTMOST)
        right, _ = hu_tucker(w5, RIGHTMOST)
        assert tree_depths(left) == (3, 3, 2, 2, 2)
        assert tree_depths(right) == (2, 2, 2, 3, 3)
        assert tree_cost(left, w5) == tree_cost(right, w5) == 12
        assert dp_optimal_cost(w5) == brute_force_optimal(w5)[0] == 12


def test_partition_traces_verify_and_respect_the_oracle(criterion) -> None:
    with criterion("partition-demo"):
        rng = random.Random("acceptance-partition")
        for _ in range(200):
            n = rng.randint(1, 16)
            w = _random_vector(rng, n)
            assignment, trace = greedy_partition(w)
            s = dyadic_shadow(n)
            assert verify_policy(trace, w, s).passed
            value, brute = partition_value(assignment, w), brute_force_partition(w)
            assert value >= brute
            # Largest-first greedy's makespan, (total + value) / 2, is at most
            # 7/6 of the optimum (Graham, SIAM J. Appl. Math. 17, 1969).
            total = sum(w, Fraction(0))
            assert total + value <= Fraction(7, 6) * (total + brute)

            step = stability_witness(trace, w, s, verified=True)
            assert step > 0
            moved = tuple(x + step * e for x, e in zip(w, s.entries))
            replayed, replay = greedy_partition(moved)
            assert replayed == assignment
            assert len(replay.records) == len(trace.records)
            assert not any(rec.tie for rec in replay.records)
            assert [r.realized_sign for r in replay.records] == [r.realized_sign for r in trace.records]


#: sha256 of the acceptance report. The report is the campaign's contract:
#: a change that moves a verdict, a witness or a row changes these bytes.
CAMPAIGN_REPORT_SHA256 = "e940bdd2d3a41fbf3d5dc10c41da42bf912ae8c959a2c9d2857b841eca8715d8"


def test_campaign_report_bytes_are_pinned(campaign, criterion) -> None:
    with criterion("report-pin"):
        report, _ = campaign
        digest = hashlib.sha256(report.render().encode("utf-8")).hexdigest()
        assert digest == CAMPAIGN_REPORT_SHA256


def test_identical_configs_render_identical_reports(campaign, criterion) -> None:
    with criterion("determinism"):
        config = CampaignConfig(
            seed=77,
            counts=(
                (Family(ALL_EQUAL), 8),
                (Family(ZERO_SPRINKLED), 8),
                (Family(UNIFORM_RANDOM), 8),
            ),
            n_min=1,
            n_max=48,
            lipschitz_pairs=24,
            lipschitz_n_max=24,
        )
        assert run_campaign(config).render() == run_campaign(config).render()
        report, _ = campaign
        assert report.render() == report.render()
