"""Tests for the runtime re-optimizer."""

import pytest

from repro.optimizer.reoptimizer import ReOptimizer
from repro.optimizer.statistics import ObservedStatistics
from repro.optimizer.plans import JoinTree
from repro.workloads.queries import query_3a, query_10a


def bad_tree_for_q3a():
    return JoinTree.join(
        JoinTree.leaf("customer"),
        JoinTree.join(JoinTree.leaf("orders"), JoinTree.leaf("lineitem")),
    )


class TestReOptimizer:
    def test_no_switch_when_running_the_best_plan(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        reoptimizer = ReOptimizer(catalog)
        query = query_3a()
        best = reoptimizer  # readability only
        from repro.optimizer.enumerator import Optimizer

        best_tree = Optimizer(catalog).optimize_tree(query)
        decision = reoptimizer.evaluate(query, best_tree, ObservedStatistics())
        assert not decision.switch
        assert decision.improvement == pytest.approx(0.0, abs=1e-9)

    def test_switch_recommended_for_clearly_bad_plan(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        reoptimizer = ReOptimizer(catalog, switch_threshold=0.95)
        query = query_3a()
        decision = reoptimizer.evaluate(query, bad_tree_for_q3a(), ObservedStatistics())
        assert decision.switch
        assert decision.recommended_cost < decision.current_cost
        assert decision.improvement > 0

    def test_no_switch_when_almost_done(self, tiny_tpch):
        """If nearly all source data has been consumed there is no point switching."""
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        reoptimizer = ReOptimizer(catalog, switch_threshold=0.95)
        query = query_3a()
        observed = ObservedStatistics()
        for name in query.relations:
            total = len(tiny_tpch[name])
            observed.record_source(name, total, total, exhausted=True)
        decision = reoptimizer.evaluate(query, bad_tree_for_q3a(), observed)
        assert not decision.switch
        assert decision.remaining_fraction <= 0.02

    def test_threshold_controls_eagerness(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        query = query_10a()
        from repro.optimizer.enumerator import Optimizer

        slightly_suboptimal = Optimizer(
            catalog.without_statistics()
        ).optimize_tree(query)
        strict = ReOptimizer(catalog, switch_threshold=0.01)
        decision = strict.evaluate(query, slightly_suboptimal, ObservedStatistics())
        # With an extremely demanding threshold, marginal improvements never
        # trigger a switch.
        assert not decision.switch

    def test_invocation_counter(self, tiny_tpch):
        catalog = tiny_tpch.catalog()
        reoptimizer = ReOptimizer(catalog)
        query = query_3a()
        tree = bad_tree_for_q3a()
        for _ in range(3):
            reoptimizer.evaluate(query, tree, ObservedStatistics())
        assert reoptimizer.invocations == 3

    def test_late_stage_switches_are_suppressed(self, tiny_tpch):
        """Regression: current and alternative costs used to be multiplied by
        the *same* remaining fraction, so progress cancelled out of the switch
        decision and a 90%-done query was exactly as switch-happy as a fresh
        one.  With the sunk-work credit (the alternative is charged stitch-up
        work proportional to the completed fraction), a bad plan is abandoned
        early but kept once most of the inputs have been processed."""
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        reoptimizer = ReOptimizer(catalog, switch_threshold=0.8)
        query = query_3a()
        bad = bad_tree_for_q3a()

        fresh = reoptimizer.evaluate(query, bad, ObservedStatistics())
        assert fresh.switch, "a fresh bad plan should still be abandoned"

        late = ObservedStatistics()
        for name in query.relations:
            read = int(len(tiny_tpch[name]) * 0.9)
            late.record_source(name, read, read, exhausted=False)
        decision = reoptimizer.evaluate(query, bad, late)
        assert 0.02 < decision.remaining_fraction < 0.2
        # The memoryless comparison would still switch here (it is the same
        # ratio as the fresh decision); the sunk-work credit suppresses it.
        memoryless = ReOptimizer(catalog, switch_threshold=0.8, stitchup_cost_weight=0.0)
        assert memoryless.evaluate(query, bad, late).switch
        assert not decision.switch

    def test_observed_statistics_drive_the_recommendation(self, tiny_tpch):
        """An observed explosion in the running join should trigger a switch away."""
        catalog = tiny_tpch.catalog(with_cardinalities=False)
        reoptimizer = ReOptimizer(catalog, switch_threshold=0.9)
        query = query_10a()
        current = JoinTree.left_deep(["lineitem", "orders", "customer", "nation"])
        observed = ObservedStatistics()
        # Pretend lineitem ⋈ orders produced far more tuples than expected.
        observed.record_selectivity(["lineitem", "orders"], 0.5)
        observed.record_source("lineitem", 500, 500, False)
        observed.record_source("orders", 500, 500, False)
        decision = reoptimizer.evaluate(query, current, observed)
        assert decision.recommended_cost <= decision.current_cost
        # Pinned: the value costing every candidate tree from scratch gave.
        assert decision.recommended_cost == 385000.0
