"""Tests for join enumeration, the cost model and the optimizer front-end."""

import pytest

from repro.engine.cost import CostModel
from repro.optimizer.cost_model import PlanCostModel
from repro.optimizer.enumerator import JoinEnumerator, Optimizer
from repro.optimizer.plans import JoinTree
from repro.optimizer.statistics import ObservedStatistics, SelectivityEstimator
from repro.relational.algebra import SPJAQuery
from repro.relational.expressions import JoinPredicate
from repro.workloads.queries import paper_query_workload, query_3a, query_5, query_10


class TestCostModel:
    def test_tree_cost_monotone_in_cardinality(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        query = query_3a()
        estimator = SelectivityEstimator(catalog, query)
        model = PlanCostModel(CostModel())
        small = model.estimate_tree(query, JoinTree.left_deep(["customer", "orders", "lineitem"]), estimator)
        assert small.total_cost > 0
        assert small.output_cardinality > 0
        assert frozenset({"customer", "orders"}) in small.cardinalities


class TestJoinEnumerator:
    def test_best_tree_covers_all_relations(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        for query in paper_query_workload().values():
            estimator = SelectivityEstimator(catalog, query)
            tree = JoinEnumerator(query, estimator).best_tree()
            assert tree.relations() == frozenset(query.relations)

    def test_no_cross_products(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        query = query_5()
        estimator = SelectivityEstimator(catalog, query)
        tree = JoinEnumerator(query, estimator).best_tree()
        # every internal node must be connected by at least one predicate
        for node in tree.internal_nodes():
            assert query.predicates_between(
                node.left.relations(), node.right.relations()
            ), f"cross product at {node}"

    def test_best_tree_avoids_expensive_intermediate(self, tiny_tpch):
        """With true cardinalities, joining customer before lineitem must win for Q3A."""
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        query = query_3a()
        estimator = SelectivityEstimator(catalog, query)
        enumerator = JoinEnumerator(query, estimator)
        best = enumerator.best_tree()
        good = enumerator.cost_of(best).total_cost
        bad = enumerator.cost_of(
            JoinTree.join(
                JoinTree.leaf("customer"),
                JoinTree.join(JoinTree.leaf("orders"), JoinTree.leaf("lineitem")),
            )
        ).total_cost
        assert good <= bad
        # customer must join orders before lineitem enters
        order = best.leaf_order()
        assert order.index("customer") < order.index("lineitem")

    def test_left_deep_only_mode(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        query = query_5()
        estimator = SelectivityEstimator(catalog, query)
        tree = JoinEnumerator(query, estimator, bushy=False).best_tree()
        assert tree.is_left_deep()

    def test_unconnected_relations_raise(self, tiny_tpch):
        query = SPJAQuery(
            name="pair",
            relations=("customer", "orders"),
            join_predicates=(JoinPredicate("customer", "c_custkey", "orders", "o_custkey"),),
        )
        catalog = tiny_tpch.catalog()
        estimator = SelectivityEstimator(catalog, query)
        enumerator = JoinEnumerator(query, estimator)
        with pytest.raises(ValueError):
            enumerator.best_tree_for({"customer", "nonexistent"})


class TestOptimizer:
    def test_optimize_produces_valid_plan(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        optimizer = Optimizer(catalog)
        for query in paper_query_workload().values():
            plan = optimizer.optimize(query)
            assert plan.join_tree.relations() == frozenset(query.relations)
            assert plan.estimated_cost > 0

    def test_window_preaggregation_points_inserted(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        optimizer = Optimizer(catalog)
        plan = optimizer.optimize(query_3a(), preaggregation="window")
        assert len(plan.preagg_points) == 1
        assert plan.preagg_points[0].mode == "window"

    def test_traditional_preaggregation_only_where_beneficial(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        optimizer = Optimizer(catalog)
        beneficial = optimizer.optimize(query_3a(), preaggregation="traditional")
        not_beneficial = optimizer.optimize(query_5(), preaggregation="traditional")
        assert len(beneficial.preagg_points) == 1
        assert len(not_beneficial.preagg_points) == 0

    def test_no_preaggregation_for_spj(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        query = SPJAQuery(
            name="spj",
            relations=("customer", "orders"),
            join_predicates=(JoinPredicate("customer", "c_custkey", "orders", "o_custkey"),),
        )
        plan = Optimizer(catalog).optimize(query, preaggregation="window")
        assert plan.preagg_points == ()

    def test_observed_statistics_change_plan_choice(self, tiny_tpch):
        """Feeding the optimizer an observed explosion steers it away from that join."""
        catalog = tiny_tpch.catalog(with_cardinalities=False)
        query = query_10()
        optimizer = Optimizer(catalog)
        baseline = optimizer.optimize_tree(query)

        observed = ObservedStatistics()
        # Claim the baseline plan's first join explodes: selectivity near 1.
        first_join = next(iter(baseline.internal_nodes())).relations
        for node in baseline.subtrees():
            if not node.is_leaf:
                first_join = node.relations()
                break
        observed.record_selectivity(first_join, 0.9)
        revised = optimizer.optimize_tree(query, observed)
        assert revised.leaf_order() != baseline.leaf_order() or str(revised) != str(baseline)

    def test_cost_of_tree_helper(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        optimizer = Optimizer(catalog)
        query = query_3a()
        tree = JoinTree.left_deep(["customer", "orders", "lineitem"])
        estimate = optimizer.cost_of_tree(query, tree)
        assert estimate.total_cost > 0
