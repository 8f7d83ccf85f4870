"""Oracle for the join enumerator's dynamic program.

:class:`ReferenceEnumerator` keeps the straightforward enumeration: for every
valid split of a relation subset it assembles the candidate tree from the two
best subtrees and costs it from scratch with
:meth:`PlanCostModel.estimate_tree` (strategies from
:func:`plan_join_strategies`).  The dynamic program composes each candidate's
cost from its children's memo entries instead; these tests pin that the two
agree exactly -- same trees, ``==``-equal costs, same strategy maps -- over
every paper query, bushy and left-deep, hash-only and order-adaptive, with
and without aggregation, and across several observed-statistics states.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest

from repro.engine.cost import CostModel
from repro.optimizer.cost_model import PlanCostModel
from repro.optimizer.enumerator import JoinEnumerator
from repro.optimizer.ordering import OrderingKnowledge, plan_join_strategies
from repro.optimizer.plans import JoinTree
from repro.optimizer.statistics import ObservedStatistics, SelectivityEstimator
from repro.stats.order_detector import OrderDetector
from repro.workloads.queries import paper_query_workload


class ReferenceEnumerator:
    """Enumerate splits and cost each assembled candidate tree from scratch."""

    def __init__(self, query, estimator, bushy, ordering):
        self.query = query
        self.estimator = estimator
        self.bushy = bushy
        self.ordering = ordering
        self.model = PlanCostModel(CostModel())
        self.memo: dict[frozenset, tuple[JoinTree, float, float]] = {}

    def strategies_for(self, tree):
        if self.ordering is None:
            return None
        return plan_join_strategies(self.query, tree, self.ordering)

    def connected(self, relations) -> bool:
        relations = set(relations)
        if len(relations) <= 1:
            return True
        reached = {next(iter(relations))}
        frontier = set(reached)
        while frontier:
            nxt = set()
            for pred in self.query.join_predicates:
                if pred.left_relation not in relations or pred.right_relation not in relations:
                    continue
                if pred.left_relation in frontier and pred.right_relation not in reached:
                    nxt.add(pred.right_relation)
                if pred.right_relation in frontier and pred.left_relation not in reached:
                    nxt.add(pred.left_relation)
            reached |= nxt
            frontier = nxt
        return reached == relations

    def splits(self, relations):
        members = sorted(relations)
        if not self.bushy:
            for name in members:
                right = frozenset((name,))
                if relations - right:
                    yield relations - right, right
            return
        first, rest = members[0], members[1:]
        for mask in range(1 << len(rest)):
            left = {first} | {name for i, name in enumerate(rest) if mask & (1 << i)}
            if len(left) < len(members):
                yield frozenset(left), relations - frozenset(left)

    def best(self, relations):
        relations = frozenset(relations)
        if relations in self.memo:
            return self.memo[relations]
        if len(relations) == 1:
            (relation,) = relations
            tree = JoinTree.leaf(relation)
            estimate = self.model.estimate_tree(self.query, tree, self.estimator)
            self.memo[relations] = (tree, estimate.total_cost, estimate.output_cardinality)
            return self.memo[relations]
        best = None
        for left, right in self.splits(relations):
            if not self.query.predicates_between(left, right):
                continue
            if not self.connected(left) or not self.connected(right):
                continue
            tree = JoinTree.join(self.best(left)[0], self.best(right)[0])
            estimate = self.model.estimate_tree(
                self.query, tree, self.estimator, self.strategies_for(tree)
            )
            if best is None or estimate.total_cost < best[1]:
                best = (tree, estimate.total_cost, estimate.output_cardinality)
        if best is None:
            raise ValueError(f"no connected join tree for {sorted(relations)}")
        self.memo[relations] = best
        return best


def _detector(values) -> OrderDetector:
    detector = OrderDetector(tolerance=0.05)
    detector.add_many(values)
    return detector


def _empty(query, data):
    return ObservedStatistics()


def _mid_run(query, data):
    """Partially read sources, recorded selectivities, one multiplicative join."""
    observed = ObservedStatistics()
    for i, name in enumerate(query.relations):
        total = len(data[name])
        read = max(total * (i + 2) // 7, 1)
        observed.record_source(name, read, max(read * 3 // 4, 1), exhausted=False)
    pairs = [p.relations() for p in query.join_predicates]
    for i, pair in enumerate(pairs[:2]):
        observed.record_selectivity(pair, 0.0005 * (i + 1))
    if len(pairs) > 2:
        observed.record_selectivity(pairs[0] | pairs[1], 0.00002)
    observed.flag_multiplicative(query.join_predicates[-1], 3.5)
    return observed


def _exhausted(query, data):
    """Every other source fully read; the rest barely started."""
    observed = ObservedStatistics()
    for i, name in enumerate(query.relations):
        total = len(data[name])
        if i % 2 == 0:
            observed.record_source(name, total, total // 2, exhausted=True)
        else:
            observed.record_source(name, 3, 3, exhausted=False)
    return observed


def _orderings(query, data):
    """Promised orderings on every join attribute, then observations that
    confirm some (ascending, near-sorted, descending) and expose others."""
    observed = ObservedStatistics()
    rng = random.Random(17)
    attrs = sorted(
        {(p.left_relation, p.left_attr) for p in query.join_predicates}
        | {(p.right_relation, p.right_attr) for p in query.join_predicates}
    )
    for i, (relation, attr) in enumerate(attrs):
        observed.record_promised_ordering(relation, attr)
        kind = i % 4
        if kind == 0:
            values = list(range(200))
        elif kind == 1:
            values = list(range(200))
            for j in range(0, 200, 30):
                values[j] = 0  # a few late arrivals: still near-sorted
        elif kind == 2:
            values = rng.sample(range(200), 200)  # the promise was a lie
        else:
            values = list(range(200, 0, -1))
        observed.record_ordering(relation, attr, _detector(values))
        observed.record_source(relation, 200, 150, exhausted=False)
    return observed


def _chained(query, data):
    """Every attribute of each join-key class sharing a name suffix (all the
    ``*nationkey`` columns, say) near-sorted, everything else unordered, so
    merge joins stack on top of merge joins."""
    observed = ObservedStatistics()
    rng = random.Random(23)
    near = list(range(200))
    for j in range(0, 200, 30):
        near[j] = 0
    for pred in query.join_predicates:
        for relation, attr in (
            (pred.left_relation, pred.left_attr),
            (pred.right_relation, pred.right_attr),
        ):
            stacked = attr.endswith("nationkey") or attr.endswith("orderkey")
            values = near if stacked else rng.sample(range(200), 200)
            observed.record_ordering(relation, attr, _detector(values))
    return observed


STATES = {
    "chained": _chained,
    "empty": _empty,
    "mid_run": _mid_run,
    "exhausted": _exhausted,
    "orderings": _orderings,
}


def _queries():
    for name, query in paper_query_workload().items():
        yield name, query
        yield f"{name}-spj", replace(query, aggregation=None)


QUERIES = dict(_queries())


def _subquery(query, subset):
    """``query`` restricted to a connected subset of its relations."""
    return replace(
        query,
        name=f"{query.name}[{','.join(sorted(subset))}]",
        relations=tuple(r for r in query.relations if r in subset),
        join_predicates=tuple(
            p for p in query.join_predicates if p.relations() <= subset
        ),
        selections={r: p for r, p in query.selections.items() if r in subset},
    )


def _assert_matches(query, catalog, observed, bushy, order_adaptive):
    """The DP's best entry equals the reference's, field by field."""
    ordering = OrderingKnowledge.gather(catalog, query, observed) if order_adaptive else None
    enumerator = JoinEnumerator(
        query, SelectivityEstimator(catalog, query, observed), bushy=bushy, ordering=ordering
    )
    reference = ReferenceEnumerator(
        query, SelectivityEstimator(catalog, query, observed), bushy, ordering
    )
    entry = enumerator.best_entry()
    ref_tree, ref_cost, ref_card = reference.best(query.relations)
    assert str(entry.tree) == str(ref_tree)
    assert entry.cost == ref_cost
    assert entry.cardinality == ref_card
    assert entry.strategies == (reference.strategies_for(ref_tree) or {})
    assert entry.cost == enumerator.cost_of(entry.tree, entry.strategies).total_cost
    return enumerator, reference


@pytest.mark.parametrize("state", sorted(STATES))
@pytest.mark.parametrize("order_adaptive", [False, True], ids=["hash", "order"])
@pytest.mark.parametrize("bushy", [True, False], ids=["bushy", "left-deep"])
@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_dynamic_program_matches_reference(
    tiny_tpch, query_name, bushy, order_adaptive, state
):
    query = QUERIES[query_name]
    for with_cardinalities in (True, False):
        catalog = tiny_tpch.catalog(with_cardinalities=with_cardinalities)
        observed = STATES[state](query, tiny_tpch)
        enumerator, reference = _assert_matches(
            query, catalog, observed, bushy, order_adaptive
        )
        for size in range(1, len(query.relations) + 1):
            for subset in itertools.combinations(query.relations, size):
                subset = frozenset(subset)
                if not reference.connected(subset):
                    with pytest.raises(ValueError):
                        enumerator.best_tree_for(subset)
                    continue
                expected = reference.best(subset)[0]
                assert str(enumerator.best_tree_for(subset)) == str(expected)
                if 1 < size < len(query.relations):
                    # Costs of every subset's plan, not only the winner's.
                    _assert_matches(
                        _subquery(query, subset), catalog, observed, bushy, order_adaptive
                    )


def test_order_adaptive_cases_exercise_merge(tiny_tpch):
    """The order-adaptive oracle cases are not vacuous: merge nodes are chosen."""
    merges = 0
    for query in paper_query_workload().values():
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        for state in STATES.values():
            observed = state(query, tiny_tpch)
            ordering = OrderingKnowledge.gather(catalog, query, observed)
            entry = JoinEnumerator(
                query, SelectivityEstimator(catalog, query, observed), ordering=ordering
            ).best_entry()
            merges += sum(s.algorithm == "merge" for s in entry.strategies.values())
    assert merges > 0


def test_disconnected_subset_raises(tiny_tpch):
    query = paper_query_workload()["Q3A"]
    catalog = tiny_tpch.catalog(with_cardinalities=True)
    enumerator = JoinEnumerator(query, SelectivityEstimator(catalog, query))
    with pytest.raises(ValueError):
        enumerator.best_tree_for({"customer", "lineitem"})
