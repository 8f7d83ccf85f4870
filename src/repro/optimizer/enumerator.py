"""Join-order enumeration and the top-level optimizer.

Tukwila's optimizer is "based on top-down enumeration (recursion with
memoization, equivalent to dynamic programming but more flexible for sharing
subexpressions between optimizer re-invocations)" and performs **bushy-tree
enumeration**, which prior work showed matters for data integration queries
(Section 4.3).  This module reproduces that: :class:`JoinEnumerator` finds
the cheapest (possibly bushy) join tree for a connected relation set, and
:class:`Optimizer` wraps it into a full :class:`PhysicalPlan`, optionally
adding pre-aggregation points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.engine.cost import CostModel
from repro.optimizer.cost_model import CostEstimate, PlanCostModel
from repro.optimizer.ordering import (
    JoinStrategy,
    OrderingKnowledge,
    SideOrdering,
    merge_join_strategy,
    plan_join_strategies,
    primary_join_keys,
)
from repro.optimizer.plans import JoinTree, PhysicalPlan, PreAggPoint
from repro.optimizer.rewrite import find_preaggregation_points
from repro.optimizer.statistics import ObservedStatistics, SelectivityEstimator
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog, DEFAULT_ASSUMED_CARDINALITY
from repro.relational.expressions import JoinPredicate

#: one valid split of a relation subset: (left, right, oriented primary keys)
_Split = tuple[frozenset[str], frozenset[str], tuple[str, str]]


@dataclass(slots=True)
class _MemoEntry:
    """Cheapest plan found for one relation subset.

    ``subtree_cost`` is the cost of the joins below and at this node alone;
    ``cost`` adds the final aggregation over this subset's output, so it is
    what :meth:`PlanCostModel.estimate_tree` returns for ``tree``.  A parent
    composes its own cost from its children's ``subtree_cost``.
    ``strategies`` and ``orderings`` are the order-adaptive strategy map of
    ``tree`` and the orderings of its output stream (both empty without
    ordering knowledge).
    """

    tree: JoinTree
    cost: float
    cardinality: float
    subtree_cost: float
    strategies: dict[frozenset[str], JoinStrategy]
    orderings: dict[str, SideOrdering]


class _QueryShape:
    """The valid join splits of every connected subset of one join graph.

    Which ``(left, right)`` partitions of a relation subset are worth costing
    depends only on the join predicates and on bushy vs left-deep
    enumeration, never on statistics, so one table serves every enumerator
    over the same query shape (:func:`_query_shape`).  Subsets are filled in
    lazily, on first request.
    """

    def __init__(self, join_predicates: tuple[JoinPredicate, ...], bushy: bool) -> None:
        self.join_predicates = join_predicates
        self.bushy = bushy
        self._splits: dict[frozenset[str], tuple[_Split, ...]] = {}

    def splits(self, relations: frozenset[str]) -> tuple[_Split, ...]:
        """Splits of ``relations`` into two connected, joinable sides, in
        enumeration order; empty when no connected join tree exists."""
        splits = self._splits.get(relations)
        if splits is None:
            splits = tuple(self._valid_splits(relations))
            self._splits[relations] = splits
        return splits

    def _valid_splits(self, relations: frozenset[str]):
        for left_set, right_set in self._candidate_splits(relations):
            predicates = tuple(
                p for p in self.join_predicates if p.connects(left_set, right_set)
            )
            if not predicates:
                continue
            if not self._connected(left_set) or not self._connected(right_set):
                continue
            yield left_set, right_set, primary_join_keys(predicates, left_set)

    def _candidate_splits(self, relations: frozenset[str]):
        """Yield (left, right) partitions of ``relations`` to consider."""
        members = sorted(relations)
        n = len(members)
        if n < 2:
            return
        if not self.bushy:
            # Left-deep enumeration: the right input is always a single relation.
            for name in members:
                right_set = frozenset((name,))
                yield relations - right_set, right_set
            return
        # Bushy enumeration: proper non-empty subsets; fixing the first member
        # on the left side avoids generating every partition twice.
        first = members[0]
        rest = members[1:]
        for mask in range(1 << len(rest)):
            left = {first}
            for i, name in enumerate(rest):
                if mask & (1 << i):
                    left.add(name)
            if len(left) == n:
                continue
            left_set = frozenset(left)
            yield left_set, relations - left_set

    def _connected(self, relations: frozenset[str]) -> bool:
        """True when the join graph restricted to ``relations`` is connected."""
        if len(relations) <= 1:
            return True
        start = next(iter(relations))
        reached = {start}
        frontier = {start}
        while frontier:
            nxt = set()
            for pred in self.join_predicates:
                if not (pred.left_relation in relations and pred.right_relation in relations):
                    continue
                if pred.left_relation in frontier and pred.right_relation not in reached:
                    nxt.add(pred.right_relation)
                if pred.right_relation in frontier and pred.left_relation not in reached:
                    nxt.add(pred.left_relation)
            reached |= nxt
            frontier = nxt
        return reached == relations


@lru_cache(maxsize=256)
def _query_shape(join_predicates: tuple[JoinPredicate, ...], bushy: bool) -> _QueryShape:
    """The :class:`_QueryShape` shared by every query with this join graph."""
    return _QueryShape(join_predicates, bushy)


class JoinEnumerator:
    """Memoized top-down enumeration of bushy join trees.

    A dynamic program over relation subsets: each candidate split is costed
    from its two children's memo entries plus one join node, with exactly
    the float operations :meth:`PlanCostModel.estimate_tree` performs on the
    assembled tree, so choices, costs and ties match costing every candidate
    tree from scratch.
    """

    def __init__(
        self,
        query: SPJAQuery,
        estimator: SelectivityEstimator,
        cost_model: CostModel | None = None,
        bushy: bool = True,
        ordering: OrderingKnowledge | None = None,
    ) -> None:
        """``ordering`` enables order-adaptive enumeration: every candidate
        tree is costed with the merge strategy on its order-eligible nodes,
        so a tree that lines up sorted inputs can win on cost."""
        self.query = query
        self.estimator = estimator
        self.plan_cost_model = PlanCostModel(cost_model)
        self.bushy = bushy
        self.ordering = ordering
        self._shape = _query_shape(query.join_predicates, bushy)
        self._memo: dict[frozenset, _MemoEntry] = {}

    # -- public API -------------------------------------------------------------

    def best_tree(self) -> JoinTree:
        """Cheapest join tree over all of the query's relations."""
        return self.best_entry().tree

    def best_entry(self) -> _MemoEntry:
        """Memo entry of the cheapest plan over all of the query's relations:
        its tree, total cost, cardinality and strategy map."""
        return self._best(frozenset(self.query.relations))

    def best_tree_for(self, relations) -> JoinTree:
        """Cheapest join tree over a (connected) subset of the relations.

        Raises ``ValueError`` when no connected tree exists for the subset.
        Used by adaptation policies that constrain where one relation sits
        (e.g. the source-rate policy gating a collapsed source at the top).
        """
        return self._best(frozenset(relations)).tree

    def strategies_for(self, tree: JoinTree) -> dict[frozenset, object] | None:
        """Order-adaptive strategy assignment for ``tree`` (None without knowledge)."""
        if self.ordering is None:
            return None
        return plan_join_strategies(self.query, tree, self.ordering)

    def cost_of(
        self, tree: JoinTree, join_strategies: dict[frozenset[str], JoinStrategy] | None = None
    ) -> CostEstimate:
        """Cost of a specific (externally supplied) join tree.

        Without an explicit ``join_strategies`` map the enumerator's own
        ordering knowledge (if any) picks the strategies; pass a map to cost
        a concrete running configuration instead.
        """
        if join_strategies is None:
            join_strategies = self.strategies_for(tree)
        return self.plan_cost_model.estimate_tree(
            self.query, tree, self.estimator, join_strategies
        )

    # -- enumeration ------------------------------------------------------------

    def _best(self, relations: frozenset[str]) -> _MemoEntry:
        entry = self._memo.get(relations)
        if entry is not None:
            return entry
        model = self.plan_cost_model
        if len(relations) == 1:
            (relation,) = relations
            cardinality = self.estimator.estimate_cardinality(relations)
            subtree_cost = model.leaf_cost(self.estimator.base_cardinality(relation))
            orderings = (
                self.ordering.leaf_orderings(relation) if self.ordering is not None else {}
            )
            entry = _MemoEntry(
                JoinTree.leaf(relation),
                model.with_aggregation(self.query, subtree_cost, cardinality),
                cardinality,
                subtree_cost,
                {},
                orderings,
            )
            self._memo[relations] = entry
            return entry

        splits = self._shape.splits(relations)
        if not splits:
            raise ValueError(
                f"no connected join tree exists for relations {sorted(relations)} "
                f"of query {self.query.name}"
            )
        cardinality = self.estimator.estimate_cardinality(relations)
        best = None
        best_cost = 0.0
        for left_set, right_set, keys in splits:
            left = self._best(left_set)
            right = self._best(right_set)
            strategy, orderings = merge_join_strategy(
                keys,
                left.orderings,
                right.orderings,
                len(left_set) == 1,
                len(right_set) == 1,
            )
            subtree_cost = (
                left.subtree_cost
                + right.subtree_cost
                + model.join_cost(left.cardinality, right.cardinality, cardinality, strategy)
            )
            cost = model.with_aggregation(self.query, subtree_cost, cardinality)
            if best is None or cost < best_cost:
                best = (left, right, strategy, orderings, subtree_cost)
                best_cost = cost
        left, right, strategy, orderings, subtree_cost = best
        # Post-order, as plan_join_strategies assigns them.
        strategies = {**left.strategies, **right.strategies}
        if strategy is not None:
            strategies[relations] = strategy
        entry = _MemoEntry(
            JoinTree.join(left.tree, right.tree),
            best_cost,
            cardinality,
            subtree_cost,
            strategies,
            orderings,
        )
        self._memo[relations] = entry
        return entry


class Optimizer:
    """Cost-based optimizer producing complete physical plans."""

    def __init__(
        self,
        catalog: Catalog,
        cost_model: CostModel | None = None,
        bushy: bool = True,
        default_cardinality: int = DEFAULT_ASSUMED_CARDINALITY,
    ) -> None:
        self.catalog = catalog
        self.cost_model = cost_model or CostModel()
        self.bushy = bushy
        self.default_cardinality = default_cardinality

    def make_estimator(
        self, query: SPJAQuery, observed: ObservedStatistics | None = None
    ) -> SelectivityEstimator:
        return SelectivityEstimator(
            self.catalog, query, observed, self.default_cardinality
        )

    def optimize(
        self,
        query: SPJAQuery,
        observed: ObservedStatistics | None = None,
        preaggregation: str | None = None,
        ordering: OrderingKnowledge | None = None,
        rate_outlook: dict[str, float] | None = None,
    ) -> PhysicalPlan:
        """Pick the cheapest plan for ``query``.

        ``preaggregation`` selects how pre-aggregation points are inserted:
        ``None`` (no pre-aggregation), ``"window"`` (adjustable-window
        operators at every applicable point — the paper's low-risk default),
        or ``"traditional"`` (blocking pre-aggregates, only where the cost
        model estimates a benefit).  ``ordering`` enables order-adaptive
        enumeration (merge-join strategies on order-eligible nodes).
        ``rate_outlook`` maps known-slow relations to their estimated
        remaining arrival windows (simulated seconds, from recent rate
        telemetry): when the work-optimal tree would expose work behind such
        a source's arrivals, the plan that *gates* joins behind the slowest
        named source is chosen instead (see
        :func:`repro.optimizer.exposure.choose_rate_aware_tree`).
        """
        estimator = self.make_estimator(query, observed)
        enumerator = JoinEnumerator(
            query, estimator, self.cost_model, self.bushy, ordering=ordering
        )
        tree = enumerator.best_tree()
        if rate_outlook:
            from repro.optimizer.exposure import choose_rate_aware_tree

            tree = choose_rate_aware_tree(
                query, enumerator, estimator, tree, rate_outlook, self.cost_model
            )
        estimate = enumerator.cost_of(tree)
        preagg_points: tuple[PreAggPoint, ...] = ()
        if preaggregation is not None and query.aggregation is not None:
            schemas = {name: self.catalog.schema(name) for name in query.relations}
            points = find_preaggregation_points(query, tree, schemas, mode=preaggregation)
            if preaggregation == "traditional":
                points = tuple(
                    p for p in points if self._preagg_beneficial(query, p, estimator)
                )
            preagg_points = points
        return PhysicalPlan(
            query=query,
            join_tree=tree,
            preagg_points=preagg_points,
            estimated_cost=estimate.total_cost,
            estimated_cardinalities=estimate.cardinalities,
        )

    def optimize_tree(
        self,
        query: SPJAQuery,
        observed: ObservedStatistics | None = None,
        ordering: OrderingKnowledge | None = None,
        rate_outlook: dict[str, float] | None = None,
    ) -> JoinTree:
        """Shortcut returning only the chosen join tree."""
        return self.optimize(
            query, observed, ordering=ordering, rate_outlook=rate_outlook
        ).join_tree

    def cost_of_tree(
        self,
        query: SPJAQuery,
        tree: JoinTree,
        observed: ObservedStatistics | None = None,
    ) -> CostEstimate:
        estimator = self.make_estimator(query, observed)
        enumerator = JoinEnumerator(query, estimator, self.cost_model, self.bushy)
        return enumerator.cost_of(tree)

    def _preagg_beneficial(
        self, query: SPJAQuery, point: PreAggPoint, estimator: SelectivityEstimator
    ) -> bool:
        """Apply traditional pre-aggregation only when it is estimated to shrink data.

        The estimated number of partial groups is the product of the grouping
        attributes' distinct counts (capped at the input size); conventional
        systems apply the transformation only when that is clearly smaller
        than the input — which is exactly the conservatism the adjustable-
        window operator exists to avoid.
        """
        input_card = estimator.estimate_cardinality(frozenset(point.below))
        group_estimate = 1.0
        found = False
        for attr in point.group_attributes:
            for relation in point.below:
                if attr in estimator.catalog.schema(relation).names:
                    group_estimate *= estimator.distinct_values(relation, attr)
                    found = True
                    break
        if not found:
            return False
        group_estimate = min(group_estimate, input_card)
        return group_estimate < 0.8 * input_card
