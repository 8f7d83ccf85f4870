"""Stitch-up planning and execution (Section 3.4).

After the sequential phases of corrective query processing have consumed all
source data, the answers still missing are exactly the join combinations that
mix partitions from *different* phases:

    R1^c1 ⋈ ... ⋈ Rm^cm   for every (c1..cm) that is not all-equal.

The stitch-up executor enumerates those combination vectors, skips the ones
on the exclusion list (the all-equal vectors, already produced by the phases
themselves) or with an empty partition, and evaluates each by

1. seeding from the largest *reusable intermediate result* registered in the
   state-structure registry (e.g. a prior phase's ``F⋈T`` hash table), and
2. joining in the remaining relations by probing their partition hash tables,
   re-hashing a structure when it is keyed on the wrong attribute
   ("stitch-up join", Section 3.4.3).

The report records the reuse statistics the paper publishes in Tables 1–2:
how many tuples were reused from prior phases and how many registered tuples
were never needed ("discarded").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.engine.cost import CostModel, ExecutionMetrics, SimulatedClock
from repro.engine.state.hash_table import HashTableState
from repro.engine.state.registry import RegistryEntry, StateRegistry
from repro.relational.algebra import SPJAQuery
from repro.relational.schema import Schema
from repro.relational.tuples import TupleAdapter


@dataclass
class StitchUpReport:
    """Accounting for one stitch-up phase."""

    num_phases: int
    combinations_total: int = 0
    combinations_excluded: int = 0
    combinations_skipped_empty: int = 0
    combinations_evaluated: int = 0
    reused_tuples: int = 0
    discarded_tuples: int = 0
    output_count: int = 0
    work_units: float = 0.0
    simulated_seconds: float = 0.0
    exclusion_list: list[tuple[int, ...]] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "num_phases": self.num_phases,
            "combinations_total": self.combinations_total,
            "combinations_excluded": self.combinations_excluded,
            "combinations_skipped_empty": self.combinations_skipped_empty,
            "combinations_evaluated": self.combinations_evaluated,
            "reused_tuples": self.reused_tuples,
            "discarded_tuples": self.discarded_tuples,
            "output_count": self.output_count,
            "work_units": self.work_units,
            "simulated_seconds": self.simulated_seconds,
        }


class StitchUpExecutor:
    """Evaluates the cross-phase join combinations at the end of execution."""

    def __init__(
        self,
        query: SPJAQuery,
        registry: StateRegistry,
        num_phases: int,
        output_schema: Schema,
        output_sink: Callable[[tuple], None],
        metrics: ExecutionMetrics | None = None,
        clock: SimulatedClock | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        self.query = query
        self.registry = registry
        self.num_phases = num_phases
        self.output_schema = output_schema
        self.output_sink = output_sink
        self.cost_model = cost_model or CostModel()
        self.metrics = metrics if metrics is not None else ExecutionMetrics()
        self.clock = clock if clock is not None else SimulatedClock(self.cost_model)
        self._touched_entries: set[int] = set()
        self._rehash_cache: dict[tuple[int, str], HashTableState] = {}

    # -- public API -----------------------------------------------------------------

    def run(self) -> StitchUpReport:
        """Evaluate all cross-phase combinations and push results to the sink."""
        relations = list(self.query.relations)
        report = StitchUpReport(num_phases=self.num_phases)
        start_seconds = self.clock.now
        start_work = self.metrics.work(self.cost_model)

        if self.num_phases <= 1:
            report.discarded_tuples = self._untouched_tuples()
            return report

        partitions = {
            relation: self.registry.base_partitions(relation) for relation in relations
        }
        intermediates = self.registry.intermediate_entries()

        for combo in itertools.product(range(self.num_phases), repeat=len(relations)):
            report.combinations_total += 1
            if len(set(combo)) == 1:
                # Exclusion list: matching-superscript combinations were
                # already produced by the phase plans themselves.
                report.combinations_excluded += 1
                report.exclusion_list.append(combo)
                continue
            assignment = dict(zip(relations, combo))
            if self._any_partition_empty(assignment, partitions):
                report.combinations_skipped_empty += 1
                continue
            report.combinations_evaluated += 1
            produced = self._evaluate_combination(assignment, partitions, intermediates)
            report.output_count += produced

        self._charge_clock(start_work)
        report.reused_tuples = self._touched_tuples()
        report.discarded_tuples = self._untouched_tuples()
        report.work_units = self.metrics.work(self.cost_model) - start_work
        report.simulated_seconds = self.clock.now - start_seconds
        return report

    # -- combination evaluation --------------------------------------------------------

    def _any_partition_empty(
        self,
        assignment: dict[str, int],
        partitions: dict[str, dict[int, RegistryEntry]],
    ) -> bool:
        for relation, phase in assignment.items():
            entry = partitions[relation].get(phase)
            if entry is None or entry.cardinality == 0:
                return True
        return False

    def _evaluate_combination(
        self,
        assignment: dict[str, int],
        partitions: dict[str, dict[int, RegistryEntry]],
        intermediates: Sequence[RegistryEntry],
    ) -> int:
        pairs = frozenset(assignment.items())
        seed_entry = self._best_seed(pairs, intermediates, assignment, partitions)
        self._mark_touched(seed_entry)

        current_schema = seed_entry.structure.schema
        current_rows = list(seed_entry.structure.scan())
        self.metrics.tuple_copies += len(current_rows)
        covered = set(rel for rel, _phase in seed_entry.signature)

        remaining = [rel for rel in assignment if rel not in covered]
        while remaining and current_rows:
            next_relation = self._next_connected(covered, remaining)
            if next_relation is None:
                # Should not happen for connected queries; degrade gracefully.
                break
            remaining.remove(next_relation)
            entry = partitions[next_relation][assignment[next_relation]]
            self._mark_touched(entry)
            current_rows, current_schema = self._probe_join(
                current_rows, current_schema, covered, next_relation, entry
            )
            covered.add(next_relation)

        if not current_rows:
            return 0
        adapter = TupleAdapter(current_schema, self.output_schema)
        if not adapter.is_identity:
            current_rows = adapter.adapt_many(current_rows)
        metrics = self.metrics
        sink = self.output_sink
        for row in current_rows:
            metrics.tuples_output += 1
            sink(row)
        return len(current_rows)

    def _best_seed(
        self,
        pairs: frozenset,
        intermediates: Sequence[RegistryEntry],
        assignment: dict[str, int],
        partitions: dict[str, dict[int, RegistryEntry]],
    ) -> RegistryEntry:
        """Largest reusable intermediate covered by this combination, else the
        smallest matching base partition."""
        best: RegistryEntry | None = None
        for entry in intermediates:
            if entry.signature <= pairs:
                if best is None or len(entry.signature) > len(best.signature) or (
                    len(entry.signature) == len(best.signature)
                    and entry.cardinality < best.cardinality
                ):
                    best = entry
        if best is not None:
            return best
        # Fall back to the smallest base partition in the combination.
        candidates = [
            partitions[relation][phase] for relation, phase in assignment.items()
        ]
        return min(candidates, key=lambda e: e.cardinality)

    def _next_connected(self, covered: set[str], remaining: list[str]) -> str | None:
        for relation in remaining:
            if self.query.predicates_between(frozenset(covered), frozenset((relation,))):
                return relation
        return None

    def _probe_join(
        self,
        rows: list[tuple],
        schema: Schema,
        covered: set[str],
        relation: str,
        entry: RegistryEntry,
    ) -> tuple[list[tuple], Schema]:
        """Join the working set with one partition via hash probing."""
        predicates = self.query.predicates_between(frozenset(covered), frozenset((relation,)))
        primary = predicates[0]
        if primary.left_relation == relation:
            partition_attr, current_attr = primary.left_attr, primary.right_attr
        else:
            partition_attr, current_attr = primary.right_attr, primary.left_attr

        table = self._keyed_table(entry, partition_attr)
        current_pos = schema.position(current_attr)
        combined_schema = schema.concat(table.schema)

        residual_fns = []
        for pred in predicates[1:]:
            if pred.left_relation == relation:
                rel_attr, cur_attr = pred.left_attr, pred.right_attr
            else:
                rel_attr, cur_attr = pred.right_attr, pred.left_attr
            left_pos = combined_schema.position(cur_attr)
            right_pos = combined_schema.position(rel_attr)
            residual_fns.append(lambda row, l=left_pos, r=right_pos: row[l] == row[r])

        output: list[tuple] = []
        metrics = self.metrics
        for row in rows:
            metrics.hash_probes += 1
            for match in table.probe(row[current_pos]):
                combined = row + match
                if residual_fns:
                    metrics.predicate_evals += len(residual_fns)
                    if not all(fn(combined) for fn in residual_fns):
                        continue
                metrics.tuple_copies += 1
                output.append(combined)
        return output, combined_schema

    def _keyed_table(self, entry: RegistryEntry, attribute: str) -> HashTableState:
        """Return the partition keyed on ``attribute``, re-hashing if needed."""
        structure = entry.structure
        if isinstance(structure, HashTableState) and structure.key == attribute:
            return structure
        cache_key = (id(structure), attribute)
        cached = self._rehash_cache.get(cache_key)
        if cached is not None:
            return cached
        rehashed = HashTableState(structure.schema, attribute)
        for row in structure.scan():
            rehashed.insert(row)
            self.metrics.hash_inserts += 1
        self._rehash_cache[cache_key] = rehashed
        return rehashed

    # -- accounting -----------------------------------------------------------------

    def _mark_touched(self, entry: RegistryEntry) -> None:
        self._touched_entries.add(id(entry))

    def _touched_tuples(self) -> int:
        return sum(
            entry.cardinality
            for entry in self.registry
            if id(entry) in self._touched_entries
        )

    def _untouched_tuples(self) -> int:
        return sum(
            entry.cardinality
            for entry in self.registry
            if id(entry) not in self._touched_entries
        )

    def _charge_clock(self, start_work: float) -> None:
        delta = self.metrics.work(self.cost_model) - start_work
        if delta > 0:
            self.clock.charge(delta)
