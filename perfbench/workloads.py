"""The benchmark's closed-loop workloads, driven through the public API.

Each workload builds its inputs from the seed in :meth:`setup`, computes
reference answers with :class:`~repro.baselines.static_executor.StaticExecutor`
in :meth:`references`, and hands the runner one *cycle* of requests.  A
request is one callable that returns a :class:`RequestResult`; the runner
times it, checks its answers and checks that its deterministic counts repeat.

All of them run the interpreted batched engine at ``batch_size=64``.  Why each
workload exists is in its class docstring and in ``perfbench/README.md``.
``BENCHMARK.json`` declares every workload except those in :data:`UNDECLARED`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.baselines.static_executor import StaticExecutor
from repro.core.corrective import CorrectiveQueryProcessor
from repro.experiments.common import (
    ExperimentDataset,
    as_remote_sources,
    build_dataset,
)
from repro.experiments.corrective import worst_left_deep_tree
from repro.serving.server import QueryServer
from repro.serving.sharded import ShardedQueryServer
from repro.workloads.queries import query_3a, query_5, query_10a

from perfbench.answers import canonical_answer

BATCH_SIZE = 64
POLLING_INTERVAL = 0.25
QUANTUM_TUPLES = 200
SKEW_Z = 0.5
#: Queries of one serving or sharded wave.
WAVE_SIZE = 12
QUERY_MAKERS = (query_3a, query_10a, query_5)

AnswerKey = tuple[str, str]


@dataclass
class QueryResult:
    """One answered query: where its reference lives and what it returned."""

    answer_key: AnswerKey
    rows: list[tuple]
    names: tuple[str, ...]
    sim_latency: float
    #: counts that must repeat exactly for the same query and seed
    fingerprint: tuple


@dataclass
class RequestResult:
    queries: list[QueryResult]
    #: per-layer counts the program's own reports give, summed by the runner
    counts: dict[str, float] = field(default_factory=dict)
    #: wave-level counts that must repeat exactly
    wave_fingerprint: tuple = ()

    @property
    def fingerprint(self) -> tuple:
        return (tuple(query.fingerprint for query in self.queries), self.wave_fingerprint)


Request = tuple[str, Callable[[], RequestResult]]


def _query_result(dataset: ExperimentDataset, report: Any, sim_latency: float, quanta: int) -> QueryResult:
    return QueryResult(
        answer_key=(dataset.label, report.query_name),
        rows=report.rows,
        names=tuple(report.schema.names),
        sim_latency=sim_latency,
        fingerprint=(
            report.query_name,
            report.num_phases,
            report.reoptimizer_polls,
            report.reused_tuples,
            report.discarded_tuples,
            report.metrics.tuples_read,
            sim_latency,
            quanta,
        ),
    )


def _static_names(query: Any, report: Any) -> tuple[str, ...]:
    """Column names of a static answer; aggregate answers carry no schema
    and are laid out as group attributes, then aggregate aliases."""
    if report.schema is not None:
        return tuple(report.schema.names)
    aggregation = query.aggregation
    return tuple(aggregation.group_attributes) + tuple(
        aggregate.alias for aggregate in aggregation.aggregates
    )


def _phases(queries: list[Any]) -> int:
    return sum(served.report.num_phases for served in queries)


def shard_workers() -> int:
    """Two worker processes, or fewer on a host with fewer usable CPUs."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


class Workload:
    """Base: a name, its parameters, its data and its cycle of requests."""

    name = ""
    queries_per_request = 1

    def __init__(self, scale: float) -> None:
        self.scale = scale

    def params(self) -> dict[str, object]:
        return {
            "scale": self.scale,
            "batch_size": BATCH_SIZE,
            "engine": "interpreted",
            "polling_interval_s": POLLING_INTERVAL,
            "queries": [maker().name for maker in QUERY_MAKERS],
        }

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def datasets(self, state: Any) -> list[ExperimentDataset]:
        raise NotImplementedError

    def references(self, state: Any) -> dict[AnswerKey, Any]:
        """Canonical static-execution answers for every (dataset, query)."""
        answers = {}
        for dataset in self.datasets(state):
            for maker in QUERY_MAKERS:
                query = maker()
                report = StaticExecutor(
                    dataset.catalog_no_statistics, dataset.sources, batch_size=BATCH_SIZE
                ).execute(query)
                answers[(dataset.label, query.name)] = canonical_answer(
                    report.rows, _static_names(query, report)
                )
        return answers

    def cycle(self, state: Any) -> list[Request]:
        raise NotImplementedError


class SoloSwitch(Workload):
    """One corrective query per request, the paper's Fig. 2 setting.

    Requests cycle through {uniform, skewed} x {optimizer plan, worst
    left-deep plan} x {Q3A, Q10A, Q5} with no statistics; most of them switch
    plans, so stitch-up and the engine do most of the work.
    """

    name = "solo-switch"

    def __init__(self, scale: float = 0.01) -> None:
        super().__init__(scale)

    def params(self) -> dict[str, object]:
        return {
            **super().params(),
            "datasets": {"uniform": 0.0, "skewed": SKEW_Z},
            "plans": ["optimizer", "worst_left_deep_tree"],
            "catalog": "no statistics",
            "sources": "local",
        }

    def setup(self, seed: int) -> list[ExperimentDataset]:
        return [
            build_dataset("uniform", self.scale, 0.0, seed),
            build_dataset("skewed", self.scale, SKEW_Z, seed),
        ]

    def datasets(self, state: list[ExperimentDataset]) -> list[ExperimentDataset]:
        return state

    def cycle(self, state: list[ExperimentDataset]) -> list[Request]:
        requests = []
        for dataset in state:
            for plan in ("optimizer", "worst"):
                for maker in QUERY_MAKERS:
                    query = maker()
                    tree = worst_left_deep_tree(query, dataset) if plan == "worst" else None
                    key = f"{dataset.label}/{plan}/{query.name}"
                    requests.append((key, self._request(dataset, query, tree)))
        return requests

    @staticmethod
    def _request(dataset: ExperimentDataset, query: Any, tree: Any) -> Callable[[], RequestResult]:
        def run() -> RequestResult:
            report = CorrectiveQueryProcessor(
                dataset.catalog_no_statistics,
                dataset.sources,
                polling_interval_seconds=POLLING_INTERVAL,
                batch_size=BATCH_SIZE,
            ).execute(query, initial_tree=tree)
            return RequestResult(
                queries=[_query_result(dataset, report, report.simulated_seconds, 0)],
                counts={"corrective.phases": report.num_phases},
            )

        return run


class ServeShared(Workload):
    """One 12-query wave per request on a round-robin ``QueryServer``.

    Every session shares one simulated clock, so each polls its re-optimizer
    several times more often than solo; the re-optimizer, monitor,
    adaptivity kernel and scheduler dominate.  Each wave gets a fresh
    statistics cache; the wireless sources are built once in set-up.
    """

    name = "serve-shared"
    queries_per_request = WAVE_SIZE

    def __init__(self, scale: float = 0.003) -> None:
        super().__init__(scale)

    def params(self) -> dict[str, object]:
        return {
            **super().params(),
            "wave": WAVE_SIZE,
            "policy": "round_robin",
            "quantum_tuples": QUANTUM_TUPLES,
            "catalog": "no statistics",
            "sources": "wireless RemoteSource (as_remote_sources)",
            "stats_cache": "fresh per wave",
        }

    def setup(self, seed: int) -> tuple[ExperimentDataset, dict[str, Any]]:
        dataset = build_dataset("uniform", self.scale, 0.0, seed)
        sources = as_remote_sources(dataset, seed)
        for source in sources.values():
            source.prime()
        return dataset, sources

    def datasets(self, state: tuple[ExperimentDataset, dict[str, Any]]) -> list[ExperimentDataset]:
        return [state[0]]

    def cycle(self, state: tuple[ExperimentDataset, dict[str, Any]]) -> list[Request]:
        dataset, sources = state

        def run() -> RequestResult:
            server = QueryServer(
                dataset.catalog_no_statistics,
                sources,
                policy="round_robin",
                batch_size=BATCH_SIZE,
                quantum_tuples=QUANTUM_TUPLES,
                polling_interval_seconds=POLLING_INTERVAL,
            )
            for index in range(WAVE_SIZE):
                server.submit(QUERY_MAKERS[index % len(QUERY_MAKERS)]())
            report = server.run()
            cache = report.stats_cache_summary
            return RequestResult(
                queries=[
                    _query_result(dataset, served.report, served.latency, served.quanta)
                    for served in report.served
                ],
                counts={
                    "corrective.phases": _phases(report.served),
                    "serving.quanta": report.total_quanta,
                    "serving.clock_wait_sim_s": report.clock_wait_seconds,
                    "stats_cache.seeded": cache.get("queries_seeded", 0),
                    "stats_cache.absorbed": cache.get("queries_absorbed", 0),
                },
                wave_fingerprint=(report.total_quanta, report.clock_wait_seconds),
            )

        return [("wave", run)]


class ShardFanout(Workload):
    """One 12-query wave per request on a fresh ``ShardedQueryServer``.

    Worker processes use the default start method.  With a cardinality
    catalog every plan is single-phase, so stitch-up does no work and the
    engine and shard dispatch (process start, task pickling, result fold) do
    nearly all of it.
    """

    name = "shard-fanout"
    queries_per_request = WAVE_SIZE

    def __init__(self, scale: float = 0.01) -> None:
        super().__init__(scale)

    def params(self) -> dict[str, object]:
        return {
            **super().params(),
            "wave": WAVE_SIZE,
            "workers": shard_workers(),
            "start_method": "default",
            "policy": "round_robin",
            "quantum_tuples": QUANTUM_TUPLES,
            "catalog": "cardinalities",
            "sources": "local",
        }

    def setup(self, seed: int) -> ExperimentDataset:
        return build_dataset("uniform", self.scale, 0.0, seed)

    def datasets(self, state: ExperimentDataset) -> list[ExperimentDataset]:
        return [state]

    def cycle(self, state: ExperimentDataset) -> list[Request]:
        dataset = state
        workers = shard_workers()

        def run() -> RequestResult:
            server = ShardedQueryServer(
                dataset.catalog_with_cardinalities,
                dataset.sources,
                policy="round_robin",
                workers=workers,
                batch_size=BATCH_SIZE,
                quantum_tuples=QUANTUM_TUPLES,
                polling_interval_seconds=POLLING_INTERVAL,
            )
            for index in range(WAVE_SIZE):
                server.submit(QUERY_MAKERS[index % len(QUERY_MAKERS)]())
            report = server.run()
            slowest = max(summary.wall_seconds for summary in report.worker_summaries)
            utilization = report.utilization()
            cache = report.stats_cache_summary
            return RequestResult(
                queries=[
                    _query_result(dataset, served.report, served.latency, served.quanta)
                    for served in report.served
                ],
                counts={
                    "corrective.phases": _phases(report.served),
                    "serving.quanta": report.total_quanta,
                    "stats_cache.seeded": cache.get("queries_seeded", 0),
                    "stats_cache.absorbed": cache.get("queries_absorbed", 0),
                    "shard.waves": 1,
                    "shard.dispatch_s": report.wall_seconds - slowest,
                    "shard.worker_wall_s": sum(
                        summary.wall_seconds for summary in report.worker_summaries
                    ),
                    "shard.worker_busy_s": sum(
                        summary.busy_wall_seconds for summary in report.worker_summaries
                    ),
                    "shard.utilization": sum(utilization.values()) / len(utilization),
                },
                wave_fingerprint=(report.total_quanta,),
            )

        return [("wave", run)]


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (SoloSwitch, ServeShared, ShardFanout)
}
#: Runnable by hand but not declared: on a shared 2-CPU host the wall-clock
#: spread of ``solo-switch`` between runs exceeded the bound on ``qps``.
UNDECLARED = frozenset({SoloSwitch.name})
