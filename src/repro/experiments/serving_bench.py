"""Throughput benchmark for the multi-query serving layer (``serve-bench``).

Admits N concurrent instances of the paper's evaluation queries (cycling
through Q3A, Q10A and Q5) to a :class:`~repro.serving.server.QueryServer`
over one shared TPC-H dataset, once per scheduling policy, and reports
queries/sec plus p50/p95 simulated latency.  Every served query is verified
against its solo corrective execution: the result multisets must be
identical — concurrency may change timing and plan choices, never answers.

Used by the ``serve-bench`` CLI subcommand and by
``benchmarks/test_serve_bench.py``.
"""

from __future__ import annotations

import os
import time
from collections import Counter

from repro.core.corrective import CorrectiveQueryProcessor
from repro.experiments.common import (
    DEFAULT_SCALE_FACTOR,
    DEFAULT_SEED,
    ExperimentDataset,
    as_remote_sources,
    build_dataset,
)
from repro.serving.server import QueryServer
from repro.serving.sharded import ShardedQueryServer
from repro.workloads.queries import query_3a, query_5, query_10a

#: Policies every serve-bench run measures.
DEFAULT_POLICIES = ("round_robin", "shortest_remaining_cost")
#: Re-optimization poll interval, matching the corrective experiments.
POLLING_INTERVAL = 0.25
#: Scheduling quantum (source tuples per grant).
QUANTUM_TUPLES = 200
#: Worker counts the sharded scaling sweep measures.
DEFAULT_WORKER_COUNTS = (1, 2, 4)
#: The scaling gate: 4-worker wall-clock throughput must beat 1-worker by
#: this factor — enforced only where the host genuinely has ≥ 4 CPUs.
SCALING_GATE_THRESHOLD = 2.5


def _bench_queries(num_queries: int):
    """``num_queries`` instances cycling through the paper's SPJA queries."""
    makers = (query_3a, query_10a, query_5)
    return [makers[index % len(makers)]() for index in range(num_queries)]


def _canonical_multiset(rows, schema) -> Counter:
    """Multiset of rows keyed by attribute name, robust to column order."""
    if schema is None:
        return Counter(rows)
    names = tuple(sorted(schema.names))
    positions = [schema.names.index(name) for name in names]
    return Counter(tuple(row[p] for p in positions) for row in rows)


def run_serving_benchmark(
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    seed: int = DEFAULT_SEED,
    num_queries: int = 8,
    batch_size: int | None = None,
    policies=DEFAULT_POLICIES,
    wireless: bool = False,
    verify: bool = True,
    dataset: ExperimentDataset | None = None,
) -> dict:
    """Run the serving benchmark; returns a JSON-ready result dictionary.

    ``verify=True`` additionally executes every query solo (same processor
    configuration, fresh catalog, shared source objects) and asserts the
    served result multiset matches — the serving layer's correctness bar.
    """
    if num_queries < 1:
        raise ValueError("num_queries must be positive")
    dataset = dataset or build_dataset("uniform", scale_factor, 0.0, seed)
    sources = as_remote_sources(dataset, seed) if wireless else dataset.sources
    queries = _bench_queries(num_queries)

    solo_multisets: list[Counter] = []
    solo_wall = 0.0
    if verify:
        start = time.perf_counter()
        for query in queries:
            report = CorrectiveQueryProcessor(
                dataset.catalog_no_statistics.copy(),
                sources,
                polling_interval_seconds=POLLING_INTERVAL,
                batch_size=batch_size,
            ).execute(query, poll_step_limit=QUANTUM_TUPLES)
            solo_multisets.append(_canonical_multiset(report.rows, report.schema))
        solo_wall = time.perf_counter() - start

    policy_results: dict[str, dict] = {}
    for policy in policies:
        server = QueryServer(
            dataset.catalog_no_statistics,
            sources,
            policy=policy,
            batch_size=batch_size,
            quantum_tuples=QUANTUM_TUPLES,
            polling_interval_seconds=POLLING_INTERVAL,
        )
        for index, query in enumerate(queries):
            server.submit(query, label=f"q{index}:{query.name}")
        start = time.perf_counter()
        report = server.run()
        wall = time.perf_counter() - start

        mismatches = []
        if verify:
            for index, served in enumerate(report.served):
                served_multiset = _canonical_multiset(served.rows, served.schema)
                if served_multiset != solo_multisets[index]:
                    mismatches.append(served.label)
        policy_results[policy] = {
            **report.aggregate_summary(),
            "batch_size": batch_size,
            "wall_seconds": round(wall, 4),
            "clock_wait_seconds": round(report.clock_wait_seconds, 4),
            "stats_cache": report.stats_cache_summary,
            "per_query": report.summary_rows(),
            "verified_vs_solo": bool(verify) and not mismatches,
            "mismatched_queries": mismatches,
        }

    return {
        "benchmark": "serve_bench",
        "scale_factor": scale_factor,
        "seed": seed,
        "num_queries": num_queries,
        "batch_size": batch_size,
        "wireless": wireless,
        "quantum_tuples": QUANTUM_TUPLES,
        "polling_interval_seconds": POLLING_INTERVAL,
        "queries": [query.name for query in queries],
        "solo_verification": {
            "enabled": bool(verify),
            "wall_seconds": round(solo_wall, 4),
        },
        "policies": policy_results,
    }


def run_sharded_serving_benchmark(
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    seed: int = DEFAULT_SEED,
    num_queries: int = 8,
    batch_size: int | None = None,
    policy: str = "round_robin",
    workers=DEFAULT_WORKER_COUNTS,
    wireless: bool = False,
    verify: bool = True,
    dataset: ExperimentDataset | None = None,
    start_method: str | None = None,
) -> dict:
    """The worker-count scaling sweep of the sharded serving tier.

    Runs the same query mix once per worker count on a
    :class:`~repro.serving.sharded.ShardedQueryServer` and records the
    scaling curve: wall-clock throughput (the number the extra processes
    actually improve), simulated p50/p95 latency (identical at every worker
    count — the determinism contract), per-worker utilization, and an
    answers-verified flag against solo corrective execution.

    The result carries a ``scaling_gate`` record: on hosts with ≥ 4 CPUs
    (and 1 and 4 both measured) the 4-worker wall-clock throughput must be
    at least :data:`SCALING_GATE_THRESHOLD`× the 1-worker run's at equal,
    verified answers.  On smaller hosts the gate reports not-applicable
    instead of failing — there is no parallel speedup to be had on one core.
    """
    if num_queries < 1:
        raise ValueError("num_queries must be positive")
    worker_counts = sorted(set(int(count) for count in workers))
    if not worker_counts or worker_counts[0] < 1:
        raise ValueError("workers must be positive integers")
    dataset = dataset or build_dataset("uniform", scale_factor, 0.0, seed)
    sources = as_remote_sources(dataset, seed) if wireless else dataset.sources
    queries = _bench_queries(num_queries)

    solo_multisets: list[Counter] = []
    solo_wall = 0.0
    if verify:
        start = time.perf_counter()
        for query in queries:
            report = CorrectiveQueryProcessor(
                dataset.catalog_no_statistics.copy(),
                sources,
                polling_interval_seconds=POLLING_INTERVAL,
                batch_size=batch_size,
            ).execute(query, poll_step_limit=QUANTUM_TUPLES)
            solo_multisets.append(_canonical_multiset(report.rows, report.schema))
        solo_wall = time.perf_counter() - start

    sweep: dict[str, dict] = {}
    wall_by_workers: dict[int, float] = {}
    verified_by_workers: dict[int, bool] = {}
    for worker_count in worker_counts:
        server = ShardedQueryServer(
            dataset.catalog_no_statistics,
            sources,
            policy=policy,
            workers=worker_count,
            batch_size=batch_size,
            quantum_tuples=QUANTUM_TUPLES,
            polling_interval_seconds=POLLING_INTERVAL,
            start_method=start_method,
        )
        for index, query in enumerate(queries):
            server.submit(query, label=f"q{index}:{query.name}")
        start = time.perf_counter()
        report = server.run()
        wall = time.perf_counter() - start

        mismatches = []
        if verify:
            for index, served in enumerate(report.served):
                served_multiset = _canonical_multiset(
                    served.rows, served.report.schema
                )
                if served_multiset != solo_multisets[index]:
                    mismatches.append(served.label)
        verified = bool(verify) and not mismatches
        wall_by_workers[worker_count] = wall
        verified_by_workers[worker_count] = verified
        sweep[str(worker_count)] = {
            **report.aggregate_summary(),
            "workers": worker_count,
            "start_method": report.start_method,
            "batch_size": batch_size,
            "wall_seconds": round(wall, 4),
            "wall_qps": round(num_queries / wall, 4) if wall > 0 else 0.0,
            "utilization": {
                str(worker_id): round(value, 4)
                for worker_id, value in report.utilization().items()
            },
            "worker_summaries": [
                summary.summary() for summary in report.worker_summaries
            ],
            "stats_cache": report.stats_cache_summary,
            "verified_vs_solo": verified,
            "mismatched_queries": mismatches,
        }

    base = worker_counts[0]
    speedups = {
        str(worker_count): round(
            wall_by_workers[base] / wall_by_workers[worker_count], 4
        )
        if wall_by_workers[worker_count] > 0
        else 0.0
        for worker_count in worker_counts
    }
    cpu_count = os.cpu_count() or 1
    gate_applicable = (
        1 in worker_counts
        and 4 in worker_counts
        and cpu_count >= 4
        and all(verified_by_workers.values())
    )
    speedup_4v1 = (
        round(wall_by_workers[1] / wall_by_workers[4], 4)
        if 1 in worker_counts and 4 in worker_counts and wall_by_workers[4] > 0
        else None
    )
    scaling_gate = {
        "threshold": SCALING_GATE_THRESHOLD,
        "cpu_count": cpu_count,
        "applicable": gate_applicable,
        "speedup_4v1": speedup_4v1,
        "passed": (
            (speedup_4v1 is not None and speedup_4v1 >= SCALING_GATE_THRESHOLD)
            if gate_applicable
            else None
        ),
        "reason": (
            "gated"
            if gate_applicable
            else (
                f"not applicable: cpu_count={cpu_count}, "
                f"workers={worker_counts}, "
                f"all_verified={all(verified_by_workers.values())}"
            )
        ),
    }

    return {
        "benchmark": "shard_bench",
        "scale_factor": scale_factor,
        "seed": seed,
        "num_queries": num_queries,
        "batch_size": batch_size,
        "policy": policy,
        "wireless": wireless,
        "quantum_tuples": QUANTUM_TUPLES,
        "polling_interval_seconds": POLLING_INTERVAL,
        "queries": [query.name for query in queries],
        "worker_counts": worker_counts,
        "solo_verification": {
            "enabled": bool(verify),
            "wall_seconds": round(solo_wall, 4),
        },
        "workers": sweep,
        "speedup_base_workers": base,
        "speedups": speedups,
        "scaling_gate": scaling_gate,
    }


def sharded_summary_rows(result: dict) -> list[dict[str, object]]:
    """One row per worker count for ``format_table``."""
    rows = []
    for worker_count in result["worker_counts"]:
        stats = result["workers"][str(worker_count)]
        rows.append(
            {
                "workers": worker_count,
                "wall_s": stats["wall_seconds"],
                "wall_qps": stats["wall_qps"],
                "speedup": result["speedups"][str(worker_count)],
                "p50_latency_s": stats["p50_latency_seconds"],
                "p95_latency_s": stats["p95_latency_seconds"],
                "min_utilization": min(
                    stats["utilization"].values(), default=0.0
                ),
                "verified_vs_solo": stats["verified_vs_solo"],
            }
        )
    return rows


def serving_summary_rows(result: dict) -> list[dict[str, object]]:
    """One row per policy for ``format_table``."""
    rows = []
    for policy, stats in result["policies"].items():
        rows.append(
            {
                "policy": policy,
                "queries": stats["queries"],
                "throughput_qps": stats["throughput_qps"],
                "p50_latency_s": stats["p50_latency_seconds"],
                "p95_latency_s": stats["p95_latency_seconds"],
                "makespan_s": stats["makespan_seconds"],
                "verified_vs_solo": stats["verified_vs_solo"],
            }
        )
    return rows


def serving_per_query_rows(result: dict, policy: str) -> list[dict[str, object]]:
    return result["policies"][policy]["per_query"]
