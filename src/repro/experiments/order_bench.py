"""Order-adaptivity benchmark (``order-bench``).

Runs a two-source equi-join over five source mixes — fully sorted with and
without a catalog promise, near-sorted (2% adjacent perturbation), fully
unordered, and a *lying promise* (shuffled data behind a sorted-on claim) —
once with the plain hash-only corrective processor and once with
order-adaptive join processing enabled, on identical data.

Reported per scenario: simulated seconds, work units, phase count, the
physical join algorithm each phase ran, and the peak resident join state.
The acceptance story (recorded as booleans in the JSON):

* on sorted inputs the adaptive system selects — or, without a promise,
  switches to mid-flight — the merge strategy and beats hash-only on both
  simulated seconds and peak state size;
* on unordered inputs it keeps (or reverts to costing) hash, staying within
  noise of the hash-only baseline;
* every adaptive run's result multiset is identical to its hash-only twin.

Used by the ``order-bench`` CLI subcommand and by
``benchmarks/test_order_bench.py``.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from repro.core.corrective import CorrectiveQueryProcessor
from repro.experiments.common import DEFAULT_SCALE_FACTOR, DEFAULT_SEED
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog, TableStatistics
from repro.relational.expressions import JoinPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema

#: scenario → (sort the data?, perturb fraction, promise sorted_on?)
SCENARIOS = {
    "sorted_promised": (True, 0.0, True),
    "sorted_detected": (True, 0.0, False),
    "near_sorted": (True, 0.02, False),
    "unordered": (False, 0.0, False),
    "lying_promise": (False, 0.0, True),
}

#: re-optimization poll interval — early enough that runtime order detection
#: can still switch strategies while most of the input remains
POLLING_INTERVAL = 0.01
POLL_STEP_LIMIT = 200


def _rows_for(n: int, rng: random.Random, key_sorted: bool, perturb: float, fk: bool):
    if fk:
        rows = [(rng.randrange(n), rng.randrange(1000)) for _ in range(n)]
    else:
        rows = [(i, rng.randrange(1000)) for i in range(n)]
    if key_sorted:
        rows.sort(key=lambda row: row[0])
        if perturb > 0:
            for _ in range(max(1, int(n * perturb))):
                i = rng.randrange(n - 1)
                rows[i], rows[i + 1] = rows[i + 1], rows[i]
    else:
        rng.shuffle(rows)
    return rows


def _build_scenario(n: int, seed: int, scenario: str):
    key_sorted, perturb, promised = SCENARIOS[scenario]
    # str hashes are randomized per process; index by position for determinism.
    rng = random.Random(seed * 31 + list(SCENARIOS).index(scenario))
    r_schema = Schema.from_names(["r_pk", "r_val"], relation="r")
    s_schema = Schema.from_names(["s_fk", "s_val"], relation="s")
    sources = {
        "r": Relation("r", r_schema, _rows_for(n, rng, key_sorted, perturb, fk=False)),
        "s": Relation("s", s_schema, _rows_for(n, rng, key_sorted, perturb, fk=True)),
    }
    catalog = Catalog()
    domain = (0.0, float(n - 1))
    catalog.register(
        "r",
        r_schema,
        TableStatistics(
            sorted_on=("r_pk",) if promised else (),
            attribute_ranges={"r_pk": domain},
        ),
    )
    catalog.register(
        "s",
        s_schema,
        TableStatistics(
            sorted_on=("s_fk",) if promised else (),
            attribute_ranges={"s_fk": domain},
        ),
    )
    query = SPJAQuery(
        f"order_{scenario}", ("r", "s"), (JoinPredicate("s", "s_fk", "r", "r_pk"),)
    )
    return query, catalog, sources


def _run(query, catalog, sources, order_adaptive: bool, batch_size: int | None):
    processor = CorrectiveQueryProcessor(
        catalog,
        sources,
        polling_interval_seconds=POLLING_INTERVAL,
        batch_size=batch_size,
        order_adaptive=order_adaptive,
    )
    start = time.perf_counter()
    report = processor.execute(query, poll_step_limit=POLL_STEP_LIMIT)
    wall = time.perf_counter() - start
    return report, wall


def run_order_benchmark(
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    seed: int = DEFAULT_SEED,
    batch_size: int | None = None,
    scenarios=tuple(SCENARIOS),
) -> dict:
    """Run every scenario adaptive-vs-hash; returns a JSON-ready record."""
    n = max(int(1_000_000 * scale_factor), 600)
    results: dict[str, dict] = {}
    for scenario in scenarios:
        query, catalog, sources = _build_scenario(n, seed, scenario)
        hash_report, hash_wall = _run(query, catalog, sources, False, batch_size)
        adaptive_report, adaptive_wall = _run(query, catalog, sources, True, batch_size)
        merge_phases = [
            algorithms
            for algorithms in adaptive_report.details["phase_join_algorithms"]
            if "merge" in algorithms.values()
        ]
        results[scenario] = {
            "tuples_per_source": n,
            "answers": len(adaptive_report.rows),
            "verified_vs_hash": Counter(adaptive_report.rows)
            == Counter(hash_report.rows),
            "hash": {
                "simulated_seconds": round(hash_report.simulated_seconds, 4),
                "work_units": round(hash_report.work(), 1),
                "phases": hash_report.num_phases,
                "peak_state_tuples": hash_report.details["peak_state_tuples"],
                "wall_seconds": round(hash_wall, 4),
            },
            "adaptive": {
                "simulated_seconds": round(adaptive_report.simulated_seconds, 4),
                "work_units": round(adaptive_report.work(), 1),
                "phases": adaptive_report.num_phases,
                "peak_state_tuples": adaptive_report.details["peak_state_tuples"],
                "wall_seconds": round(adaptive_wall, 4),
                "phase_join_algorithms": adaptive_report.details[
                    "phase_join_algorithms"
                ],
            },
            "merge_used": bool(merge_phases),
            "speedup_simulated": round(
                hash_report.simulated_seconds
                / max(adaptive_report.simulated_seconds, 1e-9),
                3,
            ),
            "state_reduction": round(
                hash_report.details["peak_state_tuples"]
                / max(adaptive_report.details["peak_state_tuples"], 1),
                3,
            ),
        }

    sorted_wins = all(
        results[name]["merge_used"]
        and results[name]["speedup_simulated"] > 1.0
        and results[name]["state_reduction"] > 1.0
        for name in ("sorted_promised", "sorted_detected")
        if name in results
    )
    return {
        "benchmark": "order_bench",
        "scale_factor": scale_factor,
        "seed": seed,
        "batch_size": batch_size,
        "polling_interval_seconds": POLLING_INTERVAL,
        "poll_step_limit": POLL_STEP_LIMIT,
        "scenarios": results,
        "all_verified": all(r["verified_vs_hash"] for r in results.values()),
        "sorted_scenarios_beat_hash": sorted_wins,
    }


def order_bench_rows(result: dict) -> list[dict[str, object]]:
    """One row per scenario for ``format_table``."""
    rows = []
    for scenario, stats in result["scenarios"].items():
        rows.append(
            {
                "scenario": scenario,
                "hash_s": stats["hash"]["simulated_seconds"],
                "adaptive_s": stats["adaptive"]["simulated_seconds"],
                "speedup": stats["speedup_simulated"],
                "hash_peak_state": stats["hash"]["peak_state_tuples"],
                "adaptive_peak_state": stats["adaptive"]["peak_state_tuples"],
                "phases": stats["adaptive"]["phases"],
                "merge_used": stats["merge_used"],
                "verified": stats["verified_vs_hash"],
            }
        )
    return rows
