"""Source-rate adaptivity benchmark (``rate-bench``).

Three-source join — a remote source ``f`` behind a rate-promising but
misbehaving link, and two local relations ``l1``, ``l2`` — executed once
with the plain corrective processor and once with ``rate_adaptive=True``,
on identical data, under three delivery pathologies:

* ``slow`` — ``f`` trickles at 2% of its promised rate for roughly the
  duration of the local work, then recovers and delivers the backlog;
* ``bursty`` — ``f`` alternates silent outages with short full-rate bursts;
* ``flaky`` — ``f`` starts at its promised rate, goes silent mid-stream,
  then recovers.

The initial plan joins ``f`` first — the natural choice when the promise is
believed, and a fine plan when ``f`` actually delivers.  ``f ⋈ l1`` is
multiplicative (each ``f`` tuple fans out), so that plan funnels a large
share of the total work *through* ``f``'s tuples: work that cannot start
until they arrive.  The alternative plan joins ``l1 ⋈ l2`` first and gates
``f`` at the top; its total work is nearly identical (within the plain
re-optimizer's switch threshold, so the work-only model rightly never
switches), but almost all of it is *maskable* — chargeable while ``f``
stalls.  Only the source-rate policy sees that distinction: it detects the
collapse against the catalog's ``promised_rate``, demotes ``f`` in the read
schedule, and switches to the gating plan, converting post-arrival work
into overlapped work.

Reported per scenario and engine configuration (interpreted, batched):
simulated seconds static vs adaptive, the speedup, whether the rate policy
fired, and result-multiset equality (rate adaptivity must never change
answers).  The acceptance gate — recorded as booleans in the JSON — is a
``>= 1.3×`` simulated-time speedup on the slow and bursty workloads with
identical answers.

Used by the ``rate-bench`` CLI subcommand and by
``benchmarks/test_rate_bench.py``.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from repro.core.corrective import CorrectiveQueryProcessor
from repro.engine.cost import CostModel
from repro.experiments.common import DEFAULT_SCALE_FACTOR, DEFAULT_SEED
from repro.optimizer.plans import JoinTree
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog, TableStatistics
from repro.relational.expressions import JoinPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.network import PhasedRateNetworkModel
from repro.sources.remote import RemoteSource

SCENARIOS = ("slow", "bursty", "flaky")

#: engine configurations every scenario runs under (label, batch size)
ENGINE_CONFIGS = (("interpreted", 64),)

#: fan-out of the multiplicative ``f ⋈ l1`` join
FANOUT = 21

#: how hard it is for the *plain* re-optimizer to switch in these runs; the
#: two candidate plans are within ~20% of each other on total work, so with
#: this threshold the work-only model keeps the initial plan (correctly, by
#: its own lights) in both the static and the adaptive configuration
SWITCH_THRESHOLD = 0.7


def _build_workload(n: int, seed: int, scenario: str, cost_model: CostModel):
    """One scenario's query, catalog, sources and forced initial tree."""
    rng = random.Random(seed * 31 + SCENARIOS.index(scenario))
    n_f = max(n // 8, 64)
    domain = max(n // FANOUT, 1)

    f_schema = Schema.from_names(["f_k", "f_val"], relation="f")
    l1_schema = Schema.from_names(["l1_k", "l1_pk", "l1_val"], relation="l1")
    l2_schema = Schema.from_names(["l2_fk", "l2_val"], relation="l2")
    f_rows = [(rng.randrange(domain), rng.randrange(1000)) for _ in range(n_f)]
    l1_rows = [
        (rng.randrange(domain), i, rng.randrange(1000)) for i in range(n)
    ]
    fks = list(range(n))
    rng.shuffle(fks)
    l2_rows = [(fk, rng.randrange(1000)) for fk in fks]

    # Timescale anchor: the gating plan's maskable work is ~9.4 units per
    # local tuple (reads + l1⋈l2 inserts/probes/copies + probe side of the
    # top node), so the arrival schedules below are expressed as fractions
    # of that — the benchmark keeps its shape at any --scale.
    work_floor = 9.4 * n * cost_model.seconds_per_unit
    promised = n_f / (0.1 * work_floor)
    if scenario == "slow":
        phases = [(1.0 * work_floor, 0.02 * promised)]
    elif scenario == "bursty":
        phases = [(0.22 * work_floor, 0.0), (0.03 * work_floor, promised)] * 4
    else:  # flaky: healthy start, long mid-stream outage, recovery
        phases = [(0.04 * work_floor, promised), (0.9 * work_floor, 0.0)]
    network = PhasedRateNetworkModel(
        phases, tail_rate=promised, latency=0.01 * work_floor
    )

    sources = {
        "f": RemoteSource(
            Relation("f", f_schema, f_rows), network, promised_rate=promised
        ),
        "l1": Relation("l1", l1_schema, l1_rows),
        "l2": Relation("l2", l2_schema, l2_rows),
    }
    catalog = Catalog()
    catalog.register(
        "f",
        f_schema,
        TableStatistics(cardinality=n_f, promised_rate=promised),
    )
    catalog.register("l1", l1_schema, TableStatistics(cardinality=n))
    catalog.register("l2", l2_schema, TableStatistics(cardinality=n))
    query = SPJAQuery(
        f"rate_{scenario}",
        ("f", "l1", "l2"),
        (
            JoinPredicate("f", "f_k", "l1", "l1_k"),
            JoinPredicate("l1", "l1_pk", "l2", "l2_fk"),
        ),
    )
    # The promise-trusting plan: join the "fast" remote source first.
    initial_tree = JoinTree.join(
        JoinTree.join(JoinTree.leaf("f"), JoinTree.leaf("l1")), JoinTree.leaf("l2")
    )
    return query, catalog, sources, initial_tree, work_floor


def _run(
    query,
    catalog,
    sources,
    initial_tree,
    rate_adaptive: bool,
    batch_size: int,
    polling_interval: float,
    cost_model: CostModel,
):
    processor = CorrectiveQueryProcessor(
        catalog,
        sources,
        cost_model,
        polling_interval_seconds=polling_interval,
        switch_threshold=SWITCH_THRESHOLD,
        batch_size=batch_size,
        rate_adaptive=rate_adaptive,
    )
    start = time.perf_counter()
    report = processor.execute(query, initial_tree=initial_tree)
    wall = time.perf_counter() - start
    return report, wall


def _side(report, wall: float) -> dict:
    adaptation = report.details.get("adaptation", {})
    return {
        "simulated_seconds": round(report.simulated_seconds, 4),
        "wait_seconds": round(report.wait_seconds, 4),
        "work_units": round(report.work(), 1),
        "phases": report.num_phases,
        "wall_seconds": round(wall, 4),
        "switches": adaptation.get("switches", []),
        "reprioritizations": adaptation.get("reprioritizations", 0),
    }


def run_rate_benchmark(
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    seed: int = DEFAULT_SEED,
    scenarios=SCENARIOS,
    engine_configs=ENGINE_CONFIGS,
) -> dict:
    """Run every scenario × engine config, adaptive vs static; JSON record."""
    cost_model = CostModel()
    n = max(int(3_000_000 * scale_factor), 2000)
    results: dict[str, dict] = {}
    for scenario in scenarios:
        per_mode: dict[str, dict] = {}
        for engine, batch_size in engine_configs:
            query, catalog, sources, initial_tree, work_floor = _build_workload(
                n, seed, scenario, cost_model
            )
            # Poll early relative to the workload's timescale: rate collapse
            # is detectable within the first few percent of the run, and an
            # early switch keeps the abandoned phase's partitions (and hence
            # the stitch-up) small.
            polling_interval = 0.03 * work_floor
            static_report, static_wall = _run(
                query, catalog, sources, initial_tree,
                False, batch_size, polling_interval, cost_model,
            )
            adaptive_report, adaptive_wall = _run(
                query, catalog, sources, initial_tree,
                True, batch_size, polling_interval, cost_model,
            )
            rate_switches = [
                switch
                for switch in adaptive_report.details["adaptation"]["switches"]
                if switch["policy"] == "source_rate"
            ]
            per_mode[engine] = {
                "batch_size": batch_size,
                "answers": len(adaptive_report.rows),
                "verified_vs_static": Counter(adaptive_report.rows)
                == Counter(static_report.rows),
                "static": _side(static_report, static_wall),
                "adaptive": _side(adaptive_report, adaptive_wall),
                "rate_switch_fired": bool(rate_switches),
                "speedup_simulated": round(
                    static_report.simulated_seconds
                    / max(adaptive_report.simulated_seconds, 1e-9),
                    3,
                ),
            }
        results[scenario] = {
            "tuples_local": n,
            "tuples_remote": max(n // 8, 64),
            "modes": per_mode,
        }

    def gate(scenario: str) -> bool:
        if scenario not in results:
            return True
        return all(
            mode["speedup_simulated"] >= 1.3 and mode["rate_switch_fired"]
            for mode in results[scenario]["modes"].values()
        )

    all_verified = all(
        mode["verified_vs_static"]
        for stats in results.values()
        for mode in stats["modes"].values()
    )
    return {
        "benchmark": "rate_bench",
        "scale_factor": scale_factor,
        "seed": seed,
        "fanout": FANOUT,
        "switch_threshold": SWITCH_THRESHOLD,
        "scenarios": results,
        "all_verified": all_verified,
        "slow_bursty_speedup_ok": gate("slow") and gate("bursty"),
    }


def rate_bench_rows(result: dict) -> list[dict[str, object]]:
    """One row per scenario × engine configuration for ``format_table``."""
    rows = []
    for scenario, stats in result["scenarios"].items():
        for engine, mode in stats["modes"].items():
            rows.append(
                {
                    "scenario": scenario,
                    "engine": engine,
                    "static_s": mode["static"]["simulated_seconds"],
                    "adaptive_s": mode["adaptive"]["simulated_seconds"],
                    "speedup": mode["speedup_simulated"],
                    "static_phases": mode["static"]["phases"],
                    "adaptive_phases": mode["adaptive"]["phases"],
                    "rate_switch": mode["rate_switch_fired"],
                    "verified": mode["verified_vs_static"],
                }
            )
    return rows
