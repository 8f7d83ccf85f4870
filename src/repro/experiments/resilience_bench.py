"""Resilience policy-suite benchmark (``resilience-bench``).

Three scenarios, one per leg of the resilience suite layered on the
adaptivity kernel:

* ``failover`` — a three-way join whose remote source ``f`` starts at its
  promised rate and then collapses into a sustained deep outage; a healthy
  mirror is registered for it.  Solo corrective execution with
  ``failover_adaptive=True`` must detect the outage, re-point the running
  cursor at the mirror's resumed stream (partial primary read stitched to
  the mirror's remainder), and finish decisively faster than the static
  twin — with a bit-identical result multiset.
* ``backpressure`` — a serving pool of healthy scan sessions plus one join
  session over a collapsed source.  With ``admission_backpressure=True``
  the flaky session's activation is deferred while the healthy pool
  drains, improving the pool's p95 admission-to-completion latency; every
  session's answers are identical to the baseline run.
* ``rate_seeded`` — the same query submitted twice against a collapsed
  source under ``rate_seeded_plans=True``.  The first session's delivery
  telemetry lands in the shared statistics cache; the repeat must *start*
  on a gating tree (the slow source joins last) instead of discovering the
  collapse mid-flight, again without changing answers.

The acceptance gates — recorded as booleans in the JSON — are a
``>= 1.3x`` simulated-time speedup with at least one mirror failover on
the failover scenario, a strict p95 improvement on the
backpressure scenario, and a gated phase-0 tree for the seeded repeat; all
with result multisets identical to their non-resilient twins.

Used by the ``resilience-bench`` CLI subcommand and by
``benchmarks/test_resilience_bench.py``.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from repro.core.corrective import CorrectiveQueryProcessor
from repro.engine.cost import CostModel
from repro.experiments.common import DEFAULT_SCALE_FACTOR, DEFAULT_SEED
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog, TableStatistics
from repro.relational.expressions import JoinPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.serving.server import QueryServer
from repro.sources.network import ConstantRateNetworkModel, PhasedRateNetworkModel
from repro.sources.remote import RemoteSource

SCENARIOS = ("failover", "backpressure", "rate_seeded")

#: engine configurations the failover scenario runs under (label, batch size)
ENGINE_CONFIGS = (("interpreted", 64),)

#: simulated-time speedup the failover scenario must reach
FAILOVER_SPEEDUP_BAR = 1.3

#: healthy sessions in the backpressure pool (nearest-rank p95 over
#: ``HEALTHY_SESSIONS + 1`` latencies is then the worst *healthy* latency)
HEALTHY_SESSIONS = 20


# ---------------------------------------------------------------------------
# failover: solo corrective execution, dead primary with a healthy mirror
# ---------------------------------------------------------------------------


def _failover_workload(n: int, seed: int, cost_model: CostModel):
    """Three-way join; ``f`` collapses for good, its mirror stays healthy."""
    rng = random.Random(seed * 37 + 1)
    n_f = max(n // 8, 64)
    domain = max(n // 21, 1)

    f_schema = Schema.from_names(["f_k", "f_val"], relation="f")
    l1_schema = Schema.from_names(["l1_k", "l1_pk", "l1_val"], relation="l1")
    l2_schema = Schema.from_names(["l2_fk", "l2_val"], relation="l2")
    f_relation = Relation(
        "f",
        f_schema,
        [(rng.randrange(domain), rng.randrange(1000)) for _ in range(n_f)],
    )
    l1_rows = [(rng.randrange(domain), i, rng.randrange(1000)) for i in range(n)]
    fks = list(range(n))
    rng.shuffle(fks)
    l2_rows = [(fk, rng.randrange(1000)) for fk in fks]

    # Timescale anchor (see rate_bench): schedules are fractions of the
    # local work so the scenario keeps its shape at any --scale.
    work_floor = 9.4 * n * cost_model.seconds_per_unit
    promised = n_f / (0.1 * work_floor)
    primary = RemoteSource(
        f_relation,
        PhasedRateNetworkModel(
            # Healthy start, then a deep sustained trickle: without a
            # failover the remainder arrives ~1000x slower than promised.
            [(0.04 * work_floor, promised), (1000.0 * work_floor, 0.001 * promised)],
            tail_rate=promised,
            latency=0.01 * work_floor,
        ),
        promised_rate=promised,
    )
    mirror = RemoteSource(
        f_relation,
        ConstantRateNetworkModel(promised, latency=0.01 * work_floor),
        name="f_mirror",
        promised_rate=promised,
    )
    primary.register_mirror(mirror)

    sources = {
        "f": primary,
        "l1": Relation("l1", l1_schema, l1_rows),
        "l2": Relation("l2", l2_schema, l2_rows),
    }
    catalog = Catalog()
    catalog.register(
        "f", f_schema, TableStatistics(cardinality=n_f, promised_rate=promised)
    )
    catalog.register("l1", l1_schema, TableStatistics(cardinality=n))
    catalog.register("l2", l2_schema, TableStatistics(cardinality=n))
    query = SPJAQuery(
        "resilience_failover",
        ("f", "l1", "l2"),
        (
            JoinPredicate("f", "f_k", "l1", "l1_k"),
            JoinPredicate("l1", "l1_pk", "l2", "l2_fk"),
        ),
    )
    return query, catalog, sources, work_floor


def _run_failover_side(
    n: int,
    seed: int,
    cost_model: CostModel,
    failover_adaptive: bool,
    batch_size: int,
):
    query, catalog, sources, work_floor = _failover_workload(n, seed, cost_model)
    processor = CorrectiveQueryProcessor(
        catalog,
        sources,
        cost_model,
        polling_interval_seconds=0.03 * work_floor,
        batch_size=batch_size,
        failover_adaptive=failover_adaptive,
        failover_stall_seconds=0.02 * work_floor,
    )
    start = time.perf_counter()
    report = processor.execute(query)
    return report, time.perf_counter() - start


def _failover_scenario(n: int, seed: int, cost_model: CostModel, engine_configs):
    per_mode: dict[str, dict] = {}
    for engine, batch_size in engine_configs:
        static_report, static_wall = _run_failover_side(
            n, seed, cost_model, False, batch_size
        )
        adaptive_report, adaptive_wall = _run_failover_side(
            n, seed, cost_model, True, batch_size
        )
        failovers = adaptive_report.details["adaptation"]["failovers"]
        per_mode[engine] = {
            "batch_size": batch_size,
            "answers": len(adaptive_report.rows),
            "verified_vs_static": Counter(adaptive_report.rows)
            == Counter(static_report.rows),
            "static_seconds": round(static_report.simulated_seconds, 4),
            "adaptive_seconds": round(adaptive_report.simulated_seconds, 4),
            "static_wall_seconds": round(static_wall, 4),
            "adaptive_wall_seconds": round(adaptive_wall, 4),
            "failovers": failovers,
            "failover_fired": bool(failovers),
            "speedup_simulated": round(
                static_report.simulated_seconds
                / max(adaptive_report.simulated_seconds, 1e-9),
                3,
            ),
        }
    return {"tuples_remote": max(n // 8, 64), "modes": per_mode}


# ---------------------------------------------------------------------------
# backpressure + rate_seeded: serving pools over a collapsed source
# ---------------------------------------------------------------------------


def _scan_relation(name: str, rows: int, rng: random.Random) -> Relation:
    schema = Schema.from_names([f"{name}_k", f"{name}_v"], relation=name)
    return Relation(
        name, schema, [(i % 7, rng.randrange(1000)) for i in range(rows)]
    )


def _backpressure_pool(n: int, seed: int):
    """Healthy scan sessions plus one join over a collapsed source."""
    rng = random.Random(seed * 37 + 2)
    rows_healthy = max(n // 50, 40)
    catalog = Catalog()
    sources: dict[str, object] = {}
    queries: list[SPJAQuery] = []
    for index in range(4):
        name = f"h{index}"
        relation = _scan_relation(name, rows_healthy, rng)
        sources[name] = RemoteSource(
            relation,
            ConstantRateNetworkModel(5000.0, latency=0.001),
            promised_rate=5000.0,
        )
        catalog.register(name, relation.schema)
    queries = [
        SPJAQuery(f"scan_{index}", (f"h{index % 4}",), ())
        for index in range(HEALTHY_SESSIONS)
    ]
    flaky = _scan_relation("f", max(rows_healthy // 2, 24), rng)
    big = _scan_relation("g", rows_healthy * 4, rng)
    sources["f"] = RemoteSource(
        flaky,
        PhasedRateNetworkModel(
            [(0.001, 4000.0), (30.0, 1.5)], tail_rate=4000.0, latency=0.0
        ),
        promised_rate=4000.0,
    )
    sources["g"] = RemoteSource(
        big,
        ConstantRateNetworkModel(20000.0, latency=0.0005),
        promised_rate=20000.0,
    )
    catalog.register("f", flaky.schema)
    catalog.register("g", big.schema)
    flaky_query = SPJAQuery(
        "flaky_join", ("f", "g"), (JoinPredicate("f", "f_k", "g", "g_k"),)
    )
    return catalog, sources, queries, flaky_query


def _run_backpressure_side(n: int, seed: int, backpressure: bool):
    catalog, sources, queries, flaky_query = _backpressure_pool(n, seed)
    server = QueryServer(
        catalog,
        sources,
        policy="round_robin",
        batch_size=64,
        quantum_tuples=16,
        admission_backpressure=backpressure,
    )
    for query in queries:
        server.submit(query, admit_at=0.0, label=query.name)
    server.submit(flaky_query, admit_at=0.004, label=flaky_query.name)
    report = server.run()
    answers = {
        served.label: Counter(map(tuple, served.rows)) for served in report.served
    }
    return report, answers


def _backpressure_scenario(n: int, seed: int):
    baseline, baseline_answers = _run_backpressure_side(n, seed, False)
    deferred, deferred_answers = _run_backpressure_side(n, seed, True)
    p95_off = baseline.latency_percentile(0.95)
    p95_on = deferred.latency_percentile(0.95)
    return {
        "sessions": len(baseline.served),
        "verified_vs_baseline": baseline_answers == deferred_answers,
        "deferred_sessions": deferred.backpressure_deferred,
        "p95_off_seconds": round(p95_off, 4),
        "p95_on_seconds": round(p95_on, 4),
        "p50_off_seconds": round(baseline.latency_percentile(0.50), 4),
        "p50_on_seconds": round(deferred.latency_percentile(0.50), 4),
        "p95_improvement": round(p95_off / max(p95_on, 1e-9), 3),
        "p95_improved": p95_on < p95_off,
    }


def _rate_seeded_pool(n: int, seed: int):
    rng = random.Random(seed * 37 + 3)
    n_f = max(n // 200, 24)
    flaky = Relation(
        "f",
        Schema.from_names(["f_k", "f_v"], relation="f"),
        [(i, rng.randrange(1000)) for i in range(n_f)],
    )
    h1 = Relation(
        "h1",
        Schema.from_names(["h1_k", "h1_j"], relation="h1"),
        [(i % n_f, i % 7) for i in range(n_f * 5)],
    )
    h2 = Relation(
        "h2",
        Schema.from_names(["h2_j", "h2_v"], relation="h2"),
        [(i % 7, rng.randrange(1000)) for i in range(n_f * 5)],
    )
    catalog = Catalog()
    catalog.register(
        "f", flaky.schema, TableStatistics(cardinality=n_f, promised_rate=2000.0)
    )
    catalog.register("h1", h1.schema, TableStatistics(cardinality=n_f * 5))
    catalog.register("h2", h2.schema, TableStatistics(cardinality=n_f * 5))
    sources = {
        "f": RemoteSource(
            flaky,
            PhasedRateNetworkModel(
                [(0.001, 2000.0), (3600.0, n_f / 20.0)],
                tail_rate=2000.0,
                latency=0.0,
            ),
            promised_rate=2000.0,
        ),
        "h1": RemoteSource(
            h1, ConstantRateNetworkModel(50000.0, latency=0.0005)
        ),
        "h2": RemoteSource(
            h2, ConstantRateNetworkModel(50000.0, latency=0.0005)
        ),
    }
    shape = (
        ("f", "h1", "h2"),
        (
            JoinPredicate("f", "f_k", "h1", "h1_k"),
            JoinPredicate("h1", "h1_j", "h2", "h2_j"),
        ),
    )
    return catalog, sources, shape


def _run_rate_seeded_side(n: int, seed: int, rate_seeded: bool):
    catalog, sources, (names, predicates) = _rate_seeded_pool(n, seed)
    server = QueryServer(
        catalog,
        sources,
        policy="round_robin",
        batch_size=64,
        quantum_tuples=32,
        rate_seeded_plans=rate_seeded,
    )
    server.submit(SPJAQuery("repeat_0", names, predicates), admit_at=0.0, label="first")
    server.submit(
        SPJAQuery("repeat_1", names, predicates), admit_at=0.05, label="second"
    )
    report = server.run()
    by_label = {served.label: served for served in report.served}
    return report, by_label


def _gates_f_on_top(tree) -> bool:
    return (not tree.is_leaf) and tree.right.is_leaf and tree.right.relation == "f"


def _rate_seeded_scenario(n: int, seed: int):
    _cold_report, cold = _run_rate_seeded_side(n, seed, False)
    _warm_report, warm = _run_rate_seeded_side(n, seed, True)

    canonical = ("f_k", "f_v", "h1_k", "h1_j", "h2_j", "h2_v")

    def answers(by_label):
        # Trees (and hence column layouts) differ between the runs; permute
        # every row into canonical attribute order before comparing.
        result = {}
        for label, served in by_label.items():
            names = tuple(served.schema.names)
            positions = [names.index(name) for name in canonical]
            result[label] = Counter(
                tuple(row[p] for p in positions) for row in served.rows
            )
        return result

    repeat_cold = cold["second"]
    repeat_warm = warm["second"]
    return {
        "remote_tuples": max(n // 200, 24),
        "verified_vs_unseeded": answers(cold) == answers(warm),
        "cold_repeat_gated": _gates_f_on_top(
            repeat_cold.report.phases[0].join_tree
        ),
        "seeded_repeat_gated": _gates_f_on_top(
            repeat_warm.report.phases[0].join_tree
        ),
        "cold_repeat_seconds": round(repeat_cold.latency, 4),
        "seeded_repeat_seconds": round(repeat_warm.latency, 4),
        "seeded_not_slower": repeat_warm.latency
        <= repeat_cold.latency * 1.01 + 1e-9,
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_resilience_benchmark(
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    seed: int = DEFAULT_SEED,
    scenarios=SCENARIOS,
    engine_configs=ENGINE_CONFIGS,
) -> dict:
    """Run the three resilience scenarios; JSON record with gate booleans."""
    cost_model = CostModel()
    n = max(int(3_000_000 * scale_factor), 2000)
    results: dict[str, dict] = {}
    if "failover" in scenarios:
        results["failover"] = _failover_scenario(n, seed, cost_model, engine_configs)
    if "backpressure" in scenarios:
        results["backpressure"] = _backpressure_scenario(n, seed)
    if "rate_seeded" in scenarios:
        results["rate_seeded"] = _rate_seeded_scenario(n, seed)

    failover_ok = all(
        mode["failover_fired"]
        and mode["speedup_simulated"] >= FAILOVER_SPEEDUP_BAR
        for mode in results.get("failover", {}).get("modes", {}).values()
    )
    backpressure_ok = results.get("backpressure", {}).get("p95_improved", True)
    rate_seeded = results.get("rate_seeded", {})
    rate_seeded_ok = rate_seeded.get("seeded_repeat_gated", True) and not rate_seeded.get(
        "cold_repeat_gated", False
    )
    verifications = [
        mode["verified_vs_static"]
        for mode in results.get("failover", {}).get("modes", {}).values()
    ]
    if "backpressure" in results:
        verifications.append(results["backpressure"]["verified_vs_baseline"])
    if "rate_seeded" in results:
        verifications.append(results["rate_seeded"]["verified_vs_unseeded"])
    return {
        "benchmark": "resilience_bench",
        "scale_factor": scale_factor,
        "seed": seed,
        "failover_speedup_bar": FAILOVER_SPEEDUP_BAR,
        "scenarios": results,
        "all_verified": all(verifications),
        "failover_ok": failover_ok,
        "backpressure_ok": bool(backpressure_ok),
        "rate_seeded_ok": bool(rate_seeded_ok),
    }


def resilience_bench_rows(result: dict) -> list[dict[str, object]]:
    """One row per scenario (per engine configuration for failover) for ``format_table``."""
    rows: list[dict[str, object]] = []
    scenarios = result["scenarios"]
    for engine, mode in scenarios.get("failover", {}).get("modes", {}).items():
        rows.append(
            {
                "scenario": "failover",
                "engine": engine,
                "baseline_s": mode["static_seconds"],
                "resilient_s": mode["adaptive_seconds"],
                "improvement": f"{mode['speedup_simulated']}x",
                "fired": mode["failover_fired"],
                "verified": mode["verified_vs_static"],
            }
        )
    if "backpressure" in scenarios:
        stats = scenarios["backpressure"]
        rows.append(
            {
                "scenario": "backpressure",
                "engine": "serving",
                "baseline_s": stats["p95_off_seconds"],
                "resilient_s": stats["p95_on_seconds"],
                "improvement": f"{stats['p95_improvement']}x p95",
                "fired": bool(stats["deferred_sessions"]),
                "verified": stats["verified_vs_baseline"],
            }
        )
    if "rate_seeded" in scenarios:
        stats = scenarios["rate_seeded"]
        rows.append(
            {
                "scenario": "rate_seeded",
                "engine": "serving",
                "baseline_s": stats["cold_repeat_seconds"],
                "resilient_s": stats["seeded_repeat_seconds"],
                "improvement": "gated start",
                "fired": stats["seeded_repeat_gated"],
                "verified": stats["verified_vs_unseeded"],
            }
        )
    return rows
