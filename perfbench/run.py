"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload serve-shared --seed 2004 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced cycles of requests with cycles that run
with span wrappers on every layer's entry point, and prints the per-layer
metrics.  Either way the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
metrics for people, with the environment they were measured in.  ``--out
PATH`` also writes the full record, environment included, to ``PATH``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run, each ending with one unmeasured warm-up request;
#: ``setup_s`` is their median.
SETUP_REPEATS = 3
DEFAULT_SEED = 2004
DEFAULT_SECONDS = 50


class NondeterminismError(RuntimeError):
    """A count that must repeat for the same query and seed did not."""


class DeterminismCheck:
    """First fingerprint seen per request key; every repeat must equal it."""

    def __init__(self) -> None:
        self.seen: dict[str, tuple] = {}

    def check(self, key: str, fingerprint: tuple) -> None:
        first = self.seen.setdefault(key, fingerprint)
        if first != fingerprint:
            raise NondeterminismError(
                f"request {key!r} repeated with different deterministic counts:\n"
                f"  first: {first}\n  now:   {fingerprint}"
            )

    def digest(self) -> str:
        """Hash of every fingerprint seen, to compare across runs."""
        text = repr(sorted(self.seen.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Phase:
    """What one timed loop measured."""

    #: wall seconds of each request that returned
    walls: list[float] = field(default_factory=list)
    failed_wall: float = 0.0
    #: queries answered per wall second, one value per cycle of requests
    cycle_rates: list[float] = field(default_factory=list)
    sim_latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    counts: Counter = field(default_factory=Counter)

    @property
    def answered(self) -> int:
        return self.attempted - self.failed

    @property
    def wall(self) -> float:
        return sum(self.walls) + self.failed_wall

    @property
    def qps(self) -> float:
        """Median cycle throughput: a slow spell on a shared host moves a few
        cycles, not the median."""
        return statistics.median(self.cycle_rates) if self.cycle_rates else 0.0


def run_cycle(workload: Any, requests: list, references: dict, phase: Phase,
              determinism: DeterminismCheck, probe: Any = None) -> None:
    """Run one cycle of requests, one at a time, and check every answer."""
    from perfbench.answers import answers_match, canonical_answer

    answered, wall = phase.answered, phase.wall
    for key, request in requests:
        phase.attempted += workload.queries_per_request
        began = time.perf_counter()
        try:
            result = request()
        except Exception:  # a failing request is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            phase.failed += workload.queries_per_request
            phase.failed_wall += time.perf_counter() - began
            continue
        phase.walls.append(time.perf_counter() - began)
        if probe is not None:
            probe.collect_workers()
        for query in result.queries:
            expected = references[query.answer_key]
            if not answers_match(expected, canonical_answer(query.rows, query.names)):
                print(f"wrong answer: {key} {query.answer_key}", file=sys.stderr)
                phase.failed += 1
            phase.sim_latencies.append(query.sim_latency)
        phase.failed += max(workload.queries_per_request - len(result.queries), 0)
        determinism.check(key, result.fingerprint)
        phase.counts.update(result.counts)
    phase.cycle_rates.append((phase.answered - answered) / (phase.wall - wall))


def measure(workload: Any, state: Any, references: dict, seconds: float,
            determinism: DeterminismCheck, tracer: Any = None) -> tuple[Phase, Phase, dict]:
    """Run whole cycles until ``seconds`` pass; returns (untraced, traced,
    layers that could not be traced).

    With a ``tracer``, cycles alternate between untraced and traced, so both
    halves see the same machine conditions; without one, all are untraced.
    """
    from perfbench.tracing import LayerProbe

    requests = workload.cycle(state)
    untraced, traced = Phase(), Phase()
    untraced_layers: dict[str, str] = {}
    start = time.perf_counter()
    cycles = 0
    while cycles < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        if tracer is not None and cycles % 2:
            with LayerProbe(tracer) as probe:
                run_cycle(workload, requests, references, traced, determinism, probe)
            untraced_layers = dict(probe.untraced)
        else:
            run_cycle(workload, requests, references, untraced, determinism)
        cycles += 1
    return untraced, traced, untraced_layers


def git_commit(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: Any, seed: int, seconds: float, trace: bool) -> dict[str, object]:
    import multiprocessing

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        # os.uname, not platform.platform(), which starts a child process
        # and would show up as a worker's peak memory
        "platform": "-".join(os.uname()[index] for index in (0, 2, 4)),
        "start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_repeats": SETUP_REPEATS,
        "params": workload.params(),
    }


def peak_rss_mb() -> tuple[float, float]:
    """Peak resident MB of this process and of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own, children


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setup_times: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and extra lines for people."""
    from perfbench.stats import latency_summary

    own_rss, child_rss = peak_rss_mb()
    # Every request failing leaves no samples; the run still reports, as incorrect.
    latency = latency_summary(phase.walls) if phase.walls else {"p50": 0.0}
    sim_latency = statistics.median(phase.sim_latencies) if phase.sim_latencies else 0.0
    metrics = {
        "qps": metric(phase.qps, "1/s"),
        "latency_p50_s": metric(latency["p50"], "s"),
        "sim_latency_p50_s": metric(sim_latency, "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(max(own_rss, child_rss), "MB"),
    }
    extra = {
        "error_rate": metric(phase.failed / phase.attempted, "ratio"),
        "requests": metric(len(phase.walls), "count"),
        "benchmark_rss_mb": metric(own_rss, "MB"),
        "largest_worker_rss_mb": metric(child_rss, "MB"),
    }
    for name, value in latency.items():
        if name != "p50":
            extra[f"latency_{name}_s"] = metric(value, "s")
    return metrics, extra


def per_layer(untraced: Phase, traced: Phase, tracer: Any, setup_tracer: Any) -> dict:
    """The per-layer metrics, per query answered in the traced loop."""
    queries = max(traced.answered, 1)
    selfs, calls, counts = tracer.self_seconds, tracer.calls, tracer.counts
    report = traced.counts

    def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator / denominator * scale if denominator else 0.0

    reused, discarded = counts["stitchup.reused_tuples"], counts["stitchup.discarded_tuples"]
    waves = untraced.counts["shard.waves"]
    untraced_queries = max(untraced.answered, 1)
    layers = {
        "stitchup.self_s": metric(selfs["stitchup"] / queries, "s/query"),
        "stitchup.calls": metric(calls["stitchup"] / queries, "count/query"),
        "stitchup.reused_tuples": metric(reused / queries, "count/query"),
        "stitchup.discarded_tuples": metric(discarded / queries, "count/query"),
        "stitchup.reuse_ratio": metric(ratio(reused, reused + discarded), "ratio"),
        "reoptimizer.self_s": metric(selfs["reoptimizer"] / queries, "s/query"),
        "reoptimizer.calls": metric(calls["reoptimizer"] / queries, "count/query"),
        "reoptimizer.ms_per_call": metric(ratio(selfs["reoptimizer"], calls["reoptimizer"], 1e3), "ms"),
        "adaptivity.self_s": metric(selfs["adaptivity"] / queries, "s/query"),
        "adaptivity.polls": metric(calls["adaptivity"] / queries, "count/query"),
        "adaptivity.switches": metric(counts["adaptivity.switches"] / queries, "count/query"),
        "adaptivity.switch_ratio": metric(ratio(counts["adaptivity.switches"], calls["adaptivity"]), "ratio"),
        "monitor.self_s": metric(selfs["monitor"] / queries, "s/query"),
        "monitor.calls": metric(calls["monitor"] / queries, "count/query"),
        "engine.self_s": metric(selfs["engine"] / queries, "s/query"),
        "engine.chunks": metric(calls["engine"] / queries, "count/query"),
        "engine.tuples": metric(counts["engine.tuples"] / queries, "count/query"),
        "engine.us_per_tuple": metric(ratio(selfs["engine"], counts["engine.tuples"], 1e6), "us"),
        "optimizer.self_s": metric(selfs["optimizer"] / queries, "s/query"),
        "optimizer.calls": metric(calls["optimizer"] / queries, "count/query"),
        "corrective.phases": metric(report["corrective.phases"] / queries, "count/query"),
        "serving.self_s": metric(selfs["serving"] / queries, "s/query"),
        "serving.quanta": metric(report["serving.quanta"] / queries, "count/query"),
        "serving.clock_wait_sim_s": metric(report["serving.clock_wait_sim_s"] / queries, "s/query"),
        "stats_cache.seeded": metric(report["stats_cache.seeded"] / queries, "count/query"),
        "stats_cache.absorbed": metric(report["stats_cache.absorbed"] / queries, "count/query"),
        "shard.dispatch_s": metric(untraced.counts["shard.dispatch_s"] / untraced_queries, "s/query"),
        "shard.worker_busy_s": metric(untraced.counts["shard.worker_busy_s"] / untraced_queries, "s/query"),
        "shard.utilization": metric(ratio(untraced.counts["shard.utilization"], waves), "ratio"),
        "shard.task_mb": metric(ratio(counts["shard.task_bytes"], counts["shard.workers_traced"], 1e-6), "MB"),
        "setup.generate_s": metric(setup_tracer.self_seconds["generate"] / SETUP_REPEATS, "s"),
        "trace.overhead": metric(ratio(traced.qps, untraced.qps), "ratio"),
    }
    return layers


def layer_shares(traced: Phase, tracer: Any) -> dict[str, float]:
    """Each layer's self time as a share of the time the traced loop used.

    That time is the request wall clock, or on sharded waves the front-end's
    dispatch plus every worker's shard wall clock.
    """
    selfs = dict(tracer.self_seconds)
    if traced.counts["shard.waves"]:
        selfs["dispatch"] = traced.counts["shard.dispatch_s"]
        total = traced.counts["shard.dispatch_s"] + traced.counts["shard.worker_wall_s"]
    else:
        total = traced.wall
    if total <= 0:
        return {}
    shares = {layer: seconds / total for layer, seconds in selfs.items()}
    shares["other"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda item: -item[1]))


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: float | None = None) -> dict:
    """Set up, measure and return the whole record for one workload."""
    from perfbench.tracing import SETUP_LAYERS, LayerProbe, Tracer
    from perfbench.workloads import WORKLOADS

    workload_class = WORKLOADS[workload_name]
    workload = workload_class() if scale is None else workload_class(scale)
    setup_tracer = Tracer()
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        probe = LayerProbe(setup_tracer, SETUP_LAYERS, workers=False) if trace else nullcontext()
        with probe:
            began = time.perf_counter()
            state = workload.setup(seed)
            _, warm_up = workload.cycle(state)[0]
            warm_up()
            setup_times.append(time.perf_counter() - began)
    references = workload.references(state)
    determinism = DeterminismCheck()
    record: dict[str, Any] = {"env": environment(workload, seed, seconds, trace)}
    tracer = Tracer() if trace else None
    untraced, traced, untraced_layers = measure(
        workload, state, references, seconds, determinism, tracer
    )
    if tracer is None:
        record["metrics"], record["extra"] = end_to_end(untraced, setup_times)
    else:
        record["metrics"] = per_layer(untraced, traced, tracer, setup_tracer)
        record["shares"] = layer_shares(traced, tracer)
        if untraced.counts["shard.waves"] and not tracer.counts["shard.workers_traced"]:
            untraced_layers["workers"] = (
                "no worker sent spans: the start method does not inherit the wrappers"
            )
        record["untraced_layers"] = untraced_layers
    record["samples"] = {
        "request_walls_s": untraced.walls,
        "cycle_rates_qps": untraced.cycle_rates,
        "setup_s": setup_times,
    }
    record["attempted"] = untraced.attempted + traced.attempted
    record["failed"] = untraced.failed + traced.failed
    record["determinism_digest"] = determinism.digest()
    return record


def render(record: dict) -> str:
    """The record for people: environment, metrics with units, shares."""
    lines = ["# environment"]
    lines += [f"{key:16} {value}" for key, value in record["env"].items() if key != "params"]
    lines += [f"{'param.' + key:16} {value}" for key, value in record["env"]["params"].items()]
    lines.append(f"{'determinism':16} {record['determinism_digest']}")
    lines.append("# metrics")
    for section in ("metrics", "extra"):
        for name, entry in record.get(section, {}).items():
            lines.append(f"{name:28} {entry['value']:>14.6g} {entry['unit']}")
    lines.append(f"{'attempted':28} {record['attempted']:>14} queries")
    lines.append(f"{'failed':28} {record['failed']:>14} queries")
    if "shares" in record:
        lines.append("# traced self-time shares")
        lines += [f"{layer:28} {share:>14.1%}" for layer, share in record["shares"].items()]
        for layer, reason in record["untraced_layers"].items():
            lines.append(f"not traced: {layer}: {reason}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record here")
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"perfbench: no program to measure: {source / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except NondeterminismError as error:
        print(f"perfbench: FAILED determinism self-check: {error}", file=sys.stderr)
        return 3
    print(render(record))
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
