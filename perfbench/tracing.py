"""Per-layer wall-clock spans, recorded from outside the program.

:class:`LayerProbe` replaces the public entry point of each layer (a method on
a class of ``repro``) with a wrapper that opens a span on a
:class:`Tracer`, calls the original and closes the span; ``remove()`` puts
every original back.  A layer's *self time* is its span minus the spans
nested inside it, so the re-optimizer's time inside an adaptivity poll is
counted once, under the re-optimizer.

Sharded serving runs its sessions in forked worker processes.  The wrappers
are class attributes, so forked workers inherit them; the probe also wraps
the workers' ``drive_shard`` entry point, so that each worker starts from an
empty tracer and sends its totals back over a pipe created before the fork.
:meth:`LayerProbe.collect_workers` merges them in the parent.
"""

from __future__ import annotations

import functools
import importlib
import multiprocessing
import os
import time
from collections import Counter
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable


class Tracer:
    """Span stack plus per-layer totals: self seconds, calls and counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self._stack: list[list[Any]] = []
        self.self_seconds: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self, layer: str) -> None:
        name, start, child_seconds = self._stack.pop()
        if name != layer:
            raise RuntimeError(f"span {layer!r} closed while {name!r} was open")
        span = self.clock() - start
        self.self_seconds[layer] += span - child_seconds
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += span

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def export(self) -> dict[str, dict[str, float]]:
        return {
            "self_seconds": dict(self.self_seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def merge(self, exported: dict[str, dict[str, float]]) -> None:
        self.self_seconds.update(exported["self_seconds"])
        self.calls.update(exported["calls"])
        self.counts.update(exported["counts"])


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point: ``module.owner.method`` recorded as ``name``."""

    name: str
    module: str
    owner: str
    method: str
    on_result: Callable[[Tracer, Any], None] | None = None


def _count_stitchup(tracer: Tracer, report: Any) -> None:
    tracer.count("stitchup.reused_tuples", report.reused_tuples)
    tracer.count("stitchup.discarded_tuples", report.discarded_tuples)


def _count_switch(tracer: Tracer, switch: Any) -> None:
    tracer.count("adaptivity.switches", switch is not None)


def _count_tuples(tracer: Tracer, ran: int) -> None:
    tracer.count("engine.tuples", ran)


#: The layers a traced run wraps, outermost first.
QUERY_LAYERS = (
    Layer("serving", "repro.serving.server", "QueryServer", "run"),
    Layer("optimizer", "repro.optimizer.enumerator", "Optimizer", "optimize_tree"),
    Layer("engine", "repro.engine.pipelined", "PipelinedPlan", "run_chunk", _count_tuples),
    Layer("monitor", "repro.core.monitor", "ExecutionMonitor", "observe"),
    Layer("adaptivity", "repro.adaptivity.controller", "AdaptationRun", "poll", _count_switch),
    Layer("reoptimizer", "repro.optimizer.reoptimizer", "ReOptimizer", "evaluate"),
    Layer("stitchup", "repro.core.stitchup", "StitchUpExecutor", "run", _count_stitchup),
)
#: The layer a traced set-up wraps.
SETUP_LAYERS = (
    Layer("generate", "repro.workloads.generator", "TPCHGenerator", "generate"),
)
#: Where sharded workers run their shard; wrapped to ship worker spans home.
WORKER_MODULE, WORKER_ENTRY = "repro.serving.worker", "drive_shard"


def _wrap(tracer: Tracer, layer: Layer, original: Callable[..., Any]) -> Callable[..., Any]:
    name, on_result = layer.name, layer.on_result

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        tracer.enter(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.exit(name)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return traced


class LayerProbe:
    """Installs span wrappers on the layers' entry points and removes them."""

    def __init__(
        self, tracer: Tracer, layers: tuple[Layer, ...] = QUERY_LAYERS, workers: bool = True
    ) -> None:
        self.tracer = tracer
        self.layers = layers
        self.workers = workers
        #: layer name -> why it could not be traced
        self.untraced: dict[str, str] = {}
        self._originals: list[tuple[Any, str, Any]] = []
        self._channel: Any = None

    def __enter__(self) -> "LayerProbe":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.remove()

    def install(self) -> "LayerProbe":
        for layer in self.layers:
            try:
                owner = getattr(importlib.import_module(layer.module), layer.owner)
                original = owner.__dict__[layer.method]
            except (ImportError, AttributeError, KeyError):
                self.untraced[layer.name] = (
                    f"{layer.module}.{layer.owner}.{layer.method} not found"
                )
                continue
            self._patch(owner, layer.method, _wrap(self.tracer, layer, original))
        if self.workers:
            self._install_worker_hook()
        return self

    def remove(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)
        if self._channel is not None:
            self._channel.close()
            self._channel = None

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._originals.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _install_worker_hook(self) -> None:
        try:
            module = importlib.import_module(WORKER_MODULE)
            original = getattr(module, WORKER_ENTRY)
        except (ImportError, AttributeError):
            self.untraced["workers"] = f"{WORKER_MODULE}.{WORKER_ENTRY} not found"
            return
        channel = multiprocessing.get_context("fork").SimpleQueue()
        self._channel = channel
        tracer, parent = self.tracer, os.getpid()

        @functools.wraps(original)
        def traced_shard(task: Any) -> Any:
            if os.getpid() == parent:
                return original(task)
            tracer.reset()
            result = original(task)
            exported = tracer.export()
            exported["counts"]["shard.task_bytes"] = len(ForkingPickler.dumps(task))
            exported["counts"]["shard.workers_traced"] = 1
            channel.put(exported)
            return result

        self._patch(module, WORKER_ENTRY, traced_shard)

    def collect_workers(self) -> None:
        """Merge the totals every finished worker sent."""
        while self._channel is not None and not self._channel.empty():
            self.tracer.merge(self._channel.get())
