"""In-memory spans around pavecast's public functions, recorded from outside.

A Tracer replaces each target function at every name a pavecast module binds
it under (``trainer.prepare_tensors`` is the same object as
``model.prepare_tensors``), so calls are caught wherever callers look the
function up. Leaving the ``with`` block restores the originals. A target
that no longer exists is listed in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import defaultdict

from spec import NDGRAD_BYTES_KINDS, NDGRAD_KINDS

PACKAGE = "pavecast"
TARGETS = (
    "dataset.load_records",
    "pipeline.prepare_data",
    "pipeline.evaluate_test",
    "stgraph.build_graph",
    "stgraph.build_init_graph",
    "stgraph.expand",
    "stgraph.combined_parents",
    "model.prepare_tensors",
    "model.forward_values",
    "model.loss_and_grads",
    "ndgrad.backward",
    "ndgrad.adam_step",
    *(f"ndgrad.{kind}" for kind in NDGRAD_KINDS),
    "trainer.train_on_graph",
    "trainer.predict_one",
    "trainer.predict_sequence",
    "trainer.predict_batch_ignore",
    "trainer.save_checkpoint",
    "trainer.load_checkpoint",
    "evaluation.build_report",
)


def _tape_stats(args, _result):
    tape = args[0]
    return {"tape_nodes": len(tape.nodes),
            "tape_bytes": sum(node.value.nbytes for node in tape.nodes)}


def _output_bytes(_args, result):
    return {"bytes": result.value.nbytes}


_PROBES = {"ndgrad.backward": _tape_stats,
           **{f"ndgrad.{kind}": _output_bytes for kind in NDGRAD_BYTES_KINDS}}


class Tracer:
    """Spans (name, start, end, parent) plus per-name counters and GC pauses."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self.gc_collections = 0
        self.gc_seconds = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for target in TARGETS:
            module_name, attr = target.split(".")
            func = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), attr, None)
            if func is None:
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, func)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is func:
                        self._patched.append((module, name, func))
                        setattr(module, name, wrapper)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, name, func in reversed(self._patched):
            setattr(module, name, func)
        self._patched.clear()

    def _on_gc(self, phase, _info) -> None:
        # only collections that interrupt a traced call count, not the
        # benchmark's own collections between job repetitions
        if not self._stack:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_seconds += time.perf_counter() - self._gc_start

    def _wrap(self, name: str, func):
        spans, stack, probe = self.spans, self._stack, _PROBES.get(name)
        counters = self.counters[name]

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if probe is not None:
                for key, value in probe(args, result).items():
                    counters[key] += value
            return result

        traced.__wrapped__ = func
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += durations[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
        for i, (name, _, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["seconds"] += durations[i]
            entry["self_seconds"] += durations[i] - child_time[i]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]
