"""In-memory span tracing for the traced benchmark run.

The program has no spans of its own at the layer boundaries the benchmark
reports, so the traced run records them from outside: :class:`SpanRecorder`
replaces each public function or method named in :data:`LAYER_SEAMS` with a
timing wrapper for the duration of the run.  A span holds its name, start,
end, parent span, the batch/request/step id current on its thread, the run
phase it fell in, and the work it covered (samples, weights, pass-rows).
Spans stay in memory and are written out as JSON lines when the run ends.

Self time — a span's duration minus the part its direct children cover —
is what the per-layer metrics are built from, so nested layers are never
counted twice.  Only the parent process is observed: spawned serving
workers import the program afresh and run unwrapped.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import repro.bnn.bayesian
import repro.bnn.inference
import repro.bnn.quantized
import repro.bnn.trainer
import repro.datasets
import repro.grng.stream
import repro.serving.batcher
import repro.serving.predictors
import repro.serving.registry
import repro.serving.ring
import repro.serving.service
import repro.serving.workers


def _samples(args, kwargs) -> int:
    return int(args[1].size)


def _codes(args, kwargs) -> int:
    target = args[1]
    return int(target) if isinstance(target, int) else int(target.size)


def _weights(args, kwargs) -> int:
    return sum(int(eps_w.size + eps_b.size) for eps_w, eps_b in args[1])


def _pass_rows(args, kwargs) -> int:
    stacks, x = args[0], args[1]
    return int(stacks[0][0].shape[0] * x.shape[0])


def _quantized_pass_rows(args, kwargs) -> int:
    return int(args[2] * args[1].shape[0])


def _quantized_passes(args, kwargs) -> int:
    return int(args[1])


def _images(args, kwargs) -> int:
    n_train = kwargs.get("n_train", args[0] if args else 0)
    n_test = kwargs.get("n_test", args[1] if len(args) > 1 else 0)
    return int(n_train + n_test)


def _rows(args, kwargs) -> int:
    return int(args[1].shape[0])


#: (owner, attribute, span name, work counter) for every wrapped seam.  A
#: function imported by name into another module is wrapped there too, so
#: every caller sees the same wrapper.
LAYER_SEAMS = (
    (repro.grng.stream.GrngStream, "fill", "grng.fill", _samples),
    (repro.grng.stream.GrngStream, "generate_codes", "grng.codes", _codes),
    (repro.grng.stream.GrngStream, "fill_codes", "grng.codes", _samples),
    (repro.bnn.inference, "build_weight_stacks", "bnn.materialize", _weights),
    (repro.serving.registry, "build_weight_stacks", "bnn.materialize", _weights),
    (repro.bnn.inference, "stacked_forward_stacks", "bnn.forward", _pass_rows),
    (repro.serving.predictors, "stacked_forward_stacks", "bnn.forward", _pass_rows),
    (
        repro.bnn.quantized.QuantizedBayesianNetwork,
        "sample_weight_stacks",
        "bnn.quantized_sample",
        _quantized_passes,
    ),
    (
        repro.bnn.quantized.QuantizedBayesianNetwork,
        "forward_stacked_codes",
        "bnn.quantized_forward",
        _quantized_pass_rows,
    ),
    (repro.bnn.bayesian.BayesianNetwork, "train_step", "bnn.train_step", _rows),
    (repro.bnn.trainer.Trainer, "fit", "train.fit", None),
    (repro.datasets, "load_digits_split", "datasets.digits", _images),
    (repro.serving.service.BnnService, "submit", "serving.submit", None),
    (repro.serving.workers.ServingWorker, "execute", "serving.execute", None),
)

#: Spans that open a new id, which every span nested in them carries.
CONTEXT_PREFIXES = {
    "serving.execute": "batch",
    "serving.submit": "request",
    "bnn.train_step": "step",
}


@dataclass
class Span:
    span_id: int
    parent: int
    name: str
    start: float
    end: float
    ops: int
    context: str
    phase: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class LayerTotals:
    """Per-name rollup of one phase's spans."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    ops: int = 0


class SpanRecorder:
    """Wraps the layer seams and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        #: Per-ticket queue waits (seconds): batch pop minus ticket creation.
        self.queue_waits: list[float] = []
        #: Parent-side ring round trips (seconds) of request batches.
        self.ring_roundtrips: list[float] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.context = ""
            local.push_at = None
        return local

    @contextmanager
    def span(self, name: str, ops: int = 0, context: str | None = None):
        """Record one span around the benchmark's own code."""
        opened = self._open(context)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(*opened, name, start, ops)

    def _open(self, context: str | None):
        state = self._state()
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else 0
        state.stack.append(span_id)
        previous = state.context
        if context is not None:
            state.context = context
        return state, span_id, parent, previous

    def _close(self, state, span_id, parent, previous, name, start, ops) -> None:
        end = time.perf_counter()
        state.stack.pop()
        span = Span(span_id, parent, name, start, end, ops, state.context, self.phase)
        state.context = previous
        with self._lock:
            self.spans.append(span)

    def _wrap(self, owner, attribute: str, name: str, count) -> None:
        original = getattr(owner, attribute)
        recorder = self
        prefix = CONTEXT_PREFIXES.get(name)
        ids = itertools.count(1)

        def traced(*args, **kwargs):
            context = f"{prefix}-{next(ids)}" if prefix else None
            state, span_id, parent, previous = recorder._open(context)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                ops = count(args, kwargs) if count is not None else 0
                recorder._close(state, span_id, parent, previous, name, start, ops)

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def _wrap_batch_pop(self, attribute: str) -> None:
        owner = repro.serving.batcher.MicroBatcher
        original = getattr(owner, attribute)
        waits = self.queue_waits

        def traced(*args, **kwargs):
            batch = original(*args, **kwargs)
            if batch is not None:
                now = time.perf_counter()
                waits.extend(now - ticket.created_at for ticket in batch.tickets)
            return batch

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def _wrap_ring(self) -> None:
        ring = repro.serving.ring.Ring
        push, pop = ring.push, ring.pop
        recorder = self

        def traced_push(ring_self, kind, *args, **kwargs):
            result = push(ring_self, kind, *args, **kwargs)
            if kind == repro.serving.ring.MSG_REQUEST:
                recorder._state().push_at = time.perf_counter()
            return result

        def traced_pop(*args, **kwargs):
            message = pop(*args, **kwargs)
            state = recorder._state()
            if message is not None and state.push_at is not None:
                recorder.ring_roundtrips.append(time.perf_counter() - state.push_at)
                state.push_at = None
            return message

        ring.push, ring.pop = traced_push, traced_pop
        self._patches.extend([(ring, "push", push), (ring, "pop", pop)])

    def install(self) -> None:
        for owner, attribute, name, count in LAYER_SEAMS:
            self._wrap(owner, attribute, name, count)
        self._wrap_batch_pop("next_batch")
        self._wrap_batch_pop("drain_tick")
        self._wrap_ring()

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def totals(self, phase: str) -> dict[str, LayerTotals]:
        """Calls, inclusive and self seconds, and work per span name."""
        spans = [span for span in self.spans if span.phase == phase]
        child_seconds: dict[int, float] = defaultdict(float)
        for span in spans:
            child_seconds[span.parent] += span.seconds
        out: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for span in spans:
            entry = out[span.name]
            entry.calls += 1
            entry.seconds += span.seconds
            entry.self_seconds += span.seconds - child_seconds.get(span.span_id, 0.0)
            entry.ops += span.ops
        return dict(out)

    def export(self, path: pathlib.Path) -> int:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
        return len(self.spans)
