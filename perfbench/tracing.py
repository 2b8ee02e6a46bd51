"""In-memory span tracing of the library, driven from the benchmark's side.

A span records its name, start and end (``perf_counter_ns``) and the index of
the span that was open when it began.  Spans sit in one flat integer array
while the benchmark runs and are written out once at the end.  A span's self
time is its duration minus the durations of its direct children.

Nothing under ``src/`` knows about tracing.  :func:`instrument` swaps the
public module functions that the benchmark and the library call for traced
wrappers and puts the originals back on exit; :class:`TracedExtractor` wraps
one feature extractor and satisfies ``models.FeatureExtractor``.  The first
component of a span name is the layer it is charged to: ``ansatz``,
``quanv``, ``conv``, ``head``, ``adam``, ``models``, ``attacks``, ``io`` or
``bench`` (the benchmark's own code).
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

_FIELDS = 4  # name id, start ns, end ns, parent index (-1 for a root)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        # attack context, set by the generate and transfer_attack wrappers
        self.eps_zero = False
        self.in_transfer = False
        self.unique_crafts: set = set()

    def __len__(self) -> int:
        return len(self.spans) // _FIELDS

    def begin(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self)
        self.spans.extend((name_id, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index * _FIELDS + 2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        traced.__wrapped__ = fn
        return traced

    def summary(self, first: int = 0) -> dict[str, dict[str, int]]:
        """Calls, total and self nanoseconds per span name over the spans from index ``first`` on."""
        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)[first:]
        durations = rows[:, 2] - rows[:, 1]
        child_ns = np.zeros(len(rows), dtype=np.int64)
        parents = rows[:, 3] - first
        inside = parents >= 0
        np.add.at(child_ns, parents[inside], durations[inside])
        out: dict[str, dict[str, int]] = {}
        for name_id, name in enumerate(self.names):
            mine = rows[:, 0] == name_id
            if mine.any():
                out[name] = {
                    "calls": int(mine.sum()),
                    "total_ns": int(durations[mine].sum()),
                    "self_ns": int((durations[mine] - child_ns[mine]).sum()),
                }
        return out

    def dump(self, path) -> None:
        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "names": self.names,
                    "spans": rows.tolist(),
                    "counts": {k: int(v) for k, v in self.counts.items()},
                },
                fh,
            )


def _images_in(image) -> int:
    """Images in one extractor call: 1 for (H, W), N for a batch (N, H, W)."""
    return 1 if np.ndim(image) == 2 else len(image)


class TracedExtractor:
    """Timing proxy around one feature extractor; spans are ``<layer>.forward`` and ``<layer>.grad``."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.kind = inner.kind
        self.seed = inner.seed
        self._tracer = tracer
        self._layer = "conv" if inner.kind == "cnn" else "quanv"

    @property
    def fingerprint(self) -> str:
        return self.inner.fingerprint

    def forward(self, image):
        self._tracer.counts[f"{self._layer}.forward.imgs"] += _images_in(image)
        with self._tracer.span(f"{self._layer}.forward"):
            return self.inner.forward(image)

    def input_gradient(self, image, upstream):
        self._tracer.counts[f"{self._layer}.grad.imgs"] += _images_in(image)
        with self._tracer.span(f"{self._layer}.grad"):
            return self.inner.input_gradient(image, upstream)


def _traced_generate(tracer: Tracer, generate):
    def traced(model, image, label, spec):
        if tracer.in_transfer:
            tracer.counts["transfer.crafts"] += 1
            digest = hashlib.blake2b(np.ascontiguousarray(image).tobytes(), digest_size=16).digest()
            tracer.unique_crafts.add((id(model), spec, digest))
        saved, tracer.eps_zero = tracer.eps_zero, spec.epsilon == 0
        family = "cnn" if model.kind == "cnn" else "qunn"
        index = tracer.begin(f"attacks.generate.{family}.{spec.kind}")
        try:
            return generate(model, image, label, spec)
        finally:
            tracer.end(index)
            tracer.eps_zero = saved

    return traced


def _traced_transfer(tracer: Tracer, transfer_attack):
    def traced(*args, **kwargs):
        saved, tracer.in_transfer = tracer.in_transfer, True
        index = tracer.begin("attacks.transfer_attack")
        try:
            return transfer_attack(*args, **kwargs)
        finally:
            tracer.end(index)
            tracer.in_transfer = saved

    return traced


def _traced_input_gradient(tracer: Tracer, input_gradient):
    def traced(model, image, label):
        index = tracer.begin("models.grad")
        try:
            grad = input_gradient(model, image, label)
        finally:
            tracer.end(index)
        counts = tracer.counts
        counts["models.grad.eps0"] += tracer.eps_zero
        counts["models.grad.pixels"] += np.size(grad)
        counts["models.grad.zero_pixels"] += int(np.size(grad) - np.count_nonzero(grad))
        return grad

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Trace the library's public functions for the duration of the block."""
    from quanvrob import ansatz, attacks, classical, models, quanv

    plain = [
        (ansatz, "build_ansatz", "ansatz.build"),
        (quanv, "QuanvExtractor", "quanv.compile"),
        (classical, "build_conv_layer", "conv.build"),
        (classical, "dense_forward", "head.forward"),
        (models, "dense_forward", "head.forward"),
        (classical, "loss_and_grads", "head.loss_grad"),
        (models, "loss_and_grads", "head.loss_grad"),
        (classical, "adam_step", "adam.step"),
        (models, "accuracy", "models.accuracy"),
        (models.Model, "predict_label", "models.predict"),
        (attacks, "evaluate_robustness", "attacks.evaluate_robustness"),
        (attacks, "make_batch", "attacks.make_batch"),
        (quanv, "write_feature_cache", "io.cache_write"),
        (quanv, "read_feature_cache", "io.cache_read"),
        (classical, "save_checkpoint", "io.ckpt_save"),
        (classical, "load_checkpoint", "io.ckpt_load"),
        (attacks, "save_batch", "io.batch_save"),
        (attacks, "load_batch", "io.batch_load"),
    ]
    patches = [(owner, attr, tracer.wrap(getattr(owner, attr), name)) for owner, attr, name in plain]
    patches += [
        (attacks, "generate", _traced_generate(tracer, attacks.generate)),
        (attacks, "transfer_attack", _traced_transfer(tracer, attacks.transfer_attack)),
        (models.Model, "input_gradient", _traced_input_gradient(tracer, models.Model.input_gradient)),
    ]
    with patched(patches):
        yield tracer


@contextmanager
def patched(patches):
    """Set ``owner.attr = value`` for each triple and restore the originals on exit."""
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(originals):
            setattr(owner, attr, value)
