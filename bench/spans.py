"""Span tracing for the benchmark's traced run, installed from outside.

``Tracer.install`` wraps each layer function listed in ``TARGETS`` in every
``gptlab`` module namespace that binds it (for example ``blahut_arimoto``
is bound in ``gptlab.capacity``, which ``capacity_search`` imports lazily,
and in ``gptlab.protocols``).  Value-object constructors are traced through
their ``__post_init__`` validation, which subclasses such as
``LocalTransformation`` inherit; methods are wrapped on their class.

Spans are kept in memory, one buffer per thread, as ``(id, parent, name,
op, start, end)`` and written out by ``save``.  A span opened on a worker
thread with nothing open on that thread is parented to the span open on
the main thread, so ``cli.main`` covers the work of its thread pool.  Self
time is a span's duration minus the union of its children's intervals.

Some counters are computed from array shapes, not measured traffic:
``capacity.blahut_arimoto.cell_iters`` (rows x cols x iterations),
``protocols.dense_coding.stack_bytes`` (the two stacked ``2^N x S x S``
float64 arrays) and ``protocols.dense_coding.contract_flops`` (the stacked
``einsum`` plus the ``2^N`` encoding products of ``S x S`` matrices).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

import numpy as np

TARGETS = {
    "capacity": ("blahut_arimoto",),
    "hst": (
        "capacity_search",
        "random_measurement",
        "random_direction",
        "make_extremal_effect",
        "make_state",
    ),
    "hadamard": (
        "hadamard_vector",
        "local_transformation",
        "entangled_state",
        "entangled_effect",
        "bell_measurement",
        "local_tomography",
        "verify_max_tensor_membership",
    ),
    "core": (
        "State",
        "Effect",
        "BipartiteState",
        "BipartiteEffect",
        "Transformation",
        "Channel",
        "Transformation.apply_left",
        "Transformation.apply_right",
        "mutual_information",
    ),
    "protocols": (
        "dense_coding",
        "separable_baseline",
        "product_decoding_baseline",
        "random_product_measurement",
        "teleport",
        "entanglement_swap",
    ),
    "variants": (
        "lt_channel",
        "weak_dense_coding",
        "embedded_dense_coding",
        "constructed_family",
        "lemma_state_check",
        "lemma_effect_check",
        "tl_violation_witness",
    ),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in TARGETS.items() for name in names)

# Counters beyond calls and self time, per span name.
EXTRA_COUNTERS = {
    "capacity.blahut_arimoto": ("iterations", "converged_frac", "cell_iters"),
    "protocols.dense_coding": ("stack_bytes", "contract_flops"),
    "cli.main": ("report_bytes",),
}


def metric_names() -> list:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s"]
        names += [f"{span}.{c}" for c in EXTRA_COUNTERS.get(span, ())]
    return names


def _ba_counts(args, kwargs, result) -> dict:
    rows, cols = np.shape(args[0] if args else kwargs["conditional"])
    return {
        "iterations": result.iterations,
        "converged": int(bool(result.converged)),
        "cell_iters": rows * cols * result.iterations,
    }


def _dense_counts(args, kwargs, result) -> dict:
    size = 2**result.n_bits
    side = 1 + result.theory.local_dim
    return {
        "stack_bytes": 2 * size * side * side * 8,
        "contract_flops": 2 * size * size * side * side + size * 2 * side**3,
    }


COUNT_HOOKS = {
    "capacity.blahut_arimoto": _ba_counts,
    "protocols.dense_coding": _dense_counts,
}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.active = False
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._main_stack = []
        self._main = threading.main_thread()
        self._patches = []
        self.counts = {}

    # -- recording -------------------------------------------------------

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = (array("q"), array("q"), array("q"), array("q"), array("d"), array("d"))
            stack = self._main_stack if threading.current_thread() is self._main else []
            self._local.buf, self._local.stack = buf, stack
            with self._lock:
                self._buffers.append(buf)
        return buf, self._local.stack

    def _add_counts(self, name, counts):
        with self._lock:
            for key, value in counts.items():
                full = f"{name}.{key}"
                self.counts[full] = self.counts.get(full, 0) + value

    def wrap(self, name: str, fn):
        name_id = SPAN_NAMES.index(name)
        hook = COUNT_HOOKS.get(name)
        is_cli = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            buf, stack = self._buffer()
            sid = next(self._ids)
            try:
                parent = stack[-1] if stack else self._main_stack[-1]
            except IndexError:
                parent = -1
            stack.append(sid)
            out = sys.stdout if is_cli else None
            mark = out.tell() if is_cli and out.seekable() else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                ids, parents, names, ops, starts, ends = buf
                ids.append(sid)
                parents.append(parent)
                names.append(name_id)
                ops.append(self.op)
                starts.append(start)
                ends.append(end)
            if hook is not None:
                self._add_counts(name, hook(args, kwargs, result))
            if mark is not None:
                self._add_counts(name, {"report_bytes": out.tell() - mark})
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every target in every loaded ``gptlab`` namespace."""
        import importlib

        homes = {layer: importlib.import_module(f"gptlab.{layer}") for layer in TARGETS}
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "gptlab" or key.startswith("gptlab."))
        ]
        for layer, names in TARGETS.items():
            home = homes[layer]
            for attr in names:
                full = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, method, self.wrap(full, cls.__dict__[method]))
                    continue
                original = getattr(home, attr)
                if isinstance(original, type):
                    self._patch(
                        original,
                        "__post_init__",
                        self.wrap(full, original.__dict__["__post_init__"]),
                    )
                    continue
                wrapper = self.wrap(full, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def spans(self) -> dict:
        """All spans as numpy arrays indexed by span id."""
        n = sum(len(buf[0]) for buf in self._buffers)
        keys = ("parent", "name", "op", "start", "end")
        out = {k: np.empty(n, dtype=np.float64 if k in ("start", "end") else np.int64) for k in keys}
        for buf in self._buffers:
            ids = np.frombuffer(buf[0], dtype=np.int64)
            for key, column in zip(keys, buf[1:]):
                out[key][ids] = np.frombuffer(column, dtype=out[key].dtype)
        out["id"] = np.arange(n)
        return out

    def save(self, path, spans=None):
        spans = self.spans() if spans is None else spans
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **spans)

    def layer_metrics(self, spans=None) -> dict:
        """``calls``, ``self_s`` and the extra counters for every span name."""
        spans = self.spans() if spans is None else spans
        durations = spans["end"] - spans["start"]
        covered = _children_cover(spans)
        self_time = np.maximum(durations - covered, 0.0)
        metrics = {}
        for i, name in enumerate(SPAN_NAMES):
            mask = spans["name"] == i
            calls = int(mask.sum())
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = float(self_time[mask].sum())
            for counter in EXTRA_COUNTERS.get(name, ()):
                if counter == "converged_frac":
                    converged = self.counts.get(f"{name}.converged", 0)
                    metrics[f"{name}.{counter}"] = converged / calls if calls else 0.0
                else:
                    metrics[f"{name}.{counter}"] = int(self.counts.get(f"{name}.{counter}", 0))
        return metrics


def _children_cover(spans) -> np.ndarray:
    """Per span, the length of the union of its children's intervals.

    Children on one thread never overlap; children on pool threads can, so
    the union is taken over intervals sorted by start within each parent.
    """
    n = spans["id"].size
    parents, starts, ends = spans["parent"], spans["start"], spans["end"]
    child = np.flatnonzero(parents >= 0)
    if child.size == 0:
        return np.zeros(n)
    child = child[np.lexsort((starts[child], parents[child]))]
    p, s, e = parents[child], starts[child] - starts.min(), ends[child] - starts.min()
    first = np.ones(p.size, dtype=bool)
    first[1:] = p[1:] != p[:-1]
    # Offset each parent's group so one running maximum serves every group.
    offset = np.cumsum(first) * (e.max() + 1.0)
    reach = np.maximum.accumulate(e + offset) - offset
    before = np.concatenate(([0.0], reach[:-1]))
    gained = np.where(first, e - s, np.maximum(0.0, e - np.maximum(s, before)))
    return np.bincount(p, weights=gained, minlength=n)
