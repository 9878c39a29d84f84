"""Span tracing of smallclip's public functions, installed from outside it.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records one span per call: ``(span id, parent span id, layer name,
start, end)``. The parent is the innermost traced call still open on the same
thread; work that ``parallel_map`` hands to a worker thread gets the map's
span as its parent. Spans stay in memory until ``uninstall()``.

A function that other modules import by name (``from .video import
train_video_model`` in ``recipes`` and ``cli``, ``from .nn import sigmoid``
in ``video``) is replaced under every name that refers to it, so a call is
traced whichever module makes it.

A layer's self time is its spans' durations minus the part of each span that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, layer). A dotted attribute names a method.
TARGETS = (
    ("data", "load_dataset", "data.load_dataset"),
    ("data", "atomic_write_text", "data.atomic_write"),
    ("video", "select_frames", "video.select_frames"),
    ("video", "VideoModel.predict", "video.predict"),
    ("video", "train_video_model", "video.train"),
    ("nn", "lstm_forward", "nn.lstm_forward"),
    ("nn", "lstm_backward", "nn.lstm_backward"),
    ("nn", "sigmoid", "nn.sigmoid"),
    ("nn", "softmax", "nn.softmax"),
    ("optim", "Adam.step", "optim.step"),
    ("optim", "SGD.step", "optim.step"),
    ("audio", "train_audio_model", "audio.train"),
    ("audio", "AudioModel.predict", "audio.predict"),
    ("forest", "grow_tree", "forest.grow_tree"),
    ("forest", "Forest.predict_proba", "forest.predict_proba"),
    ("kernels", "best_split", "kernels.best_split"),
    ("kernels", "tree_apply", "kernels.tree_apply"),
    ("fusion", "fuse_tables", "fusion.fuse_tables"),
    ("fusion", "learn_fusion_weights", "fusion.learn_fusion_weights"),
    ("scores", "write_score_table", "scores.write"),
    ("scores", "load_score_table", "scores.load"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("evaluate", "evaluate", "evaluate.evaluate"),
    ("parallel", "parallel_map", "parallel.map"),
)

# Per-layer metrics of a traced run, with units. A name ending in ``_s`` is
# the self time of the layer before it, a name ending in ``_calls`` its span
# count; the others are described in ``layer_metrics``.
PER_LAYER = (
    ("data.load_dataset_s", "s"), ("data.load_dataset_calls", "count"),
    ("data.atomic_write_s", "s"), ("data.atomic_write_calls", "count"),
    ("video.select_frames_s", "s"), ("video.select_frames_calls", "count"),
    ("video.predict_s", "s"), ("video.predict_calls", "count"),
    ("video.train_s", "s"), ("video.train_calls", "count"),
    ("nn.lstm_forward_s", "s"), ("nn.lstm_backward_s", "s"),
    ("nn.sigmoid_s", "s"), ("nn.sigmoid_calls", "count"),
    ("nn.softmax_calls", "count"),
    ("optim.step_s", "s"), ("optim.step_calls", "count"),
    ("audio.train_s", "s"), ("audio.predict_s", "s"),
    ("audio.predict_calls", "count"),
    ("forest.grow_tree_s", "s"), ("forest.trees", "count"),
    ("forest.nodes", "count"), ("forest.predict_proba_s", "s"),
    ("forest.predict_proba_calls", "count"),
    ("forest.predict_proba_rows", "count"),
    ("kernels.best_split_s", "s"), ("kernels.best_split_calls", "count"),
    ("kernels.tree_apply_s", "s"), ("kernels.tree_apply_calls", "count"),
    ("kernels.tree_apply_rows", "count"),
    ("fusion.fuse_tables_s", "s"), ("fusion.learn_fusion_weights_s", "s"),
    ("scores.write_s", "s"), ("scores.load_s", "s"),
    ("checkpoint.save_s", "s"), ("checkpoint.load_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("evaluate.evaluate_s", "s"),
    ("parallel.map_s", "s"), ("parallel.items", "count"),
    ("parallel.item_s_sum", "s"), ("parallel.wait_s", "s"),
    ("trace.overhead_s", "s"),
)


def _rows(arg_index, name):
    """Counter of the rows of the array argument at ``arg_index``."""
    def count(counts, args, kwargs, result):
        X = args[arg_index] if len(args) > arg_index else kwargs["X"]
        counts[name] += len(X)
    return count


def _tree_nodes(counts, args, kwargs, result):
    counts["forest.nodes"] += result.n_nodes


def _checkpoint_bytes(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["checkpoint.bytes"] += os.path.getsize(path)


COUNTERS = {
    "kernels.tree_apply": _rows(4, "kernels.tree_apply_rows"),
    "forest.predict_proba": _rows(1, "forest.predict_proba_rows"),
    "forest.grow_tree": _tree_nodes,
    "checkpoint.save": _checkpoint_bytes,
}


class Tracer:
    """Records spans of smallclip's public functions while installed."""

    def __init__(self):
        self.spans = []          # (id, parent id, layer, start, end)
        self.counts = defaultdict(int)
        self.item_waits = []     # parallel_map items: wall minus thread CPU
        self._count_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []       # (owner, attribute, original)

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = [0]
            return self._local.stack

    def span(self, layer, fn, args, kwargs, parent=None):
        """Call ``fn`` inside a span; ``parent`` overrides the thread's."""
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, stack[-1] if parent is None else parent,
                               layer, t0, t1))

    def _wrap(self, fn, layer):
        count = COUNTERS.get(layer)
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = span(layer, fn, args, kwargs)
            if count is not None:
                with self._count_lock:
                    count(self.counts, args, kwargs, result)
            return result
        return traced

    def _wrap_parallel_map(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(work, items, *args, **kwargs):
            items = list(items)
            with tracer._count_lock:
                tracer.counts["parallel.items"] += len(items)
            map_id = next(tracer._ids)
            stack = tracer._stack()
            parent = stack[-1]
            t0 = time.perf_counter()

            def item(x):
                c0, w0 = time.thread_time(), time.perf_counter()
                try:
                    return tracer.span("parallel.item", work, (x,), {},
                                       parent=map_id)
                finally:
                    tracer.item_waits.append(
                        (time.perf_counter() - w0) - (time.thread_time() - c0))

            stack.append(map_id)
            try:
                return fn(item, items, *args, **kwargs)
            finally:
                stack.pop()
                tracer.spans.append((map_id, parent, "parallel.map", t0,
                                     time.perf_counter()))
        return traced

    def install(self):
        """Wrap every target under every name that refers to it."""
        importlib.import_module("smallclip.cli")  # imports every module
        modules = [m for name, m in list(sys.modules.items())
                   if name == "smallclip" or name.startswith("smallclip.")]
        for module, attr, layer in TARGETS:
            owner = sys.modules[f"smallclip.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                fn = owner.__dict__[attr]
                self._replace(owner, attr, fn, self._wrap(fn, layer))
                continue
            fn = getattr(owner, attr)
            wrapper = (self._wrap_parallel_map(fn) if layer == "parallel.map"
                       else self._wrap(fn, layer))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, name, fn, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict:
    """Seconds per layer, each span less the time its children cover."""
    children = defaultdict(list)
    for _, parent, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    out = defaultdict(float)
    for sid, _, layer, t0, t1 in spans:
        kids = children.get(sid)
        out[layer] += (t1 - t0) - (covered(kids, t0, t1) if kids else 0.0)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Every ``PER_LAYER`` metric except ``trace.overhead_s``.

    ``parallel.map_s`` and ``parallel.item_s_sum`` are inclusive times of the
    maps and of the items they ran; ``parallel.wait_s`` sums how long the
    items were not running on their threads (wall minus thread CPU time:
    waiting for the interpreter lock, a core, BLAS threads or I/O; clock
    granularity can leave it a hair below 0 when nothing waited).
    ``forest.trees`` counts grown trees, ``forest.nodes`` their nodes, and the
    ``_rows`` counts the rows of the arrays passed in.
    """
    selfs = self_times(tracer.spans)
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    for _, _, layer, t0, t1 in tracer.spans:
        calls[layer] += 1
        inclusive[layer] += t1 - t0
    out = {"forest.trees": calls["forest.grow_tree"],
           "parallel.map_s": inclusive["parallel.map"],
           "parallel.item_s_sum": inclusive["parallel.item"],
           "parallel.wait_s": sum(tracer.item_waits)}
    for name, _ in PER_LAYER:
        if name in out or name == "trace.overhead_s":
            continue
        if name.endswith("_calls"):
            out[name] = calls[name[:-len("_calls")]]
        elif name.endswith("_s"):
            out[name] = selfs[name[:-len("_s")]]
        else:
            out[name] = tracer.counts[name]
    return out
