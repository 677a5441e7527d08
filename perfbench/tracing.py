"""Span tracing of pairpose's public functions, installed from outside the
package.

``instrument`` replaces each traced function in every module namespace where
callers look it up (``net`` imported ``attention_target``,
``poses_from_matches`` and ``average_poses`` into its own namespace) and
restores the originals on exit.  Each call records a span
``[name, start, end, parent index, request id]`` in memory; the autodiff ops
additionally wrap the ``_backward`` closure of the tensor they return, so
backward time is attributed per op.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

# the closed autodiff op set; each gets fwd/bwd spans
OPS = ("matmul", "transpose", "add", "concat_cols", "relu", "row_softmax",
       "row_l2_normalize", "mean_pool_rows", "repeat_rows", "mse", "l1",
       "scalar_scale", "mean_pose_point_distance")

NET_FUNCTIONS = ("train", "evaluate_dataset", "predict", "detach_params",
                 "prepare_scene", "forward_all", "psn_forward",
                 "feature_forward", "attention_forward",
                 "bidirectional_forward", "direct_pose_forward",
                 "scene_losses")

LAYERS = ("synth", "fileio", "ppf", "net", "autodiff", "solver", "metrics")


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries (targets built and consumed, pose pairs attempted)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = None
        self.targets = []           # (request id, bytes) per PPF target built
        self._target_ids = {}       # id(weights) -> (weakref, target index)
        self.useful_targets = set()
        self.pairs = Counter()      # "attempted" / "returned" poses

    def timed(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    # -- counters -----------------------------------------------------------

    def target_built(self, weights):
        index = len(self.targets)
        self.targets.append((self.request, int(weights.nbytes)))
        self._target_ids[id(weights)] = (weakref.ref(weights), index)

    def target_index(self, weights):
        entry = self._target_ids.get(id(weights))
        if entry is None or entry[0]() is not weights:
            return None
        return entry[1]

    # -- report ---------------------------------------------------------------

    def write(self, path, origin):
        """One JSON array per line: [index, name, start, end, parent, request],
        times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start - origin, end - origin,
                                     parent, request]) + "\n")

    def summary(self):
        """Inclusive time and call count per span name, self time per span
        name and per layer (span duration minus its children's)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += end - start - child[i]
        return total, own, calls, layer_self


@contextmanager
def patched(targets):
    """Set ``module.attr = value`` for each (module, attr, value); restore."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, value in targets:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _op_wrapper(tracer, op, fn):
    fwd = tracer.timed(f"autodiff.{op}", fn)
    bwd_name = f"autodiff.{op}.bwd"

    def wrapper(*args, **kwargs):
        out = fwd(*args, **kwargs)
        back = out._backward
        if back is not None:
            out._backward = tracer.timed(bwd_name, back)
        return out

    return wrapper


def instrument(tracer):
    """Context manager that routes every traced pairpose call through
    ``tracer``."""
    from pairpose import autodiff, fileio, metrics, net, ppf, solver, synth

    targets = []

    def wrap(layer_module, attr, homes=(), fn=None):
        name = f"{layer_module.__name__.rsplit('.', 1)[-1]}.{attr}"
        for home in (layer_module, *homes):
            original = getattr(home, attr)
            targets.append((home, attr,
                            tracer.timed(name, fn(original) if fn else original)))

    def counting_target(original):
        def attention_target(*args, **kwargs):
            result = original(*args, **kwargs)
            tracer.target_built(result.weights)
            return result
        return attention_target

    def counting_pairs(original):
        def poses_from_matches(c, num_pairs, seed):
            result = original(c, num_pairs, seed)
            tracer.pairs["attempted"] += num_pairs
            tracer.pairs["returned"] += len(result)
            return result
        return poses_from_matches

    wrap(synth, "make_dataset")
    for attr in ("save_dataset", "load_dataset", "write_checkpoint",
                 "read_checkpoint"):
        wrap(fileio, attr)
    wrap(ppf, "attention_target", homes=(net,), fn=counting_target)
    for attr in NET_FUNCTIONS:
        wrap(net, attr)
    wrap(solver, "poses_from_matches", homes=(net,), fn=counting_pairs)
    wrap(solver, "average_poses", homes=(net,))
    for attr in ("add_metric", "adds_metric", "model_diameter"):
        wrap(metrics, attr)
    for attr in ("backward", "adam_step", "nearest_point_selection"):
        wrap(autodiff, attr)
    for op in OPS:
        targets.append((autodiff, op, _op_wrapper(tracer, op,
                                                  getattr(autodiff, op))))

    # a target is useful when the attention loss built on it sends a gradient
    # back, i.e. the loss reaches the trained result
    original_attention_loss = net.attention_loss

    def attention_loss(m, w):
        out = original_attention_loss(m, w)
        index = tracer.target_index(w.values)
        back = out._backward
        if index is not None and back is not None:
            def consumed(g):
                tracer.useful_targets.add(index)
                back(g)
            out._backward = consumed
        return out

    targets.append((net, "attention_loss", attention_loss))
    return patched(targets)
