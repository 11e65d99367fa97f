"""Layer-span tracer for the adaptir benchmark.

The tracer lives entirely in the benchmark: it patches public adaptir names
where the calling module looks them up (``pipeline.degrade``,
``adapter.rfft2``, ``AdaptIR.fam_forward``, ...) and restores them on
``uninstall``.  Nothing under ``src/`` is edited.

Accounting rules:

* A *layer span* opens around each patched call.  A span's self time is its
  duration minus the time of the spans (and backward closures) nested in it.
* A tensor op is timed as a whole at its outermost call and charged to the
  innermost open layer span, under one of the categories in ``OP_CATEGORY``.
  Ops are not spans, so a layer's self time includes its ops.
  ``baselines.bottleneck_forward`` holds ``gelu`` as a default argument, so
  that default is swapped for the traced op as well.
* Every node recorded on the tape gets its backward closure wrapped.  The
  wrapper charges the closure's time to the layer span and op category that
  were open when the node was created, and removes that time from the
  self time of ``tensor.backward`` (the graph walk).

Spans are kept in memory and written out once, by ``write_spans``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

from adaptir import adapter, baselines, cli, data, fft, host, pipeline, tensor

OP_CATEGORY = {
    "matmul": "matmul",
    "conv2d": "conv2d",
    "softmax": "softmax",
    "softmax_spatial": "softmax",
    "layernorm": "layernorm",
    "gelu": "gelu",
    **{name: "other" for name in (
        "add", "sub", "mul", "tsum", "tmean", "tabs", "sqrt", "cos", "sin",
        "atan2", "hypot", "reshape", "transpose", "depth_to_space")},
}

# span name -> the (owner, attribute) pairs through which callers reach it
LAYER_SPANS = {
    "data.synth_image": [(data, "synth_image"), (pipeline, "synth_image"),
                         (cli, "synth_image")],
    "data.degrade": [(data, "degrade"), (pipeline, "degrade"), (cli, "degrade")],
    "data.downsample_bicubic": [(data, "downsample_bicubic")],
    "data.add_gaussian_noise": [(data, "add_gaussian_noise")],
    "host": [(host, "host_forward"), (pipeline, "host_forward"),
             (cli, "host_forward")],
    # AdaptIR.forward's own work is the branch sum plus the up-projection
    "adapter.up": [(adapter.AdaptIR, "forward"), (adapter.AdaptIR, "__call__")],
    "adapter.down": [(adapter.AdaptIR, "down_project")],
    "adapter.lim": [(adapter.AdaptIR, "lim_forward")],
    "adapter.fam": [(adapter.AdaptIR, "fam_forward")],
    "adapter.csm": [(adapter.AdaptIR, "csm_forward")],
    "fft.rfft2": [(adapter, "rfft2")],
    "fft.irfft2": [(adapter, "irfft2")],
    "baselines.lora": [(baselines.LoRALayer, "effective")],
    "baselines.bottleneck": [(baselines.BottleneckAdapter, "forward"),
                             (baselines.BottleneckAdapter, "__call__")],
    "tensor.backward": [(tensor.Tensor, "backward")],
    "pipeline.train": [(pipeline, "pretrain"), (pipeline, "finetune")],
    "pipeline.loss": [(pipeline, "l1_loss")],
    "pipeline.adamw_step": [(pipeline, "adamw_step")],
    "pipeline.evaluate": [(pipeline, "evaluate")],
    "metrics.psnr": [(pipeline, "psnr")],
    "metrics.ssim": [(pipeline, "ssim")],
    "serialize.load": [(pipeline, "load_host"), (pipeline, "load_adapter")],
    "serialize.save": [(pipeline, "save_host"), (pipeline, "save_adapter")],
}


def _matmul_flops(args, out) -> int:
    return 2 * out.size * args[0].shape[-1]


def _conv2d_flops(args, out) -> int:
    w = args[1]
    return 2 * out.size * w.shape[1] * w.shape[2] * w.shape[3]


_FLOPS = {"matmul": _matmul_flops, "conv2d": _conv2d_flops}


class _Backward:
    """A node's backward closure, charged to the scope that created the node."""

    __slots__ = ("tracer", "fn", "parents", "layer", "category", "flops")

    def __init__(self, tracer, fn, parents, layer, category):
        self.tracer = tracer
        self.fn = fn
        self.parents = parents
        self.layer = layer
        self.category = category
        self.flops = 0

    def __call__(self, g):
        tr = self.tracer
        start = time.perf_counter()
        grads = self.fn(g)
        dur = time.perf_counter() - start
        tr.charge(self.layer, "bwd", dur)
        tr.op_s[(self.layer, self.category, "bwd")] += dur
        if self.flops:
            tr.counts[f"tensor.{self.category}.flops"] += 2 * self.flops
        for parent, grad in zip(self.parents, grads):
            if grad is None:
                continue
            if parent.requires_grad and parent._backward is None:
                tr.counts["tensor.grad_bytes.useful"] += grad.nbytes
            elif tr.is_frozen(parent):
                tr.counts["tensor.grad_bytes.discarded"] += grad.nbytes
            if grad.dtype == np.float64 and parent.dtype == np.float32:
                tr.counts["tensor.f64_outputs"] += 1
        return grads


class Tracer:
    """Collects layer spans, op times and tape counters while installed."""

    def __init__(self):
        self.self_s = defaultdict(float)   # (layer, "fwd" | "bwd") -> seconds
        self.op_s = defaultdict(float)     # (layer, category, phase) -> seconds
        self.counts = defaultdict(int)
        self.step_s: list[float] = []
        self.spans: list[tuple] = []       # (id, parent id, name, start, end, iteration)
        self.negative_self = 0
        self.iteration = 0
        self.tape_bytes_peak = 0
        # frozen host parameters, and the unrecorded values computed from them
        # alone (such as transposed weights); kept alive so ids are not reused
        self.frozen: dict[int, tensor.Tensor] = {}
        self._frozen_views: dict[int, tensor.Tensor] = {}
        self._stack: list[list] = []       # [name, start, child seconds, id]
        self._next_id = 0
        self._op = None                    # (category, input dtype) of the open op
        self._live_tape = 0
        self._step_start = None
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def exit(self) -> None:
        name, start, child, span_id = self._stack.pop()
        end = time.perf_counter()
        self.charge(name, "fwd", end - start - child, nested=False)
        if self._stack:
            self._stack[-1][2] += end - start
        parent = self._stack[-1][3] if self._stack else None
        self.spans.append((span_id, parent, name, start, end, self.iteration))

    def charge(self, layer: str, phase: str, seconds: float, nested: bool = True) -> None:
        """Add ``seconds`` of self time to ``layer``; a nested charge (a
        backward closure) is also taken out of the enclosing span's self time."""
        if seconds < 0.0:
            self.negative_self += 1
        self.self_s[(layer, phase)] += seconds
        if nested and self._stack:
            self._stack[-1][2] += seconds

    def is_frozen(self, t) -> bool:
        return id(t) in self.frozen or id(t) in self._frozen_views

    def layer(self) -> str:
        return self._stack[-1][0] if self._stack else "untraced"

    def run_in_span(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if before:
                before(args)
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if after:
                after(args)
            return out
        return wrapped

    def _boundary_hooks(self) -> dict:
        """Counters recorded at span boundaries: name -> (before, after)."""
        def count(key):
            def bump(_args):
                self.counts[key] += 1
            return bump
        return {
            "host": (self._on_host, None),
            "pipeline.adamw_step": (None, self._on_step_end),
            "data.degrade": (count("data.degrade.calls"), None),
            "fft.rfft2": (count("fft.calls"), None),
            "fft.irfft2": (count("fft.calls"), None),
            "serialize.load": (None, self._on_checkpoint),
            "serialize.save": (None, self._on_checkpoint),
            "tensor.backward": (None, self._on_backward_end),
        }

    def _on_host(self, args) -> None:
        model = args[2]
        for t in model.params.values():
            if not t.requires_grad:
                self.frozen[id(t)] = t
        if tensor._grad_enabled:
            self._step_start = time.perf_counter()

    def _on_step_end(self, _args) -> None:
        if self._step_start is not None:
            self.step_s.append(time.perf_counter() - self._step_start)
            self._step_start = None

    def _on_checkpoint(self, args) -> None:
        self.counts["serialize.bytes"] += os.path.getsize(args[0])

    def _on_backward_end(self, _args) -> None:
        self._live_tape = 0  # the walk consumed the tape
        self._frozen_views.clear()

    def _op_wrapper(self, name: str, fn):
        category = OP_CATEGORY[name]
        flops = _FLOPS.get(category)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self._op is not None:  # nested op: timed by its outermost caller
                return fn(*args, **kwargs)
            first = args[0]
            self._op = (category, getattr(first, "dtype", None))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._op = None
            self.op_s[(self.layer(), category, "fwd")] += dur
            if flops:
                n = flops(args, out)
                self.counts[f"tensor.{category}.flops"] += n
                if isinstance(out._backward, _Backward):
                    out._backward.flops = n
            return out
        return wrapped

    def _node_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapped(data_, parents, backward):
            out = fn(data_, parents, backward)
            if out.dtype == np.float64 and any(p.dtype == np.float32 for p in parents):
                self.counts["tensor.f64_outputs"] += 1
            if out._backward is None:
                if tensor._grad_enabled and parents and all(map(self.is_frozen, parents)):
                    self._frozen_views[id(out)] = out
            else:
                category = self._op[0] if self._op else "other"
                out._backward = _Backward(self, out._backward, parents,
                                          self.layer(), category)
                self.counts["tensor.nodes"] += 1
                self._live_tape += out.data.nbytes
                self.tape_bytes_peak = max(self.tape_bytes_peak, self._live_tape)
            return out
        return wrapped

    def _erf_wrapper(self, fn):
        # gelu calls scipy's erf on its input; an f64 result there means an
        # f32 graph was promoted inside the op, which no node output shows
        @functools.wraps(fn)
        def wrapped(x):
            out = fn(x)
            if self._op is not None and self._op[1] == np.float32 and out.dtype == np.float64:
                self.counts["tensor.f64_outputs"] += 1
            return out
        return wrapped

    # -- install / uninstall -------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._boundary_hooks()
        for name, sites in LAYER_SPANS.items():
            for owner, attr in sites:
                wrapper = self._span_wrapper(name, owner.__dict__[attr], *hooks.get(name, ()))
                self._patch(owner, attr, wrapper)
        traced_ops = {}  # original op -> its wrapper
        for name in OP_CATEGORY:
            original = tensor.__dict__[name]
            traced_ops[original] = self._op_wrapper(name, original)
            self._patch(tensor, name, traced_ops[original])
        # bottleneck_forward binds T.gelu as a default argument at import time,
        # so patching the module name alone would leave its gelu untraced
        fn = baselines.bottleneck_forward
        self._patches.append((fn, "__defaults__", fn.__defaults__))
        fn.__defaults__ = tuple(traced_ops.get(d, d) for d in fn.__defaults__)
        for owner in (tensor, fft):
            self._patch(owner, "_node", self._node_wrapper(owner.__dict__["_node"]))
        self._patch(tensor, "_erf", self._erf_wrapper(tensor.__dict__["_erf"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.frozen.clear()
        self._frozen_views.clear()
        self._step_start = None
        self._live_tape = 0

    def write_spans(self, path) -> None:
        fields = ("id", "parent", "name", "start", "end", "iteration")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": fields, "spans": self.spans}, f)
