"""Frozen toy transformer restoration model with per-layer adapter slots.

Pipeline: task-specific CNN head (two 3x3 convs, the second stride-2, so
a 32x32 input becomes a 16x16 feature map / 256 tokens), pre-norm
transformer body over the flattened sequence, skip connection from the
shallow feature, and a task-specific tail (3x3 conv into depth-to-space).
The head is one ``tensor.conv_gelu_conv`` node that keeps only its image.
Each body layer's attention, with its four projections, is one
``tensor.attention`` node, and its MLP one ``tensor.mlp`` node; both walk
the batch one image at a time.
The tail's upsampling factor is 2*s for an SR-by-s task and 2 for
same-size tasks, undoing the head's downsampling.

Every layer has one adapter slot, the ``PETLMethod`` hooks.  Three
methods fill it: feature-map adapters (the three-branch module) at a
configurable position/form, LoRA on the query/value projections, and
bottleneck adapters after the attention and MLP sublayers.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .adapter import AdaptIR, AdaptIRConfig, ConfigError, _uniform, check_type, config_from
from .baselines import BottleneckAdapter, LoRALayer
from .data import parse_task

__all__ = [
    "HostConfig",
    "HostModel",
    "PETLMethod",
    "AdapterStack",
    "LoRAStack",
    "BottleneckStack",
    "METHODS",
    "host_forward",
    "freeze",
    "host_checksum",
]

HEAD_DOWNSAMPLE = 2


@dataclass(frozen=True)
class HostConfig:
    embed: int = 64
    layers: int = 4
    heads: int = 4
    mlp_ratio: int = 4
    tasks: tuple[str, ...] = ("sr2", "noise25")
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for key in ("embed", "layers", "heads", "mlp_ratio"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.embed % self.heads != 0:
            raise ConfigError(f"embed {self.embed} not divisible by heads {self.heads}")
        if not self.tasks:
            raise ConfigError("at least one task is required")
        for t in self.tasks:
            parse_task(t)
            if self.tasks.count(t) > 1:
                raise ConfigError(f"task {t!r} is listed more than once")


class HostModel:
    def __init__(self, config: HostConfig):
        self.config = config
        self.task_scales = {t: parse_task(t).scale for t in config.tasks}
        self.params: dict[str, Tensor] = self._init_params()

    def _init_params(self) -> dict[str, Tensor]:
        cfg = self.config
        c, dt = cfg.embed, np.float32
        rng = np.random.default_rng(cfg.seed)
        p: dict[str, np.ndarray] = {}
        for t in cfg.tasks:
            p[f"head.{t}.conv1_w"] = _uniform(rng, (c, 3, 3, 3), 27, dt)
            p[f"head.{t}.conv1_b"] = np.zeros(c, dtype=dt)
            p[f"head.{t}.conv2_w"] = _uniform(rng, (c, c, 3, 3), 9 * c, dt)
            p[f"head.{t}.conv2_b"] = np.zeros(c, dtype=dt)
        hid = c * cfg.mlp_ratio
        for i in range(cfg.layers):
            pre = f"body.{i}."
            p[pre + "ln1_g"] = np.ones(c, dtype=dt)
            p[pre + "ln1_b"] = np.zeros(c, dtype=dt)
            for name in ("wq", "wk", "wv", "wo"):
                p[pre + name] = _uniform(rng, (c, c), c, dt)
                p[pre + name.replace("w", "b")] = np.zeros(c, dtype=dt)
            p[pre + "ln2_g"] = np.ones(c, dtype=dt)
            p[pre + "ln2_b"] = np.zeros(c, dtype=dt)
            p[pre + "mlp_w1"] = _uniform(rng, (hid, c), c, dt)
            p[pre + "mlp_b1"] = np.zeros(hid, dtype=dt)
            p[pre + "mlp_w2"] = _uniform(rng, (c, hid), hid, dt)
            p[pre + "mlp_b2"] = np.zeros(c, dtype=dt)
        for t in cfg.tasks:
            f = HEAD_DOWNSAMPLE * self.task_scales[t]
            p[f"tail.{t}.conv_w"] = _uniform(rng, (3 * f * f, c, 3, 3), 9 * c, dt)
            p[f"tail.{t}.conv_b"] = np.zeros(3 * f * f, dtype=dt)
        return {k: Tensor(v, requires_grad=True) for k, v in p.items()}

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def param_count(self) -> int:
        return sum(t.size for t in self.params.values())

    def resolve_task(self, task: str) -> str:
        """Map a (possibly unregistered) task onto a registered head/tail.

        Unseen degradations reuse the head/tail of a registered task with
        the same output geometry, mirroring how a pretrained model is
        transferred to a new degradation.
        """
        if task in self.task_scales:
            return task
        scale = parse_task(task).scale
        for t, s in self.task_scales.items():
            if s == scale:
                return t
        raise ConfigError(
            f"task {task!r} not registered and no registered task has scale {scale}")


# -- the adapter slot: one PETL method per host -----------------------------


def _distribute(total: int, units: int) -> list[int]:
    base, extra = divmod(max(total, units), units)
    return [base + (1 if i < extra else 0) for i in range(units)]


class PETLMethod:
    """The host's adapter slot.  In transformer layer ``i``, ``_layer_forward``
    passes the query/value weights through ``qv`` and each sublayer's output
    through ``after_attention``/``after_mlp`` (``x_norm`` is the sublayer's
    normalized input, ``hw`` the feature-map extent).  Every hook is a
    pass-through here, so a base instance is the un-adapted host.  A
    registered stack also defines ``to_config``, its checkpoint header
    besides the host config, and the classmethod ``from_config(host_config,
    cfg)`` that rebuilds it from that header."""

    method = "none"

    def qv(self, i: int, wq: Tensor, wv: Tensor) -> tuple[Tensor, Tensor]:
        return wq, wv

    def after_attention(self, i: int, x_norm: Tensor, out: Tensor, hw) -> Tensor:
        return out

    def after_mlp(self, i: int, x_norm: Tensor, out: Tensor, hw) -> Tensor:
        return out

    def parameters(self) -> dict[str, Tensor]:
        return {}

    def param_count(self) -> int:
        return sum(t.size for t in self.parameters().values())


class AdapterStack(PETLMethod):
    """Per-layer feature-map adapters, inserted where ``config.position``
    and ``config.form`` say; layer ``i`` is seeded ``config.seed + i``."""

    method = "adaptir"

    def __init__(self, host_config: HostConfig, adapter_config: AdaptIRConfig):
        if adapter_config.channels != host_config.embed:
            raise ConfigError(
                f"adapter channels {adapter_config.channels} != host embed {host_config.embed}")
        self.config = adapter_config
        self.layers = [AdaptIR(replace(adapter_config, seed=adapter_config.seed + i))
                       for i in range(host_config.layers)]

    def _insert(self, position: str, i: int, x_norm: Tensor, out: Tensor,
                hw: tuple[int, int]) -> Tensor:
        """Add adapter ``i`` at ``position``: parallel forms adapt the
        sublayer's input, sequential ones its output."""
        if self.config.position != position:
            return out
        src = x_norm if self.config.form == "parallel" else out
        fmap = _tokens_to_map(src, *hw)
        return out + _map_to_tokens(self.layers[i](fmap))

    def after_attention(self, i, x_norm, out, hw):
        return self._insert("attention", i, x_norm, out, hw)

    def after_mlp(self, i, x_norm, out, hw):
        return self._insert("mlp", i, x_norm, out, hw)

    def parameters(self) -> dict[str, Tensor]:
        return {f"layer{i}.{k}": v for i, ad in enumerate(self.layers)
                for k, v in ad.parameters().items()}

    def to_config(self) -> dict:
        return {"adapter": asdict(self.config)}

    @classmethod
    def from_config(cls, host_config, cfg):
        return cls(host_config, config_from(AdaptIRConfig, cfg.get("adapter"), "header"))


class LoRAStack(PETLMethod):
    """Low-rank increments on every layer's query/value projections."""

    method = "lora"

    def __init__(self, host_config: HostConfig, ranks: Sequence[int], seed: int = 0):
        if len(ranks) != host_config.layers:
            raise ConfigError("one rank per layer required")
        self.layers = [LoRALayer(host_config.embed, r, seed=seed + i)
                       for i, r in enumerate(ranks)]

    @classmethod
    def with_budget(cls, host_config: HostConfig, target: int, seed: int = 0) -> "LoRAStack":
        """Ranks summing to about ``target`` parameters: a rank-r layer
        holds r * C for each of the four factors (A, B for q and v)."""
        ranks = _distribute(round(target / (4 * host_config.embed)), host_config.layers)
        return cls(host_config, ranks=ranks, seed=seed)

    def qv(self, i, wq, wv):
        lora = self.layers[i]
        return lora.effective("q", wq), lora.effective("v", wv)

    def parameters(self) -> dict[str, Tensor]:
        return {f"layer{i}.{k}": v for i, l in enumerate(self.layers)
                for k, v in l.params.items()}

    def to_config(self) -> dict:
        return {"ranks": [l.rank for l in self.layers]}

    @classmethod
    def from_config(cls, host_config, cfg):
        ranks = check_type(cfg.get("ranks"), tuple[int, ...], "header: LoRAStack.ranks")
        return cls(host_config, ranks=ranks)


class BottleneckStack(PETLMethod):
    """Residual bottlenecks after every layer's attention and MLP sublayers."""

    method = "bottleneck"

    def __init__(self, host_config: HostConfig, hidden: Sequence[int], seed: int = 0):
        if len(hidden) != 2 * host_config.layers:
            raise ConfigError("two hidden widths per layer required (attn + mlp)")
        # (after attention, after MLP) per layer; the k-th adapter gets seed + k
        ads = [BottleneckAdapter(host_config.embed, h, seed=seed + k)
               for k, h in enumerate(hidden)]
        self.layers = list(zip(ads[0::2], ads[1::2]))

    @classmethod
    def with_budget(cls, host_config: HostConfig, target: int,
                    seed: int = 0) -> "BottleneckStack":
        """Hidden widths summing to about ``target`` parameters: each
        adapter holds C for its up bias plus 2C + 1 per hidden unit (a
        down row, its bias and an up column)."""
        c, l = host_config.embed, host_config.layers
        widths_total = round((target - 2 * l * c) / (2 * c + 1))
        return cls(host_config, hidden=_distribute(widths_total, 2 * l), seed=seed)

    def after_attention(self, i, x_norm, out, hw):
        return self.layers[i][0](out)

    def after_mlp(self, i, x_norm, out, hw):
        return self.layers[i][1](out)

    def parameters(self) -> dict[str, Tensor]:
        return {f"layer{i}.{site}.{k}": v for i, pair in enumerate(self.layers)
                for site, ad in zip(("attn", "mlp"), pair) for k, v in ad.params.items()}

    def to_config(self) -> dict:
        return {"hidden": [ad.params["down_w"].shape[0]
                           for pair in self.layers for ad in pair]}

    @classmethod
    def from_config(cls, host_config, cfg):
        hidden = check_type(cfg.get("hidden"), tuple[int, ...], "header: BottleneckStack.hidden")
        return cls(host_config, hidden=hidden)


METHODS = {cls.method: cls for cls in (AdapterStack, LoRAStack, BottleneckStack)}

_NO_ADAPTER = PETLMethod()


# -- forward -----------------------------------------------------------------


def _tokens_to_map(x: Tensor, h: int, w: int) -> Tensor:
    n, _, c = x.shape
    return T.reshape(T.transpose(x, (0, 2, 1)), (n, c, h, w))


def _map_to_tokens(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    return T.transpose(T.reshape(x, (n, c, h * w)), (0, 2, 1))


def _layer_forward(x: Tensor, model: HostModel, i: int, adapter: PETLMethod,
                   feat_hw: tuple[int, int]) -> Tensor:
    """Pre-norm layer ``i``: ``x + attention(ln1(x))``, then ``+ mlp(ln2(x))``,
    each sublayer one tensor node, with the adapter's hooks around them."""
    p = model.params
    pre = f"body.{i}."

    # no sublayer output is bound to a name, so none outlives its addition
    x_norm = T.layernorm(x, p[pre + "ln1_g"], p[pre + "ln1_b"])
    wq, wv = adapter.qv(i, p[pre + "wq"], p[pre + "wv"])
    x = x + adapter.after_attention(
        i, x_norm, T.attention(x_norm, wq, p[pre + "bq"], p[pre + "wk"], p[pre + "bk"], wv,
                               p[pre + "bv"], p[pre + "wo"], p[pre + "bo"], model.config.heads),
        feat_hw)

    x_norm = T.layernorm(x, p[pre + "ln2_g"], p[pre + "ln2_b"])
    return x + adapter.after_mlp(
        i, x_norm, T.mlp(x_norm, p[pre + "mlp_w1"], p[pre + "mlp_b1"], p[pre + "mlp_w2"],
                         p[pre + "mlp_b2"]),
        feat_hw)


def host_forward(img: Tensor, task: str, model: HostModel,
                 adapter: PETLMethod | None = None) -> Tensor:
    """Head -> flatten -> adapted transformer layers -> skip -> tail."""
    cfg = model.config
    reg = model.resolve_task(task)
    p = model.params
    if adapter is None:
        adapter = _NO_ADAPTER
    n, ci, hi, wi = img.shape
    if ci != 3:
        raise T.ShapeError(f"expected RGB input, got {ci} channels")
    if hi % HEAD_DOWNSAMPLE or wi % HEAD_DOWNSAMPLE:
        raise T.ShapeError(f"input {hi}x{wi} incompatible with head downsampling")

    shallow = T.conv_gelu_conv(img, p[f"head.{reg}.conv1_w"], p[f"head.{reg}.conv1_b"],
                               p[f"head.{reg}.conv2_w"], p[f"head.{reg}.conv2_b"],
                               HEAD_DOWNSAMPLE)
    fh, fw = shallow.shape[2], shallow.shape[3]

    tokens = _map_to_tokens(shallow)
    for i in range(cfg.layers):
        tokens = _layer_forward(tokens, model, i, adapter, (fh, fw))
    body = _tokens_to_map(tokens, fh, fw)

    feat = body + shallow  # skip connection before the tail
    f = HEAD_DOWNSAMPLE * model.task_scales[reg]
    out = T.conv2d(feat, p[f"tail.{reg}.conv_w"], p[f"tail.{reg}.conv_b"])
    return T.depth_to_space(out, f)


# -- freezing -------------------------------------------------------------------


def freeze(model: HostModel) -> HostModel:
    for t in model.params.values():
        t.requires_grad = False
        t.grad = None
    return model


def host_checksum(model: HostModel) -> str:
    """SHA-256 over all host parameters in declared order."""
    h = hashlib.sha256()
    for name, t in model.params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()
