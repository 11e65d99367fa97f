"""Minimal PETL baselines sharing the host's adapter slot.

Two methods from the comparison harness:

* LoRA: low-rank increments on the query and value projections,
  W_eff = W + B A with B zero-initialized and no scale.
* Bottleneck adapter: residual down/up bottleneck applied after the
  attention and MLP sublayers, up-projection zero-initialized.

Both are exact no-ops at construction, like the main adapter.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .adapter import ConfigError, _uniform

__all__ = ["LoRALayer", "BottleneckAdapter", "bottleneck_forward"]


class LoRALayer:
    """Per-layer low-rank factors for the query and value projections."""

    def __init__(self, dim: int, rank: int, seed: int = 0):
        if rank < 1:
            raise ConfigError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}
        for key in ("q", "v"):
            self.params[f"a_{key}"] = Tensor(
                _uniform(rng, (rank, dim), dim, np.float32), requires_grad=True)
            self.params[f"b_{key}"] = Tensor(
                np.zeros((dim, rank), dtype=np.float32), requires_grad=True)

    def effective(self, key: str, w_frozen: Tensor) -> Tensor:
        """Effective weight W + B A."""
        return w_frozen + T.matmul(self.params[f"b_{key}"], self.params[f"a_{key}"])


class BottleneckAdapter:
    """Residual bottleneck x + up(gelu(down(x))), inserted after a sublayer."""

    def __init__(self, dim: int, hidden: int, seed: int = 0):
        if hidden < 1:
            raise ConfigError(f"hidden width must be >= 1, got {hidden}")
        rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {
            "down_w": Tensor(_uniform(rng, (hidden, dim), dim, np.float32), requires_grad=True),
            "down_b": Tensor(np.zeros(hidden, dtype=np.float32), requires_grad=True),
            "up_w": Tensor(np.zeros((dim, hidden), dtype=np.float32), requires_grad=True),
            "up_b": Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True),
        }

    def forward(self, x: Tensor) -> Tensor:
        return bottleneck_forward(x, self.params)

    __call__ = forward


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer over the last axis: ``x @ w.T + b``."""
    return T.matmul(x, T.transpose(w, (1, 0))) + b


def bottleneck_forward(x: Tensor, p: dict[str, Tensor], activation=T.gelu) -> Tensor:
    h = activation(_linear(x, p["down_w"], p["down_b"]))
    # (x + h @ w.T) + b, not x + _linear(h, ...): the order fixes the rounding
    return x + T.matmul(h, T.transpose(p["up_w"], (1, 0))) + p["up_b"]
