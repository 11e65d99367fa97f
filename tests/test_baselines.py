"""LoRA and bottleneck baselines: closed-form oracles and no-op inits."""

import math

import numpy as np
import pytest

from adaptir import tensor as T
from adaptir.adapter import ConfigError
from adaptir.baselines import LoRALayer, BottleneckAdapter, bottleneck_forward
from adaptir.tensor import Tensor, no_grad


def test_lora_rank_validation():
    with pytest.raises(ConfigError):
        LoRALayer(8, 0)


def test_lora_zero_init_is_identity_on_weights():
    layer = LoRALayer(8, rank=2, seed=1)
    w = Tensor(np.random.default_rng(2).standard_normal((8, 8)).astype(np.float32))
    for key in ("q", "v"):
        assert np.all(layer.effective(key, w).data == w.data)


def test_lora_update_is_unscaled_b_times_a():
    layer = LoRALayer(8, rank=3, seed=0)
    rng = np.random.default_rng(3)
    layer.params["b_q"].data = rng.standard_normal((8, 3)).astype(np.float32)
    w = rng.standard_normal((8, 8)).astype(np.float32)
    expect = w + layer.params["b_q"].data @ layer.params["a_q"].data
    assert np.array_equal(layer.effective("q", Tensor(w)).data, expect)


def test_lora_increment_is_low_rank():
    layer = LoRALayer(16, rank=2, seed=4)
    rng = np.random.default_rng(5)
    layer.params["b_v"].data = rng.standard_normal((16, 2)).astype(np.float32)
    w = Tensor(np.zeros((16, 16), dtype=np.float32))
    inc = layer.effective("v", w).data
    sv = np.linalg.svd(inc.astype(np.float64), compute_uv=False)
    assert np.all(sv[2:] < 1e-6)


def test_lora_can_fit_a_low_rank_target():
    # least-squares sanity: gradient steps on (a, b) recover a rank-1 target
    rng = np.random.default_rng(6)
    target = np.outer(rng.standard_normal(6), rng.standard_normal(6))
    layer = LoRALayer(6, rank=1, seed=7)
    w0 = Tensor(np.zeros((6, 6)))
    for p in layer.params.values():
        p.data = p.data.astype(np.float64)
    layer.params["b_q"].data += 0.01  # break the zero saddle
    for _ in range(500):
        diff = layer.effective("q", w0) - Tensor(target)
        loss = T.tsum(diff * diff)
        loss.backward()
        for k in ("a_q", "b_q"):
            p = layer.params[k]
            p.data = p.data - 0.01 * p.grad
            p.grad = None
    final = layer.effective("q", w0).data
    assert np.abs(final - target).max() < 1e-3


def test_bottleneck_zero_init_is_identity():
    ad = BottleneckAdapter(8, hidden=3, seed=8)
    x = Tensor(np.random.default_rng(9).standard_normal((2, 5, 8)).astype(np.float32))
    with no_grad():
        assert np.all(ad(x).data == x.data)


def test_bottleneck_matches_numpy_composition():
    ad = BottleneckAdapter(8, hidden=3, seed=10)
    rng = np.random.default_rng(11)
    for p in ad.params.values():
        p.data = (p.data + 0.3 * rng.standard_normal(p.shape)).astype(np.float64)
    x = rng.standard_normal((2, 5, 8))
    with no_grad():
        got = ad(Tensor(x)).data
    p = {k: v.data for k, v in ad.params.items()}
    h = x @ p["down_w"].T + p["down_b"]
    h = h * 0.5 * (1.0 + np.vectorize(math.erf)(h / np.sqrt(2.0)))
    expect = x + h @ p["up_w"].T + p["up_b"]
    assert np.abs(got - expect).max() < 1e-12


def test_bottleneck_validation_and_count():
    with pytest.raises(ConfigError):
        BottleneckAdapter(8, hidden=0)
    ad = BottleneckAdapter(64, hidden=5)
    # 5*64 down + 5 + 64*5 up + 64
    assert sum(t.size for t in ad.params.values()) == 5 * 64 + 5 + 64 * 5 + 64 == 709


def test_custom_activation_hook():
    ad = BottleneckAdapter(4, hidden=2, seed=12)
    rng = np.random.default_rng(13)
    for p in ad.params.values():
        p.data = p.data + 0.3 * rng.standard_normal(p.shape).astype(np.float32)
    x = Tensor(rng.standard_normal((1, 3, 4)).astype(np.float32))
    with no_grad():
        relu_out = bottleneck_forward(x, ad.params,
                                      activation=lambda t: (t + T.tabs(t)) * 0.5)
        gelu_out = bottleneck_forward(x, ad.params)
    assert not np.allclose(relu_out.data, gelu_out.data)
