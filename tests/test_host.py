"""Frozen host model: shapes, zero-init transparency of every adapter
method and insertion variant, freeze contract, insertion-path oracle."""

from dataclasses import replace

import numpy as np
import pytest

from adaptir import tensor as T
from adaptir.adapter import AdaptIRConfig, ConfigError
from adaptir.host import (HEAD_DOWNSAMPLE, HostConfig, HostModel, AdapterStack,
                          LoRAStack, BottleneckStack, host_forward, freeze,
                          host_checksum)
from adaptir.tensor import Tensor, no_grad


SMALL = HostConfig(embed=16, layers=2, heads=2,
                   tasks=("sr2", "noise25"), seed=0)


def small_model():
    return HostModel(SMALL)


def rand_input(seed=0, hw=16):
    rng = np.random.default_rng(seed)
    return Tensor(rng.random((1, 3, hw, hw)).astype(np.float32))


def test_output_shapes_per_task():
    model = small_model()
    x = rand_input()
    with no_grad():
        assert host_forward(x, "noise25", model).shape == (1, 3, 16, 16)
        assert host_forward(x, "sr2", model).shape == (1, 3, 32, 32)


def test_the_head_runs_as_one_fused_node(monkeypatch):
    # the head is one conv_gelu_conv node: the forward's only conv2d is the
    # tail's, no gelu runs outside the fused ops, and backward reaches the
    # head's weights through that node
    model = small_model()
    calls = []

    def counted(name):
        original = getattr(T, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapped

    for name in ("conv2d", "gelu"):
        monkeypatch.setattr(T, name, counted(name))
    out = host_forward(rand_input(), "noise25", model)
    assert calls == ["conv2d"]
    T.tsum(out).backward()
    assert all(p.grad is not None for k, p in model.params.items() if ".noise25." in k)
    assert model.params["head.sr2.conv1_w"].grad is None


def test_head_downsampling_constraint():
    model = small_model()
    with pytest.raises(T.ShapeError):
        host_forward(Tensor(np.zeros((1, 3, 15, 15), dtype=np.float32)),
                     "noise25", model)
    with pytest.raises(T.ShapeError):
        host_forward(Tensor(np.zeros((1, 4, 16, 16), dtype=np.float32)),
                     "noise25", model)


def test_resolve_task_reuses_matching_scale():
    model = small_model()
    assert model.resolve_task("sr2") == "sr2"
    assert model.resolve_task("noise25") == "noise25"
    # unregistered scale-2 task reuses the scale-2 head/tail
    assert model.resolve_task("second_order_s2_sig25") == "sr2"
    # unregistered scale-1 task reuses a scale-1 head/tail
    assert model.resolve_task("darken_f0.5_g1.2") == "noise25"


ADAPTERS = {
    "adaptir": lambda: AdapterStack(SMALL, AdaptIRConfig(channels=16, reduction=4,
                                                         lim_rank=2, seed=5)),
    "lora": lambda: LoRAStack(SMALL, ranks=[2] * SMALL.layers, seed=5),
    "bottleneck": lambda: BottleneckStack(SMALL, hidden=[3] * (2 * SMALL.layers), seed=5),
}


@pytest.mark.parametrize("method", sorted(ADAPTERS))
def test_zero_init_transparency(method):
    model = small_model()
    adapter = ADAPTERS[method]()
    x = rand_input(1)
    with no_grad():
        base = host_forward(x, "sr2", model).data
        adapted = host_forward(x, "sr2", model, adapter=adapter).data
    assert np.array_equal(base, adapted)  # bit-identical


@pytest.mark.parametrize("position", ["mlp", "attention"])
@pytest.mark.parametrize("form", ["parallel", "sequential"])
def test_zero_init_transparency_all_insertions(position, form):
    model = small_model()
    adapter = AdapterStack(SMALL, AdaptIRConfig(channels=16, reduction=4, lim_rank=2,
                                                seed=6, position=position, form=form))
    x = rand_input(2)
    with no_grad():
        base = host_forward(x, "noise25", model).data
        adapted = host_forward(x, "noise25", model, adapter=adapter).data
    assert np.array_equal(base, adapted)


def trained_stack(seed=7):
    stack = AdapterStack(SMALL, AdaptIRConfig(channels=16, reduction=4,
                                              lim_rank=2, seed=seed))
    rng = np.random.default_rng(seed)
    for p in stack.parameters().values():
        p.data = (p.data + 0.1 * rng.standard_normal(p.shape)).astype(np.float32)
    return stack


def test_insertion_variants_are_distinct_with_trained_weights():
    model = small_model()
    stack = trained_stack()
    x = rand_input(3)
    outs = []
    with no_grad():
        for pos in ("mlp", "attention"):
            for form in ("parallel", "sequential"):
                stack.config = replace(stack.config, position=pos, form=form)
                outs.append(host_forward(x, "sr2", model, adapter=stack).data)
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            assert not np.allclose(outs[i], outs[j], atol=1e-7), (i, j)


def test_parallel_mlp_insertion_oracle():
    """One-layer host, parallel-MLP insertion: the output difference vs
    the un-adapted forward must equal the adapter's contribution pushed
    through the (linear) tail, with the residual stream up to the MLP's
    layernorm recomputed independently in numpy."""
    cfg = HostConfig(embed=16, layers=1, heads=2,
                     tasks=("noise25",), seed=1)
    model = HostModel(cfg)
    stack = AdapterStack(cfg, AdaptIRConfig(channels=16, reduction=4,
                                            lim_rank=2, seed=8))
    rng = np.random.default_rng(9)
    for p in stack.parameters().values():
        p.data = (p.data + 0.1 * rng.standard_normal(p.shape)).astype(np.float32)
    x = rand_input(4)
    p_ = {k: v.data.astype(np.float64) for k, v in model.params.items()}

    def ln(z, g, b):
        mu = z.mean(axis=-1, keepdims=True)
        var = z.var(axis=-1, keepdims=True)
        return (z - mu) / np.sqrt(var + 1e-5) * g + b

    with no_grad():
        base = host_forward(x, "noise25", model).data
        adapted = host_forward(x, "noise25", model, adapter=stack).data

        # head (reuse the conv op, already oracle-checked in test_tensor)
        h = T.gelu(T.conv2d(x, model.params["head.noise25.conv1_w"],
                            model.params["head.noise25.conv1_b"]))
        shallow = T.conv2d(h, model.params["head.noise25.conv2_w"],
                           model.params["head.noise25.conv2_b"],
                           stride=HEAD_DOWNSAMPLE).data.astype(np.float64)

    # residual stream through attention, in plain numpy
    tokens = shallow.reshape(1, 16, 64).transpose(0, 2, 1)
    xn = ln(tokens, p_["body.0.ln1_g"], p_["body.0.ln1_b"])
    q = xn @ p_["body.0.wq"].T + p_["body.0.bq"]
    k = xn @ p_["body.0.wk"].T + p_["body.0.bk"]
    v = xn @ p_["body.0.wv"].T + p_["body.0.bv"]

    def split(z):
        return z.reshape(1, 64, 2, 8).transpose(0, 2, 1, 3)

    q, k, v = split(q), split(k), split(v)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(8.0)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    ctx = (e / e.sum(axis=-1, keepdims=True)) @ v
    ctx = ctx.transpose(0, 2, 1, 3).reshape(1, 64, 16)
    x_mid = tokens + ctx @ p_["body.0.wo"].T + p_["body.0.bo"]

    # the parallel adapter sees the MLP sublayer's layernormed tokens
    xn2 = ln(x_mid, p_["body.0.ln2_g"], p_["body.0.ln2_b"])
    fmap = Tensor(xn2.transpose(0, 2, 1).reshape(1, 16, 8, 8).astype(np.float32))
    with no_grad():
        delta_map = stack.layers[0](fmap).data
        # tail conv + depth_to_space are linear, so they map the delta alone
        tail_delta = T.depth_to_space(
            T.conv2d(Tensor(delta_map), model.params["tail.noise25.conv_w"], None),
            HEAD_DOWNSAMPLE).data
    assert np.abs((adapted - base) - tail_delta).max() < 1e-5


def test_freeze_contract_and_trainable_parameters():
    model = small_model()
    assert all(p.requires_grad for p in model.params.values())
    T.tsum(host_forward(rand_input(), "noise25", model)).backward()
    assert model.params["body.0.wq"].grad is not None
    freeze(model)
    assert all(not p.requires_grad and p.grad is None for p in model.params.values())
    # with an adapter in the slot, gradient reaches only the adapter
    stack = ADAPTERS["adaptir"]()
    assert all(p.requires_grad for p in stack.parameters().values())
    T.tsum(host_forward(rand_input(), "noise25", model, adapter=stack)).backward()
    assert all(p.grad is None for p in model.params.values())
    assert any(p.grad is not None for p in stack.parameters().values())


def test_checksum_detects_any_parameter_change():
    model = small_model()
    before = host_checksum(model)
    assert before == host_checksum(model)
    name = next(iter(model.params))
    model.params[name].data = model.params[name].data.copy()
    model.params[name].data.flat[0] += 1e-7
    assert host_checksum(model) != before


def test_param_count_matches_manual_sum():
    model = small_model()
    assert model.param_count() == sum(p.size for p in model.params.values())


def test_stack_ranks_and_hidden_widths_validation():
    with pytest.raises(ConfigError):
        LoRAStack(SMALL, ranks=[1, 2, 3])  # wrong length
    with pytest.raises(ConfigError):
        BottleneckStack(SMALL, hidden=[1, 2, 3])  # needs 2 per layer
    mixed = LoRAStack(SMALL, ranks=[1, 3])
    assert mixed.param_count() == 4 * 16 * (1 + 3)
