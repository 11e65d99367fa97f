"""Autodiff core: every op against brute-force oracles and central
finite differences in float64."""

import contextlib
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from adaptir import tensor as T
from adaptir.fft import ComplexSpectrum, irfft2, rfft2
from adaptir.host import _tokens_to_map
from adaptir.tensor import Tensor, ShapeError, ContractError, finite_diff_grad, no_grad


def fd_check(f, x, tol=1e-6, eps=1e-6):
    """Compare autodiff grad of scalar f(x) against central differences."""
    x.requires_grad = True
    x.grad = None
    out = f(x)
    out.backward()
    fd = finite_diff_grad(f, x, eps)
    err = np.abs(x.grad - fd).max()
    scale = max(np.abs(fd).max(), 1.0)
    assert err / scale < tol, f"grad mismatch: {err} (scale {scale})"


def rt(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def traced_peak(fn):
    """Peak bytes numpy and python allocate while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- elementwise ops -----------------------------------------------------------


def test_add_mul_broadcast_values_and_grads():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 1, 5))
    b = rng.standard_normal((4, 5))
    ta, tb = rt(a), rt(b)
    out = ta * tb + ta
    assert np.allclose(out.data, a * b + a)
    T.tsum(out).backward()
    # broadcast reduction oracle
    assert np.allclose(ta.grad, np.broadcast_to(b + 1.0, (3, 4, 5)).sum(axis=1, keepdims=True))
    assert np.allclose(tb.grad, np.broadcast_to(a, (3, 4, 5)).sum(axis=0))


def test_sub_neg_scalars():
    x = rt([1.0, 2.0])
    out = T.tsum(x - 1.0)
    out.backward()
    assert np.allclose(out.data, (x.data - 1.0).sum())
    assert np.allclose(x.grad, [1.0, 1.0])


@pytest.mark.parametrize("data,dtype", [(np.arange(3), "int64"), (np.array([True]), "bool"),
                                        (np.float16(1.0), "float16")])
def test_tensor_refuses_a_non_float_array(data, dtype):
    # used to be coerced to float64 without a word
    with pytest.raises(ShapeError, match=f"a Tensor holds float32 or float64, got {dtype}$"):
        Tensor(data)


@pytest.mark.parametrize("op", [T.add, T.mul])
def test_binary_ops_reject_non_broadcastable_shapes(op):
    a, b = Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4)))
    with pytest.raises(ShapeError, match=r"shapes \(3, 4\) and \(2, 4\) are not broadcastable"):
        op(a, b)


def zeros(*shape, dtype=np.float64):
    return Tensor(np.zeros(shape, dtype))


@pytest.mark.parametrize("op,call", [
    ("add", lambda: T.add(zeros(2, 4, dtype=np.float32), zeros(2, 4))),
    ("layernorm", lambda: T.layernorm(zeros(2, 4, dtype=np.float32), zeros(4),
                                      zeros(4, dtype=np.float32))),
    ("layernorm", lambda: T.layernorm(zeros(2, 4, dtype=np.float32),
                                      zeros(4, dtype=np.float32), zeros(4))),
    ("conv2d", lambda: T.conv2d(zeros(1, 2, 3, 3, dtype=np.float32),
                                zeros(4, 2, 3, 3, dtype=np.float32), zeros(4))),
    ("irfft2", lambda: irfft2(ComplexSpectrum(zeros(4, 3, dtype=np.float32),
                                              zeros(4, 3), 4))),
], ids=["add", "layernorm-gamma", "layernorm-beta", "conv2d-bias", "irfft2"])
def test_multi_input_ops_refuse_mixed_dtypes(op, call):
    # no op casts: an f64 operand of an f32 op is refused, not promoted
    with pytest.raises(ShapeError, match=f"^{op}: dtype mismatch float32 vs float64$"):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: T.matmul(zeros(2, 3), zeros(4, 5)),
     "matmul: inner extents differ for shapes (2, 3) and (4, 5)"),
    (lambda: T.conv2d(zeros(2, 3, 3), zeros(4, 2, 3, 3)),
     "conv2d expects 4-D x and w, got (2, 3, 3) and (4, 2, 3, 3)"),
    (lambda: T.conv2d(zeros(1, 2, 3, 3), zeros(4, 2, 3, 3), zeros(3)),
     "conv2d: bias shape (3,) != (4,)"),
    (lambda: T.depth_to_space(zeros(1, 3, 2, 2), 2),
     "depth_to_space: channels 3 not divisible by 4"),
    (lambda: T.softmax_spatial(zeros(1, 2, 4, 4)),
     "softmax_spatial expects N x 1 x H x W, got (1, 2, 4, 4)"),
], ids=["matmul-inner", "conv2d-4d", "conv2d-bias-shape", "depth_to_space",
        "softmax_spatial"])
def test_shape_refusals_are_one_line(call, message):
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        call()


def test_item_refuses_a_non_scalar():
    with pytest.raises(ContractError,
                       match=r"^item\(\) called on non-scalar tensor of shape \(3,\)$"):
        zeros(3).item()


def test_finite_diff_grad_refuses_a_non_positive_eps():
    for eps in (0.0, -1e-6):
        with pytest.raises(ValueError, match="^eps must be positive$"):
            finite_diff_grad(T.tsum, zeros(3), eps)


@pytest.mark.parametrize("op", [T.tabs, T.sqrt, T.cos, T.sin, T.gelu])
def test_unary_grads(op):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 5)) * 2.0 + 3.0  # keep sqrt/abs away from 0
    fd_check(lambda t: T.tsum(op(t)), Tensor(np.abs(x)), tol=1e-6)


def test_erf_matches_math_erf():
    # both sizes span whole blocks and a partial one; the result is written
    # over the input
    x64 = np.random.default_rng(2).standard_normal(20_000) * 3.0
    want64 = np.array([math.erf(v) for v in x64])
    assert T._erf(x64) is x64 and np.abs(x64 - want64).max() <= 4.5e-16
    # f32 runs in f32: within 2 ulp of the true erf rounded to f32
    x32 = np.linspace(-7.0, 7.0, 200_001, dtype=np.float32)
    want32 = np.array([math.erf(v) for v in x32.tolist()], dtype=np.float32)
    ulps = np.abs(T._erf(x32.copy()).view(np.int32).astype(np.int64) - want32.view(np.int32))
    assert ulps.max() <= 2
    with np.errstate(all="raise", under="ignore"):
        for dtype in (np.float32, np.float64):
            sub = np.finfo(dtype).smallest_subnormal
            edges = np.array([0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, sub, -sub], dtype=dtype)
            got = T._erf(edges.copy())
            want = np.array([math.erf(v) for v in edges.tolist()], dtype=dtype)
            assert got.dtype == dtype and np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(edges))
            assert np.isnan(T._erf(np.array([np.nan], dtype=dtype))[0])
            scalar = T._erf(np.array(0.5, dtype=dtype))
            assert scalar.shape == () and scalar.dtype == dtype
            assert scalar == np.array(math.erf(0.5), dtype=dtype)


def erf_filled(x):
    """``T._erf`` with each |x| <= 1 Horner chain started from a filled array,
    the form its first folded steps must match bit for bit."""
    a = x.reshape(-1)
    z, num, den = np.empty((3, a.size), x.dtype)
    wide = np.flatnonzero(np.abs(a, out=z) > 1.0)
    xw = a[wide]
    np.clip(a, -1.0, 1.0, out=a)
    np.multiply(a, a, out=z)
    num.fill(T._ERF_T[0])
    T._horner(z, T._ERF_T[1:], num)
    den.fill(1.0)
    T._horner(z, T._ERF_U, den)
    a *= num
    a /= den
    if wide.size:
        ax = np.minimum(np.abs(xw), 6.0)
        p = T._horner(ax, T._ERF_P[1:], np.full_like(ax, T._ERF_P[0]))
        q = T._horner(ax, T._ERF_Q, np.ones_like(ax))
        y = np.exp(-(ax * ax))
        y *= p
        y /= q
        a[wide] = np.copysign(1.0 - y, xw)
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_is_bit_identical_to_the_filled_horner_form(dtype):
    # dense where the folded chains run, coarse across the clip at 6
    grid = np.concatenate([np.linspace(-1.25, 1.25, 300_001),
                           np.linspace(-8.0, 8.0, 20_001)]).astype(dtype)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype)
    # |x| at 1 and 6 and up to two ulp either side of each, with both signs
    ends = [np.array([1.0, 6.0], dtype=dtype)]
    for toward in (0.0, np.inf):
        e = ends[0]
        for _ in range(2):
            e = np.nextafter(e, dtype(toward))
            ends.append(e)
    ends = np.concatenate(ends)
    x = np.concatenate([grid, edges, ends, -ends])
    got, want = T._erf(x.copy()), erf_filled(x.copy())
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_gelu_matches_exact_formula():
    x = np.linspace(-4, 4, 41)
    expect = x * 0.5 * (1.0 + np.array([math.erf(v) for v in x / np.sqrt(2.0)]))
    assert np.allclose(T.gelu(Tensor(x)).data, expect, atol=1e-12)


def gelu_formula(xd, g):
    """GELU's value and gradient as one expression each, with python-float
    constants, which NEP 50 keeps in the input's dtype."""
    phi = 0.5 * (1.0 + T._erf(xd / math.sqrt(2.0)))
    pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * xd * xd)
    return xd * phi, g * (phi + xd * pdf)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_is_bit_identical_to_its_formula(dtype):
    sub = np.finfo(dtype).smallest_subnormal
    edges = np.array([0.0, -0.0, sub, -sub, 40.0, -40.0], dtype=dtype)
    xd = np.concatenate([edges, np.random.default_rng(3).standard_normal(64).astype(dtype) * 3])
    g = np.random.default_rng(4).standard_normal(xd.shape).astype(dtype)
    x = Tensor(xd, requires_grad=True)
    out = T.gelu(x)
    T.tsum(out * Tensor(g)).backward()
    want_out, want_grad = gelu_formula(xd, g)
    assert out.dtype == want_out.dtype == dtype and x.grad.dtype == want_grad.dtype
    assert np.array_equal(out.data, want_out) and np.array_equal(x.grad, want_grad)
    assert np.array_equal(np.signbit(out.data), np.signbit(want_out))


def test_gelu_keeps_one_array_shaped_like_its_input():
    x = rt(np.random.default_rng(5).standard_normal((2, 3, 4)))
    kept = closure_arrays(T.gelu(x)._backward)
    assert [a.shape for a in kept] == [x.shape]


@pytest.mark.parametrize("recorded", ["no_grad", "frozen input"])
def test_gelu_builds_no_slope_when_no_node_is_recorded(recorded):
    # a recorded gelu holds the slope, one more array the input's size, on
    # top of everything an unrecorded one holds; the warm-up call takes the
    # one-time allocations out of both peaks
    xd = np.random.default_rng(6).standard_normal((64, 1024))
    x = Tensor(xd, requires_grad=recorded == "no_grad")
    with no_grad() if recorded == "no_grad" else contextlib.nullcontext():
        T.gelu(x)
        unrecorded = traced_peak(lambda: T.gelu(x))
    x.requires_grad = True
    assert traced_peak(lambda: T.gelu(x)) >= unrecorded + xd.nbytes


def test_gelu_never_holds_a_full_size_phi():
    # with Phi(x) formed for the whole input, recorded and no_grad peaks were
    # 3.00x and 2.00x the input
    x = Tensor(np.random.default_rng(7).standard_normal((8, 256, 256)).astype(np.float32),
               requires_grad=True)
    assert traced_peak(lambda: T.gelu(x)) < 2.7 * x.data.nbytes
    with no_grad():
        assert traced_peak(lambda: T.gelu(x)) < 1.6 * x.data.nbytes


def test_gelu_keeps_f32_graph_in_f32(monkeypatch):
    erf_dtypes = []
    erf = T._erf

    def recording_erf(z):
        erf_dtypes.append(z.dtype)
        return erf(z)

    monkeypatch.setattr(T, "_erf", recording_erf)
    x = np.linspace(-4, 4, 41).astype(np.float32)
    x32, x64 = Tensor(x, requires_grad=True), rt(x)
    out32, out64 = T.gelu(x32), T.gelu(x64)
    T.tsum(out32).backward()
    T.tsum(out64).backward()
    assert erf_dtypes == [np.float32, np.float64]
    assert out32.dtype == np.float32 and x32.grad.dtype == np.float32
    assert np.abs(out32.data - out64.data).max() < 1e-6
    assert np.abs(x32.grad - x64.grad).max() < 1e-6


def test_atan2_hypot_polar_round_trip_and_grads():
    rng = np.random.default_rng(2)
    y, x = rng.standard_normal((2, 6, 6)) + 0.5
    ty, tx = rt(y), rt(x)
    mag = T.hypot(ty, tx)
    pha = T.atan2(ty, tx)
    assert np.allclose(mag.data, np.hypot(y, x))
    assert np.allclose(pha.data, np.arctan2(y, x))
    # reconstruction: (mag cos pha, mag sin pha) == (x, y)
    assert np.allclose((mag * T.cos(pha)).data, x)
    assert np.allclose((mag * T.sin(pha)).data, y)
    fd_check(lambda t: T.tsum(T.atan2(t, Tensor(x))), Tensor(y))
    fd_check(lambda t: T.tsum(T.hypot(t, Tensor(x))), Tensor(y))


def test_atan2_hypot_origin_conventions():
    z = rt(np.zeros(3))
    pha = T.atan2(z, rt(np.zeros(3)))
    assert np.all(pha.data == 0.0)
    out = T.tsum(T.hypot(z, Tensor(np.zeros(3))))
    out.backward()
    assert np.all(z.grad == 0.0)  # subgradient 0 at the origin


# -- reductions and shaping -----------------------------------------------------


def test_sum_mean_axes():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 4, 5))
    assert np.allclose(T.tsum(Tensor(x), axis=1).data, x.sum(axis=1))
    assert np.allclose(T.tsum(Tensor(x), axis=(0, 2)).data, x.sum(axis=(0, 2)))
    assert np.allclose(T.tmean(Tensor(x)).data, x.mean())
    w = Tensor(rng.standard_normal(4))
    fd_check(lambda t: T.tsum(T.tsum(t, axis=1) * T.tsum(t, axis=1)), Tensor(x))
    fd_check(lambda t: T.tsum(T.tsum(t, axis=(0, 2)) * w), Tensor(x))
    fd_check(lambda t: T.tmean(t * t), Tensor(x))


def test_reshape_transpose_grads():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 4))
    cot = Tensor(rng.standard_normal((4, 2, 3)))
    fd_check(lambda t: T.tsum(T.reshape(t, (4, 6)) * 2.0), Tensor(x))
    fd_check(lambda t: T.tsum(T.transpose(t, (2, 0, 1)) * cot), Tensor(x))
    # a negative axis counts back from the last, in the gradient too
    cot = Tensor(rng.standard_normal((2, 4, 3)))
    fd_check(lambda t: T.tsum(T.transpose(t, (0, -1, 1)) * cot), Tensor(x))


def test_depth_to_space_matches_pixel_shuffle_oracle():
    rng = np.random.default_rng(5)
    n, c, h, w, f = 2, 12, 3, 4, 2
    x = rng.standard_normal((n, c, h, w))
    out = T.depth_to_space(Tensor(x), f).data
    assert out.shape == (n, c // (f * f), h * f, w * f)
    # brute-force index oracle
    for ni in range(n):
        for co in range(c // (f * f)):
            for i in range(h * f):
                for j in range(w * f):
                    ci = co * f * f + (i % f) * f + (j % f)
                    assert out[ni, co, i, j] == x[ni, ci, i // f, j // f]
    cot = Tensor(rng.standard_normal(out.shape))
    fd_check(lambda t: T.tsum(T.depth_to_space(t, f) * cot), Tensor(x))


# -- matmul / softmax / layernorm -------------------------------------------------


def test_matmul_matches_numpy_batched():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 4, 5))
    b = rng.standard_normal((3, 5, 6))
    assert np.allclose(T.matmul(Tensor(a), Tensor(b)).data, a @ b)
    fd_check(lambda t: T.tsum(T.matmul(t, Tensor(b))), Tensor(a))
    fd_check(lambda t: T.tsum(T.matmul(Tensor(a), t)), Tensor(b))


def test_softmax_rows_and_grad():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 7))
    s = T.softmax(Tensor(x))
    assert np.allclose(s.data.sum(axis=-1), 1.0)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert np.allclose(s.data, e / e.sum(axis=-1, keepdims=True))
    w = rng.standard_normal((3, 7))
    fd_check(lambda t: T.tsum(T.softmax(t) * Tensor(w)), Tensor(x))


def linear_chain(x, w, b):
    return T.matmul(x, T.transpose(w, (1, 0))) + b


def attention_chain(x, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """The chain ``T.attention`` fuses: the q, k and v projections, a head
    split, matmul -> scale -> softmax -> matmul, a head merge and the output
    projection."""
    n, t, c = x.shape
    dh = c // heads

    def split(z):
        return T.transpose(T.reshape(z, (n, t, heads, dh)), (0, 2, 1, 3))

    q, k, v = (split(linear_chain(x, w, b)) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    ctx = T.matmul(T.softmax(scores), v)
    return linear_chain(T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (n, t, c)), wo, bo)


def mlp_chain(x, w1, b1, w2, b2):
    """The chain ``T.mlp`` fuses."""
    return linear_chain(T.gelu(linear_chain(x, w1, b1)), w2, b2)


def attention_arrays(rng, dtype, n=2, t=5, c=4):
    """x and the eight attention weights and biases, (c, c) and (c,) in turn."""
    shapes = [(n, t, c)] + [(c, c), (c,)] * 4
    return [(rng.standard_normal(s) / np.sqrt(s[-1])).astype(dtype) for s in shapes]


def mlp_arrays(rng, dtype, n=2, t=5, c=4, hid=6):
    shapes = [(n, t, c), (hid, c), (hid,), (c, hid), (c,)]
    return [(rng.standard_normal(s) / np.sqrt(s[-1])).astype(dtype) for s in shapes]


def head_chain(x, w1, b1, w2, b2):
    """The chain ``T.conv_gelu_conv`` fuses, with the host head's stride."""
    return T.conv2d(T.gelu(T.conv2d(x, w1, b1)), w2, b2, stride=2)


def head_arrays(rng, dtype, n=2, t=16, c=4):
    """An N x 3 x H x W image of ``t`` pixels and the head's two 3x3 convs'
    weights and biases, ``c`` wide; each weight is scaled by its fan-in."""
    side = math.isqrt(t)
    shapes = [(n, 3, side, side), (c, 3, 3, 3), (c,), (c, c, 3, 3), (c,)]
    return [(rng.standard_normal(s) / np.sqrt(math.prod(s[1:]) if len(s) == 4 and i else 1))
            .astype(dtype) for i, s in enumerate(shapes)]


FUSED = {
    "attention": (lambda *a: T.attention(*a, heads=2), lambda *a: attention_chain(*a, heads=2),
                  attention_arrays),
    "mlp": (T.mlp, mlp_chain, mlp_arrays),
    "conv_gelu_conv": (lambda *a: T.conv_gelu_conv(*a, stride=2), head_chain, head_arrays),
}


def fd_check_every_input(op, arrays, seed):
    """``fd_check`` of ``sum(op(...) * w)`` for each input in turn, the
    others held as constants."""
    w = Tensor(np.random.default_rng(seed).standard_normal(op(*map(Tensor, arrays)).shape))
    for j, a in enumerate(arrays):
        def f(t, j=j):
            return T.tsum(op(*[t if i == j else Tensor(b) for i, b in enumerate(arrays)]) * w)
        fd_check(f, Tensor(a))


def test_attention_grads_finite_difference():
    fused, _, arrays = FUSED["attention"]
    fd_check_every_input(fused, arrays(np.random.default_rng(17), np.float64), 18)


def test_mlp_grads_finite_difference():
    fused, _, arrays = FUSED["mlp"]
    fd_check_every_input(fused, arrays(np.random.default_rng(20), np.float64), 21)


def test_conv_gelu_conv_grads_finite_difference():
    fused, _, arrays = FUSED["conv_gelu_conv"]
    fd_check_every_input(fused, arrays(np.random.default_rng(44), np.float64), 45)


def run_with_grads(op, arrays, trains, lora, g):
    """``op``'s output and the gradient of every leaf after backward from
    ``sum(out * g)``.  The inputs listed in ``lora`` are given as graph nodes,
    a frozen base plus ``B @ A``, the way a LoRA layer gives its weights."""
    leaves = [Tensor(a, requires_grad=r) for a, r in zip(arrays, trains)]
    args = list(leaves)
    rng = np.random.default_rng(30)
    for j in lora:
        rows, cols = arrays[j].shape
        b, a = (Tensor(rng.standard_normal(s).astype(arrays[j].dtype), requires_grad=True)
                for s in ((rows, 2), (2, cols)))
        args[j] = leaves[j] + T.matmul(b, a)
        leaves += [b, a]
    out = op(*args)
    T.tsum(out * Tensor(g)).backward()
    return [out.data] + [t.grad for t in leaves]


# which of x and the weights train, and which weights LoRA gives as nodes
ATTENTION_CASES = {
    "pretrain": ([True] * 9, ()),
    "frozen-host": ([True] + [False] * 8, ()),
    "lora": ([True] + [False] * 8, (1, 5)),
    "lora-on-frozen-tokens": ([False] * 9, (1, 5)),
    "weights-only": ([False] + [True] * 8, ()),
}
MLP_CASES = {
    "pretrain": ([True] * 5, ()),
    "frozen-host": ([True] + [False] * 4, ()),
    "nodes": ([True] + [False] * 4, (1, 3)),
    "weights-only": ([False] + [True] * 4, ()),
    "second-layer-only": ([False, False, False, True, True], ()),
}
HEAD_CASES = {
    "pretrain": ([True] * 5, ()),
    "frozen-host": ([True] + [False] * 4, ()),
    "weights-only": ([False] + [True] * 4, ()),
    "second-conv-only": ([False, False, False, True, True], ()),
}
CASES = {"attention": ATTENTION_CASES, "mlp": MLP_CASES, "conv_gelu_conv": HEAD_CASES}


def on_a_layernorm(fused, chain, make):
    """A fused op and its chain each fed ``T.layernorm(x, gamma, beta)``, as
    a host sublayer feeds them: a recorded layernorm hands the fused op's
    backward its output's rebuild in place of the normalized input."""
    def normed(op):
        return lambda x, gamma, beta, *rest: op(T.layernorm(x, gamma, beta), *rest)

    def arrays(rng, dtype, n, t, c):
        x, *rest = make(rng, dtype, n=n, t=t, c=c)
        gamma, beta = ((shift + rng.standard_normal(c) / 4).astype(dtype) for shift in (1, 0))
        return [x, gamma, beta, *rest]
    return normed(fused), normed(chain), arrays


FUSED.update({f"layernorm-{op}": on_a_layernorm(*FUSED[op]) for op in ("attention", "mlp")})


def down_conv(plain):
    """AdaptIR's parallel down conv on a layernorm's output, as
    ``AdapterStack`` feeds it: tokens to a map, then a 1x1 ``conv2d``.  With
    ``plain`` the norm's output first goes through ``* 1.0``, which leaves
    every bit and gradient as it is and carries no rebuild, so the conv keeps
    the map's array."""
    def op(x, gamma, beta, w, b):
        y = T.layernorm(x, gamma, beta)
        side = math.isqrt(x.shape[1])
        fmap = _tokens_to_map(y * 1.0 if plain else y, side, side)
        assert (fmap._rebuild is None) == (plain or not T._records(x, gamma, beta))
        return T.conv2d(fmap, w, b)
    return op


def down_conv_arrays(rng, dtype, n, t, c):
    """x, the norm's gamma and beta and a 1x1 down conv to c/2 channels."""
    shapes = [(n, t, c), (c,), (c,), (c // 2, c, 1, 1), (c // 2,)]
    return [(rng.standard_normal(s) / math.sqrt(s[-1] if i < 3 else c) + (i == 1))
            .astype(dtype) for i, s in enumerate(shapes)]


# each case of the op, with gamma and beta, training or frozen, after x
CASES.update({f"layernorm-{op}": {
    f"{name}-affine-{'trains' if affine else 'frozen'}":
        ([trains[0], affine, affine, *trains[1:]], tuple(j + 2 for j in lora))
    for name, (trains, lora) in CASES[op].items() for affine in (True, False)}
    for op in ("attention", "mlp")})


@pytest.mark.parametrize("op, trains, lora", [
    (op, *case) for op, cases in CASES.items() for case in cases.values()],
    ids=[f"{op}-{name}" for op, cases in CASES.items() for name in cases])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_op_is_bit_identical_to_the_op_chain(op, trains, lora, dtype):
    fused, chain, make = FUSED[op]
    rng = np.random.default_rng(18)
    # three images, so that every sum over the batch runs on from an earlier one
    arrays = make(rng, dtype, n=3, t=64, c=16)
    with no_grad():
        shape = fused(*map(Tensor, arrays)).shape
    g = rng.standard_normal(shape).astype(dtype)
    got, want = (run_with_grads(f, arrays, trains, lora, g) for f in (fused, chain))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            # each weight gradient keeps the chain's layout, which B @ A's backward reads
            assert a.strides == b.strides
            assert np.array_equal(a, b)


@pytest.mark.parametrize("fused, plain, make", [
    FUSED["layernorm-attention"], FUSED["layernorm-mlp"],
    (down_conv(False), down_conv(True), down_conv_arrays)], ids=["attention", "mlp", "conv2d"])
def test_a_normalized_input_is_kept_once(fused, plain, make):
    # the layernorm keeps x-hat for its own backward; the fused op's backward
    # rebuilds its input from that x-hat (the conv's through the views that
    # make its map), so the forward leaves x-hat, the layernorm's 1/std and
    # attention's row max and sum held beside the output, and no normalized
    # copy
    arrays = make(np.random.default_rng(48), np.float32, n=16, t=64, c=16)
    args = [Tensor(a, requires_grad=True) for a in arrays]
    tracemalloc.start()
    try:
        out = fused(*args)
        held = tracemalloc.get_traced_memory()[0] - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert held < 2 * args[0].data.nbytes  # x-hat plus one normalized copy
    # and the backward that reads the rebuild gives the plain graph's bits
    g = np.random.default_rng(49).standard_normal(out.shape).astype(np.float32)
    got, want = (run_with_grads(f, arrays, [True] * len(arrays), (), g) for f in (fused, plain))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_a_batch_keeping_view_passes_the_rebuild_on():
    rng = np.random.default_rng(50)
    x, gamma, beta = (Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                      for s in ((3, 16, 8), (8,), (8,)))
    y = T.layernorm(x, gamma, beta)
    fmap = _tokens_to_map(y, 4, 4)  # a transpose, then a reshape
    for view in (y, T.transpose(y, (0, 2, 1)), fmap, T.reshape(fmap, (3, -1)),
                 T.transpose(y, (-3, -1, -2))):
        assert view._rebuild is not None
        for i in range(3):
            image = view._rebuild(i)
            assert image.dtype == np.float32 and np.array_equal(image, view.data[i])


def test_a_view_that_moves_the_batch_carries_no_rebuild():
    rng = np.random.default_rng(51)
    x, gamma, beta = (Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                      for s in ((2, 6, 4), (4,), (4,)))
    y = T.layernorm(x, gamma, beta)
    for view in (T.reshape(y, (12, 4)), T.reshape(y, (6, 2, 4)), T.reshape(y, (-1,)),
                 T.transpose(y, (1, 0, 2)), T.transpose(y, (2, 1, 0))):
        assert view._rebuild is None, view.shape
    # nor does an op that records no node, or a norm that records none
    with no_grad():
        assert T.transpose(y, (0, 2, 1))._rebuild is None
        assert T.layernorm(x, gamma, beta)._rebuild is None
    frozen = T.layernorm(*(Tensor(t.data) for t in (x, gamma, beta)))
    assert frozen._rebuild is None
    assert T.transpose(frozen, (0, 2, 1))._rebuild is None
    # a single normalized vector has no batch axis, so no image to rebuild
    assert T.layernorm(Tensor(x.data[0, 0], requires_grad=True), gamma, beta)._rebuild is None


def test_attention_with_a_nan_image_matches_the_op_chain():
    # one NaN token reaches every score row of its image through k, and a row
    # holding a NaN comes out all-NaN, as the chain's softmax max makes it;
    # the other image stays finite and bit-identical
    fused, chain, make = FUSED["attention"]
    rng = np.random.default_rng(29)
    arrays = make(rng, np.float32, n=2, t=16, c=16)
    arrays[0][1, 3, 5] = np.nan
    g = rng.standard_normal(arrays[0].shape).astype(np.float32)
    got, want = (run_with_grads(f, arrays, [True] * 9, (), g) for f in (fused, chain))
    assert np.isnan(got[0][1]).all() and np.isfinite(got[0][0]).all()
    assert np.isfinite(got[1][0]).all()  # x's gradient in the finite image
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)


def test_attention_never_holds_the_whole_batch_of_scores():
    # nor a whole batch's q, k or v: each is as large as the output
    n, t, c, heads = 128, 64, 32, 2
    rng = np.random.default_rng(19)
    arrays = [(rng.standard_normal(s) / 4).astype(np.float32)
              for s in [(n, t, c)] + [(c, c), (c,)] * 4]
    x, *ws = (Tensor(a, requires_grad=True) for a in arrays)
    qkv, stats = x.data.nbytes, 2 * n * heads * t * 4
    assert n * heads * t * t * 4 > 2 * qkv  # the scores are larger still
    outs = []
    assert traced_peak(lambda: outs.append(T.attention(x, *ws, heads))) < (
        qkv + stats + qkv / 2)  # the output and the kept row max and sum
    g = np.ones((n, t, c), dtype=np.float32)
    assert traced_peak(lambda: outs[0]._backward(g)) < qkv + qkv / 2  # x's gradient


def test_mlp_never_holds_a_whole_batch_hidden_array():
    n, t, c, hid = 64, 64, 16, 64
    arrays = mlp_arrays(np.random.default_rng(22), np.float32, n, t, c, hid)
    x, *ws = (Tensor(a, requires_grad=i == 0) for i, a in enumerate(arrays))
    hidden = n * t * hid * 4
    outs = []
    # the output and one image's scratch; a kept slope or a whole-batch
    # pre-activation would add a hidden array, and the chain holds four at once
    assert traced_peak(lambda: outs.append(T.mlp(x, *ws))) < x.data.nbytes + hidden / 8
    g = np.ones((n, t, c), dtype=np.float32)
    assert traced_peak(lambda: outs[0]._backward(g)) < x.data.nbytes + hidden / 2


@pytest.mark.parametrize("op", ["attention", "mlp", "conv_gelu_conv"])
def test_fused_op_keeps_its_arrays_only_when_recorded(op):
    # recorded with everything training, attention keeps the whole batch's
    # row max and sum (an unrecorded one reuses one image's) on top of
    # everything an unrecorded op holds, and mlp and conv_gelu_conv keep
    # nothing more than their node: their backward recomputes GELU's value
    # and slope, and a kept slope alone would add 12 KiB (12.5 KiB for the
    # 5x5 images conv_gelu_conv makes of t); the warm-up call takes the
    # one-time allocations out of both peaks
    n, t, c, heads = 16, 32, 8, 4
    fused, _, make = FUSED[op]
    arrays = make(np.random.default_rng(23), np.float32, n=n, t=t, c=c)
    args = [Tensor(a, requires_grad=True) for a in arrays]
    call = (lambda: T.attention(*args, heads)) if op == "attention" else (lambda: fused(*args))
    with no_grad():
        call()
        unrecorded = traced_peak(call)
    call()
    recorded = traced_peak(call)
    if op == "attention":
        assert recorded >= unrecorded + 2 * (n - 1) * heads * t * 4
    else:
        assert recorded <= unrecorded + 2048


def test_conv_gelu_conv_backward_keeps_its_inputs_and_records_no_node(monkeypatch):
    # no conv1 output, GELU value or slope is kept, only the inputs' own
    # arrays, and the backward recomputes them with array code alone
    args = [rt(a) for a in head_arrays(np.random.default_rng(46), np.float64)]
    out = T.conv_gelu_conv(*args, stride=2)
    kept = closure_arrays(out._backward)
    assert kept and all(any(a is t.data for t in args) for a in kept)
    calls = []
    monkeypatch.setattr(T, "_node", lambda *a: calls.append(a))
    grads = out._backward(np.ones(out.shape))
    assert not calls
    assert [g.shape for g in grads] == [t.shape for t in args]


def test_mlp_backward_reads_the_arrays_its_forward_read():
    # the backward recomputes GELU from the arrays the forward captured, so
    # inputs rebound between forward and backward change no gradient
    arrays = mlp_arrays(np.random.default_rng(27), np.float64)
    g = Tensor(np.random.default_rng(28).standard_normal((2, 5, 4)))

    def grads(rebind):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = T.tsum(T.mlp(*leaves) * g)
        if rebind:
            for t in leaves:
                t.data = t.data + 1.0
        out.backward()
        return [t.grad for t in leaves]

    for a, b in zip(grads(False), grads(True)):
        assert np.array_equal(a, b)


def records_no_node_under_no_grad(op):
    fused, _, make = FUSED[op]
    args = [rt(a) for a in make(np.random.default_rng(24), np.float64)]
    with no_grad():
        out = fused(*args)
    assert not out.requires_grad
    assert out._parents == () and out._backward is None


def test_attention_records_no_node_under_no_grad():
    records_no_node_under_no_grad("attention")


def test_mlp_records_no_node_under_no_grad():
    records_no_node_under_no_grad("mlp")


def test_conv_gelu_conv_records_no_node_under_no_grad():
    records_no_node_under_no_grad("conv_gelu_conv")


def test_attention_rejects_weights_that_do_not_chain():
    x, *ws = (rt(a) for a in attention_arrays(np.random.default_rng(25), np.float64))
    with pytest.raises(ShapeError, match="does not chain"):
        T.attention(x, *ws, heads=3)  # 4 channels
    with pytest.raises(ShapeError, match="does not chain"):
        T.attention(x, *ws[:-1], rt(np.ones(3)), heads=2)
    with pytest.raises(ShapeError, match="does not chain"):
        T.attention(T.reshape(x, (10, 4)), *ws, heads=2)
    x, *ws = (rt(a) for a in mlp_arrays(np.random.default_rng(26), np.float64))
    with pytest.raises(ShapeError, match="does not chain"):
        T.mlp(x, ws[0], ws[1], ws[0], ws[1])
    x, *ws = (rt(a) for a in head_arrays(np.random.default_rng(47), np.float64))
    with pytest.raises(ShapeError, match="does not chain"):
        T.conv_gelu_conv(x, *ws[:2], ws[0], ws[3])  # conv2 takes 3 channels, conv1 gives 4
    with pytest.raises(ShapeError, match="does not chain"):
        T.conv_gelu_conv(x, ws[0], ws[1], rt(np.ones((4, 4, 2, 2))), ws[3])


def test_softmax_spatial_equals_flattened_softmax():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 1, 4, 5))
    s = T.softmax_spatial(Tensor(x)).data
    flat = x.reshape(2, -1)
    e = np.exp(flat - flat.max(axis=1, keepdims=True))
    assert np.allclose(s.reshape(2, -1), e / e.sum(axis=1, keepdims=True))
    w = rng.standard_normal(x.shape)
    fd_check(lambda t: T.tsum(T.softmax_spatial(t) * Tensor(w)), Tensor(x))


def test_layernorm_statistics_and_grads():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 5, 8))
    g = np.ones(8)
    b = np.zeros(8)
    out = T.layernorm(Tensor(x), Tensor(g), Tensor(b)).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-7)
    assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)
    w = rng.standard_normal(x.shape)
    gt, bt = Tensor(rng.standard_normal(8)), Tensor(rng.standard_normal(8))
    fd_check(lambda t: T.tsum(T.layernorm(t, gt, bt) * Tensor(w)), Tensor(x))
    fd_check(lambda t: T.tsum(T.layernorm(Tensor(x), t, bt) * Tensor(w)),
             Tensor(rng.standard_normal(8)))
    fd_check(lambda t: T.tsum(T.layernorm(Tensor(x), gt, t) * Tensor(w)),
             Tensor(rng.standard_normal(8)))


# -- convolution -------------------------------------------------------------------


def conv2d_loops(x, w, b, stride=1, groups=1):
    """Direct quintuple-loop cross-correlation with same zero padding."""
    n, cin, h, wd = x.shape
    cout, cg, k, _ = w.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    cpg = cin // groups
    opg = cout // groups
    for ni in range(n):
        for co in range(cout):
            gi = co // opg
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cpg):
                        for ki in range(k):
                            for kj in range(k):
                                acc += (xp[ni, gi * cpg + ci, i * stride + ki, j * stride + kj]
                                        * w[co, ci, ki, kj])
                    out[ni, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


@pytest.mark.parametrize("groups,stride", [(1, 1), (4, 1), (2, 2), (1, 2)])
def test_conv2d_matches_loop_oracle(groups, stride):
    rng = np.random.default_rng(10 + groups + stride)
    n, cin, cout, h, wd, k = 2, 4, 8, 6, 5, 3
    x = rng.standard_normal((n, cin, h, wd))
    w = rng.standard_normal((cout, cin // groups, k, k))
    b = rng.standard_normal(cout)
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, groups=groups).data
    assert np.allclose(got, conv2d_loops(x, w, b, stride, groups), atol=1e-12)


def test_conv2d_grads_finite_difference():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 4, 5, 5))
    w = rng.standard_normal((6, 2, 3, 3))
    b = rng.standard_normal(6)
    cot = rng.standard_normal((2, 6, 3, 3))

    def loss(xt, wt, bt):
        return T.tsum(T.conv2d(xt, wt, bt, stride=2, groups=2) * Tensor(cot))

    fd_check(lambda t: loss(t, Tensor(w), Tensor(b)), Tensor(x))
    fd_check(lambda t: loss(Tensor(x), t, Tensor(b)), Tensor(w))
    fd_check(lambda t: loss(Tensor(x), Tensor(w), t), Tensor(b))


def conv2d_whole_batch(x, w, b, g, groups, stride):
    """conv2d's value and its three gradients for cotangent ``g``, each formed
    from the whole batch's im2col columns at once."""
    n, cin, h, wd = x.shape
    cout, cin_g, k, _ = w.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    cols = np.ascontiguousarray(np.moveaxis(win[:, :, ::stride, ::stride], (4, 5), (2, 3)))
    ho, wo = cols.shape[4], cols.shape[5]
    cols2 = cols.reshape(n, groups, cin_g * k * k, ho * wo)
    w2 = w.reshape(groups, cout // groups, cin_g * k * k)
    out = np.matmul(w2, cols2).reshape(n, cout, ho, wo) + b.reshape(1, cout, 1, 1)
    gl = g.reshape(n, groups, cout // groups, ho * wo)
    gw = np.matmul(gl, np.swapaxes(cols2, -1, -2)).sum(axis=0).reshape(w.shape)
    gcols = np.matmul(np.swapaxes(w2, -1, -2), gl).reshape(n, cin, k, k, ho, wo)
    gxp = np.zeros(xp.shape, x.dtype)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += gcols[:, :, i, j]
    return out, gxp[:, :, pad:pad + h, pad:pad + wd], gw, g.sum(axis=(0, 2, 3))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("groups,stride", [(1, 1), (4, 1), (1, 2)])
def test_conv2d_in_chunks_is_bit_identical_to_the_whole_batch(monkeypatch, dtype,
                                                              groups, stride):
    rng = np.random.default_rng(12 + groups + stride)
    n, cin, cout, h, wd, k = 3, 4, 8, 6, 5, 3
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    # two images' columns fit in a block, three do not: chunks of 2 + 1
    image_columns = cin * k * k * ho * wo * np.dtype(dtype).itemsize
    monkeypatch.setattr(T, "_CONV_BLOCK_BYTES", 2 * image_columns)
    x, w, b, g = (rng.standard_normal(s).astype(dtype) for s in
                  ((n, cin, h, wd), (cout, cin // groups, k, k), (cout,), (n, cout, ho, wo)))
    out = T.conv2d(*(Tensor(a, requires_grad=True) for a in (x, w, b)),
                   groups=groups, stride=stride)
    got = (out.data,) + tuple(out._backward(g))
    for have, want in zip(got, conv2d_whole_batch(x, w, b, g, groups, stride)):
        assert have.dtype == dtype and np.array_equal(have, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_reads_a_rebuild_in_chunks_as_it_reads_data(monkeypatch, dtype):
    # five images in chunks of 2 + 2 + 1: each chunk is filled one image at a
    # time from the rebuild, and the weight gradient adds them up in order
    n, t, c = 5, 16, 8
    monkeypatch.setattr(T, "_CONV_BLOCK_BYTES", 2 * c * t * np.dtype(dtype).itemsize)
    arrays = down_conv_arrays(np.random.default_rng(52), dtype, n=n, t=t, c=c)
    g = np.random.default_rng(53).standard_normal((n, c // 2, 4, 4)).astype(dtype)
    for trains in ([True] * 5, [True, False, False, True, False], [False, True, True, True, True]):
        got, want = (run_with_grads(down_conv(plain), arrays, trains, (), g)
                     for plain in (False, True))
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype == dtype and np.array_equal(a, b)


def test_conv2d_never_holds_the_whole_batch_of_columns():
    # the tail's shape at batch 8: the whole batch's f32 columns are 4.72 MB;
    # forward and backward peaked at 6.21 and 5.59 MB when they were formed
    # at once and kept for the weight gradient
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((8, 64, 16, 16)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((48, 64, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(48, np.float32), requires_grad=True)
    cols = 8 * 64 * 3 * 3 * 16 * 16 * 4
    outs = []
    assert traced_peak(lambda: outs.append(T.conv2d(x, w, b))) < cols
    kept = closure_arrays(outs[0]._backward)
    assert any(np.shares_memory(a, x.data) for a in kept)
    assert all(a.nbytes <= x.data.nbytes for a in kept)
    g = np.ones(outs[0].shape, np.float32)
    assert traced_peak(lambda: outs[0]._backward(g)) < cols


def test_conv2d_shape_errors():
    x = Tensor(np.zeros((1, 4, 5, 5)))
    with pytest.raises(ShapeError):
        T.conv2d(x, Tensor(np.zeros((8, 3, 3, 3))))  # cin mismatch
    with pytest.raises(ShapeError):
        T.conv2d(x, Tensor(np.zeros((8, 4, 2, 2))))  # even kernel


# -- graph mechanics ---------------------------------------------------------------


def test_backward_accumulates_across_calls():
    x = rt([1.0, 2.0])
    T.tsum(x * x).backward()
    first = x.grad.copy()
    T.tsum(x * x).backward()
    assert np.allclose(x.grad, 2.0 * first)


def test_backward_requires_scalar():
    x = rt([[1.0, 2.0]])
    with pytest.raises(ContractError):
        (x * x).backward()


def test_no_grad_builds_no_graph():
    x = rt([1.0, 2.0])
    with no_grad():
        y = T.tsum(x * x)
    assert not y.requires_grad
    assert y._parents == ()


def test_shared_subexpression_grad():
    # d/dx of (x*x + x*x) = 4x exercises fan-out accumulation
    x = rt([3.0])
    y = x * x
    T.tsum(y + y).backward()
    assert np.allclose(x.grad, [12.0])


def test_backward_frees_the_graph_it_walks():
    x = rt([1.0, 2.0])
    h = x * 2.0
    forward = weakref.ref(h.data)
    loss = T.tsum(h * h)
    del h
    loss.backward()
    assert forward() is None  # freed although loss is still referenced
    assert np.allclose(x.grad, [8.0, 16.0])


def test_second_backward_through_a_consumed_graph_raises():
    x, y = rt([1.0, 2.0]), rt([3.0])
    h = x * x
    loss = T.tsum(h)
    loss.backward()
    first = x.grad.copy()
    # again on the same loss, and on a new graph that reuses a walked node
    for again in (loss, T.tsum(y * y) + T.tsum(h)):
        with pytest.raises(ContractError, match="an earlier backward\\(\\) consumed"):
            again.backward()
        assert np.array_equal(x.grad, first) and y.grad is None


# -- what the tape keeps -------------------------------------------------------------


def closure_values(fn):
    """Everything a backward closure keeps, through its cells, containers and
    nested closures."""
    found, stack = [], [c.cell_contents for c in fn.__closure__ or ()]
    while stack:
        v = stack.pop()
        found.append(v)
        if isinstance(v, (tuple, list)):
            stack.extend(v)
        elif callable(v) and getattr(v, "__closure__", None):
            stack.extend(c.cell_contents for c in v.__closure__)
    return found


def closure_arrays(fn):
    return [v for v in closure_values(fn) if isinstance(v, np.ndarray)]


def _recorded_ops():
    rng = np.random.default_rng(40)

    def t(*shape):
        return rt(rng.standard_normal(shape) + 2.0)

    spec = rfft2(t(2, 4, 6))
    return {
        "add": T.add(t(2, 3), t(3)), "sub": T.sub(t(2, 3), t(2, 3)),
        "mul": T.mul(t(2, 3), t(2, 3)), "tsum": T.tsum(t(2, 3), axis=0),
        "tabs": T.tabs(t(3)), "sqrt": T.sqrt(t(3)), "cos": T.cos(t(3)),
        "sin": T.sin(t(3)), "atan2": T.atan2(t(3), t(3)), "hypot": T.hypot(t(3), t(3)),
        "gelu": T.gelu(t(3)), "reshape": T.reshape(t(2, 3), (3, 2)),
        "transpose": T.transpose(t(2, 3), (1, 0)), "matmul": T.matmul(t(2, 3), t(3, 4)),
        "softmax": T.softmax(t(2, 3)),
        "attention": T.attention(t(1, 3, 4), *[t(*s) for s in [(4, 4), (4,)] * 4], 2),
        "mlp": T.mlp(t(1, 3, 4), t(6, 4), t(6), t(4, 6), t(4)),
        "layernorm": T.layernorm(t(2, 4), t(4), t(4)),
        "conv2d": T.conv2d(t(1, 2, 4, 4), t(2, 2, 3, 3), t(2)),
        "conv_gelu_conv": T.conv_gelu_conv(t(1, 2, 4, 4), t(3, 2, 3, 3), t(3), t(2, 3, 3, 3),
                                           t(2), 2),
        "depth_to_space": T.depth_to_space(t(1, 4, 2, 2), 2),
        "rfft2.real": spec.real, "rfft2.imag": spec.imag, "irfft2": irfft2(spec),
    }


def test_no_backward_closure_keeps_a_tensor():
    for name, out in _recorded_ops().items():
        kept = [type(v).__name__ for v in closure_values(out._backward)
                if isinstance(v, Tensor)]
        assert not kept, f"{name} keeps {kept}"


@pytest.mark.parametrize("consume", [
    lambda h: h * 3.0 - 1.0,
    lambda h: T.reshape(T.transpose(h, (0, 1, 3, 2)), (1, 32)),
    lambda h: T.matmul(h, Tensor(np.eye(4))),
    lambda h: T.conv2d(h, Tensor(np.ones((2, 2, 3, 3))), Tensor(np.zeros(2))),
], ids=["arithmetic", "shape", "matmul-frozen", "conv2d-frozen"])
def test_a_value_no_backward_reads_is_freed_before_backward(consume):
    x = rt(np.random.default_rng(41).standard_normal((1, 2, 4, 4)))
    h = T.gelu(x)  # gelu keeps its slope, not its output
    value = weakref.ref(h.data)
    loss = T.tsum(consume(h))
    del h
    assert value() is None
    loss.backward()
    assert x.grad.shape == x.shape


@pytest.mark.parametrize("frozen", ["weight", "input"])
def test_matmul_and_conv2d_keep_only_what_the_trainable_side_needs(frozen):
    rng = np.random.default_rng(42)
    x = Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=frozen == "weight")
    w = Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=frozen == "input")
    xm = Tensor(rng.standard_normal((3, 4)), requires_grad=frozen == "weight")
    wm = Tensor(rng.standard_normal((4, 5)), requires_grad=frozen == "input")
    for out, inp, weight in ((T.conv2d(x, w, Tensor(np.zeros(4))), x, w),
                             (T.matmul(xm, wm), xm, wm)):
        grads = out._backward(np.ones_like(out.data))
        kept = closure_arrays(out._backward)
        if frozen == "weight":
            # no gradient for the weight, and no input or im2col columns kept
            assert grads[1] is None and grads[0].shape == inp.shape
            assert all(np.shares_memory(a, weight.data) for a in kept)
        else:
            assert grads[0] is None and grads[1].shape == weight.shape
            assert not any(np.shares_memory(a, weight.data) for a in kept)


def test_attention_keeps_no_token_by_token_array():
    x, *ws = (rt(a) for a in attention_arrays(np.random.default_rng(43), np.float64, t=8))
    out = T.attention(x, *ws, heads=2)
    shapes = [a.shape for a in closure_arrays(out._backward)]
    assert not [s for s in shapes if s[-2:] == (8, 8)], shapes
    # nor q, k or v: the only token-shaped array kept is x itself
    kept = [a for a in closure_arrays(out._backward) if a.shape == x.shape]
    assert kept and all(a is x.data for a in kept)
