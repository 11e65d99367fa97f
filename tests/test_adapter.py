"""Three-branch adapter: parameter counting oracle, zero-init no-op,
per-branch compositional oracles in plain numpy, branch masking."""

import math
from dataclasses import replace

import numpy as np
import pytest

from adaptir import fft as F
from adaptir import tensor as T
from adaptir.adapter import AdaptIR, AdaptIRConfig, ConfigError, config_from
from adaptir.tensor import Tensor, no_grad


def count_oracle(cfg: AdaptIRConfig) -> int:
    """Independent arithmetic for the trainable parameter count."""
    c, cg, k, r = cfg.channels, cfg.channels // cfg.reduction, cfg.kernel, cfg.lim_rank
    n = c * cg + cg                       # down projection 1x1 (+bias)
    if cfg.lim_form == "lowrank":
        n += cg * r + k * k * r           # U and V factors
    else:
        cin = cg if cfg.lim_form == "full" else 1
        n += cg * cin * k * k             # full depthwise/dense kernel
    if cfg.fam_depthwise:
        n += 4 * cg                       # per-channel mag/pha scale+shift
        n += 2 * cg                       # post-iFFT scale layer
    else:
        n += 2 * (cg * cg + cg)           # full-channel affine matrices
        n += cg * cg + cg                 # full-channel scale layer
    n += cg + 1                           # CSM mask conv 1x1 (cg -> 1 map)
    n += 2 * (cg * cg + cg)               # CSM two-layer FFN, width C/gamma
    n += cg * c + c                       # up projection 1x1 (+bias)
    return n


def test_default_count_is_1365_and_matches_oracle():
    cfg = AdaptIRConfig(channels=64, reduction=8, lim_rank=4)
    ad = AdaptIR(cfg)
    assert ad.param_count() == count_oracle(cfg) == 1365


@pytest.mark.parametrize("kwargs", [
    {},
    {"lim_form": "depthwise"},
    {"lim_form": "full"},
    {"fam_depthwise": False},
    {"channels": 32, "reduction": 4, "lim_rank": 2},
    {"kernel": 5, "lim_rank": 3},
])
def test_count_matches_oracle_across_configs(kwargs):
    cfg = AdaptIRConfig(channels=kwargs.pop("channels", 64), **kwargs)
    assert AdaptIR(cfg).param_count() == count_oracle(cfg)


def test_zero_init_output_is_exactly_zero():
    rng = np.random.default_rng(0)
    ad = AdaptIR(AdaptIRConfig(channels=16, reduction=4, lim_rank=2, seed=3))
    x = Tensor(rng.standard_normal((2, 16, 8, 8)).astype(np.float32))
    with no_grad():
        out = ad(x)
    assert out.shape == x.shape
    assert np.all(out.data == 0.0)


def widened(ad):
    """``ad`` with every parameter widened to float64, for the f64 oracles."""
    for p in ad.params.values():
        p.data = p.data.astype(np.float64)
    return ad


def randomized(ad, seed=0):
    rng = np.random.default_rng(seed)
    for p in ad.params.values():
        p.data = (p.data + 0.2 * rng.standard_normal(p.shape)).astype(p.dtype)
    return ad


def identity_scale(ad):
    """Set FAM's post-inverse scale map to the identity (1 or eye, bias 0);
    exact in IEEE arithmetic, so fam_forward returns the inverse FFT itself."""
    w, b = ad.params["fam_scale_w"], ad.params["fam_scale_b"]
    w.data = np.eye(w.shape[0], dtype=w.dtype) if w.ndim == 2 else np.ones_like(w.data)
    b.data = np.zeros_like(b.data)
    return ad


def test_randomized_keeps_each_parameters_dtype():
    cfg = AdaptIRConfig(channels=16, reduction=4, lim_rank=2)
    for ad, dtype in ((AdaptIR(cfg), np.float32), (widened(AdaptIR(cfg)), np.float64)):
        assert all(p.dtype == dtype for p in randomized(ad).params.values())


def test_config_validation():
    with pytest.raises(ConfigError):
        AdaptIRConfig(channels=64, reduction=7)
    with pytest.raises(ConfigError):
        AdaptIRConfig(channels=64, kernel=4)
    with pytest.raises(ConfigError):
        AdaptIRConfig(channels=64, lim_rank=0)
    with pytest.raises(ConfigError, match="at least one branch"):
        AdaptIR(AdaptIRConfig(channels=64, lim=False, fam=False, csm=False))
    with pytest.raises(ConfigError, match="unknown insertion position 'ffn'"):
        AdaptIRConfig(channels=64, position="ffn")
    with pytest.raises(ConfigError, match="unknown insertion form 'serial'"):
        AdaptIRConfig(channels=64, form="serial")


def test_unknown_lim_form_rejected():
    with pytest.raises(ConfigError, match="unknown local-branch form 'dense'"):
        AdaptIRConfig(channels=64, lim_form="dense")


def test_config_from_builds_checked_configs():
    cfg = config_from(AdaptIRConfig, {"channels": 16, "reduction": 4, "lim_rank": 2},
                      "here")
    assert cfg == AdaptIRConfig(channels=16, reduction=4, lim_rank=2)
    from adaptir.host import HostConfig
    host = config_from(HostConfig, {"tasks": ["sr2"]}, "here")
    assert host.tasks == ("sr2",)  # a JSON list is accepted for a tuple field
    for values, message in [
        ({"gamma": 8}, "here: AdaptIRConfig has no key 'gamma'"),
        ({"kernel": "3"}, "here: AdaptIRConfig.kernel expects int, got '3'"),
        ({"kernel": 3.0}, "here: AdaptIRConfig.kernel expects int, got 3.0"),
        ({"lim": 1}, "here: AdaptIRConfig.lim expects bool, got 1"),
        ({"kernel": 4}, "here: AdaptIRConfig: kernel must be odd and positive, got 4"),
        ({"seed": -1}, "here: AdaptIRConfig: seed must be >= 0, got -1"),
        ([("kernel", 3)], "here: AdaptIRConfig expects an object, got [('kernel', 3)]"),
    ]:
        with pytest.raises(ConfigError) as err:
            config_from(AdaptIRConfig, values, "here")
        assert str(err.value) == message
    for values, message in [({"tasks": ["sr2", 2]}, "HostConfig.tasks[1] expects str, got 2"),
                            ({"tasks": "sr2"},
                             "HostConfig.tasks expects tuple[str, ...], got 'sr2'"),
                            ({"seed": -1}, "HostConfig: seed must be >= 0, got -1")]:
        with pytest.raises(ConfigError) as err:
            config_from(HostConfig, values, "here")
        assert str(err.value) == f"here: {message}"


# -- compositional branch oracles in plain numpy ---------------------------------


def np_conv_same(x, w, b=None, groups=1):
    out = T.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b),
                   groups=groups)
    return out.data


@pytest.mark.parametrize("branch,fields,channels", [
    ("down_project", {}, 8),
    ("lim_forward", {}, 4),
    ("lim_forward", {"lim_form": "full"}, 4),
    ("csm_forward", {}, 4),
])
def test_branch_refuses_a_wrong_channel_count(branch, fields, channels):
    forward = getattr(AdaptIR(AdaptIRConfig(channels=8, reduction=2, **fields)), branch)
    forward(Tensor(np.zeros((1, channels, 4, 4), dtype=np.float32)))
    for wrong in (channels - 1, channels + 1, 2 * channels):
        with pytest.raises(T.ShapeError):
            forward(Tensor(np.zeros((1, wrong, 4, 4), dtype=np.float32)))


def test_lim_branch_equals_numpy_composition():
    cfg = AdaptIRConfig(channels=8, reduction=2, lim_rank=2)
    ad = randomized(widened(AdaptIR(cfg)), 1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 8, 6, 6))
    with no_grad():
        xi = ad.down_project(Tensor(x))
        got = ad.lim_forward(xi).data
    p = {k: v.data for k, v in ad.params.items()}
    cg, k = 4, 3
    kernel = (p["lim_u"] @ p["lim_v"].T).reshape(cg, 1, k, k)
    expect = np_conv_same(xi.data, kernel, groups=cg)
    assert np.abs(got - expect).max() < 1e-12


def test_lim_full_rank_kernel_used_directly():
    cfg = AdaptIRConfig(channels=8, reduction=2, lim_form="depthwise")
    ad = randomized(widened(AdaptIR(cfg)), 3)
    rng = np.random.default_rng(4)
    xi = Tensor(rng.standard_normal((1, 4, 5, 5)))
    with no_grad():
        got = ad.lim_forward(xi).data
    expect = np_conv_same(xi.data, ad.params["lim_kernel"].data, groups=4)
    assert np.abs(got - expect).max() < 1e-12


def test_composed_kernel_rank_bounded():
    for r in (1, 2, 4):
        cfg = AdaptIRConfig(channels=64, reduction=8, lim_rank=r)
        ad = randomized(widened(AdaptIR(cfg)), r)
        m = ad.params["lim_u"].data @ ad.params["lim_v"].data.T
        sv = np.linalg.svd(m, compute_uv=False)
        assert np.all(sv[r:] < 1e-10)


def test_fam_branch_equals_numpy_composition():
    for depthwise in (True, False):
        cfg = AdaptIRConfig(channels=8, reduction=2, fam_depthwise=depthwise)
        ad = identity_scale(randomized(widened(AdaptIR(cfg)), 5))
        rng = np.random.default_rng(6)
        xi = Tensor(rng.standard_normal((2, 4, 6, 6)))
        with no_grad():
            got = ad.fam_forward(xi).data
        p = {k: v.data for k, v in ad.params.items()}

        def affine(t, part):
            w, b = p[f"fam_{part}_w"], p[f"fam_{part}_b"].reshape(1, 4, 1, 1)
            if depthwise:
                return t * w.reshape(1, 4, 1, 1) + b
            return np.einsum("oc,nchw->nohw", w, t) + b  # channels mixed per bin

        # numpy oracle: affine on the stored half spectrum in polar form, then
        # Hermitian completion and an inverse FFT
        spec = np.fft.fft2(xi.data) / 36.0
        half = spec[..., : 6 // 2 + 1].copy()
        # structurally real bins carry an exact zero imaginary part, so their
        # phase is atan2(+0, re); scrub the fp dust np.fft leaves there
        for (bi, bj) in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            half[..., bi, bj] = half[..., bi, bj].real
        hm = affine(np.abs(half), "mag")
        hp = affine(np.angle(half), "pha")
        newhalf = hm * np.cos(hp) + 1j * hm * np.sin(hp)
        full = np.zeros_like(spec)
        full[..., :4] = newhalf
        rows = (6 - np.arange(6)) % 6
        full[..., 4:] = np.conj(newhalf[..., rows, :][..., :, [2, 1]])
        expect = np.fft.ifft2(full * 36.0).real
        assert np.abs(got - expect).max() < 1e-10, depthwise


def test_full_form_fam_parameters_match_finite_differences():
    # gradcheck runs the depthwise default only; this pins the 1x1-conv form
    ad = randomized(widened(AdaptIR(AdaptIRConfig(channels=8, reduction=2,
                                                  fam_depthwise=False))), 18)
    rng = np.random.default_rng(19)
    xi = Tensor(rng.standard_normal((2, 4, 6, 6)))
    weight = Tensor(rng.standard_normal((2, 4, 6, 6)))

    def loss(_t=None):
        return T.tsum(ad.fam_forward(xi) * weight)

    loss().backward()
    for name, p in ad.params.items():
        if name.startswith("fam_"):
            fd = T.finite_diff_grad(loss, p, 1e-6)
            assert np.abs(p.grad - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max()), name


def test_fam_identity_at_init_pre_scale():
    ad = identity_scale(AdaptIR(AdaptIRConfig(channels=16, reduction=4, seed=9)))
    rng = np.random.default_rng(10)
    xi = Tensor(rng.standard_normal((2, 4, 8, 8)).astype(np.float32))
    with no_grad():
        out = ad.fam_forward(xi)
    assert np.abs(out.data - xi.data).max() < 1e-5


def test_fam_full_channel_identity_init():
    ad = AdaptIR(AdaptIRConfig(channels=16, reduction=4, fam_depthwise=False, seed=9))
    assert np.allclose(ad.params["fam_mag_w"].data, np.eye(4))
    identity_scale(ad)
    rng = np.random.default_rng(11)
    xi = Tensor(rng.standard_normal((1, 4, 8, 8)).astype(np.float32))
    with no_grad():
        out = ad.fam_forward(xi)
    assert np.abs(out.data - xi.data).max() < 1e-5


def test_csm_branch_equals_numpy_composition():
    cfg = AdaptIRConfig(channels=8, reduction=2)
    ad = randomized(widened(AdaptIR(cfg)), 7)
    rng = np.random.default_rng(8)
    xi = rng.standard_normal((2, 4, 5, 5))
    with no_grad():
        got = ad.csm_forward(Tensor(xi)).data
    p = {k: v.data for k, v in ad.params.items()}

    def gelu(z):
        return z * 0.5 * (1.0 + np.vectorize(math.erf)(z / np.sqrt(2.0)))

    mask = np_conv_same(xi, p["csm_mask_w"], p["csm_mask_b"])
    expect = np.zeros((2, 4, 1, 1))
    for n in range(2):
        m = mask[n].reshape(-1)
        sm = np.exp(m - m.max())
        sm /= sm.sum()
        pooled = (xi[n].reshape(4, -1) * sm).sum(axis=1)
        h = gelu(p["csm_ffn_w1"] @ pooled + p["csm_ffn_b1"])
        expect[n, :, 0, 0] = p["csm_ffn_w2"] @ h + p["csm_ffn_b2"]
    assert np.abs(got - expect).max() < 1e-12


def test_csm_ffn_is_bit_identical_to_the_dense_chain():
    # the fused FFN sees the N x Cg pooled matrix as one image of N tokens, so
    # each of its matmuls is the chain's single N-row gemm, in f32 at N = 8
    ad = AdaptIR(AdaptIRConfig(channels=64, reduction=8))
    rng = np.random.default_rng(21)
    for v in ad.params.values():
        v.data = (v.data + 0.2 * rng.standard_normal(v.shape)).astype(np.float32)
    x = rng.standard_normal((8, 8, 6, 6)).astype(np.float32)
    weight = Tensor(rng.standard_normal((8, 8, 1, 1)).astype(np.float32))
    p = {k: Tensor(v.data.copy(), requires_grad=True) for k, v in ad.params.items()}

    def dense(z, name):
        return T.matmul(z, T.transpose(p[f"csm_ffn_w{name}"], (1, 0))) + p[f"csm_ffn_b{name}"]

    xs, xc = Tensor(x.copy(), requires_grad=True), Tensor(x.copy(), requires_grad=True)
    got = ad.csm_forward(xs)
    mask = T.softmax_spatial(T.conv2d(xc, p["csm_mask_w"], p["csm_mask_b"]))
    pooled = T.tsum(mask * xc, axis=(2, 3))
    expect = T.reshape(dense(T.gelu(dense(pooled, 1)), 2), (8, 8, 1, 1))
    assert np.array_equal(got.data, expect.data)
    T.tsum(got * weight).backward()
    T.tsum(expect * weight).backward()
    assert np.array_equal(xs.grad, xc.grad)
    for name in ("csm_mask_w", "csm_mask_b", "csm_ffn_w1", "csm_ffn_b1", "csm_ffn_w2",
                 "csm_ffn_b2"):
        assert np.array_equal(ad.params[name].grad, p[name].grad), name


def test_forward_is_sum_of_branches_through_up_projection():
    cfg = AdaptIRConfig(channels=8, reduction=2)
    ad = randomized(widened(AdaptIR(cfg)), 12)
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((2, 8, 6, 6)))
    with no_grad():
        full = ad(x).data
        xi = ad.down_project(x)
        ens = (ad.lim_forward(xi) + ad.fam_forward(xi)).data + ad.csm_forward(xi).data
        expect = np_conv_same(ens, ad.params["up_w"].data, ad.params["up_b"].data)
    assert np.abs(full - expect).max() < 1e-12


def test_branch_masking_isolates_and_excludes_params():
    cfg = AdaptIRConfig(channels=8, reduction=2)
    lim_only = randomized(widened(AdaptIR(replace(cfg, fam=False, csm=False))), 14)
    rng = np.random.default_rng(15)
    x = Tensor(rng.standard_normal((1, 8, 6, 6)))
    with no_grad():
        xi = lim_only.down_project(x)
        expect = np_conv_same(lim_only.lim_forward(xi).data,
                              lim_only.params["up_w"].data, lim_only.params["up_b"].data)
        assert np.abs(lim_only(x).data - expect).max() < 1e-12
    # disabled branches build no parameters
    names = set(lim_only.parameters())
    assert not any(n.startswith(("fam_", "csm_")) for n in names)
    # count ordering: csm-only < fam+csm < lim+fam+csm
    c1 = AdaptIR(replace(cfg, lim=False, fam=False)).param_count()
    c2 = AdaptIR(replace(cfg, lim=False)).param_count()
    c3 = AdaptIR(cfg).param_count()
    assert c1 < c2 < c3 == count_oracle(cfg)


def test_gradients_flow_to_every_parameter():
    cfg = AdaptIRConfig(channels=8, reduction=2)
    ad = randomized(widened(AdaptIR(cfg)), 16)
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((2, 8, 6, 6)))
    T.tsum(T.tabs(ad(x))).backward()
    for name, p in ad.params.items():
        assert p.grad is not None, name
        if name == "csm_mask_b":
            # the spatial softmax is shift-invariant: the mask bias's true
            # gradient is zero, and what reaches it is rounding at most
            assert np.abs(p.grad).max() <= 1e-12, name
        else:
            assert np.any(p.grad != 0.0), name
