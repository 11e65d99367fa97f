"""Acceptance gate: eleven property/trend criteria with pinned tolerances.

Each test prints the measured value next to its bound so a log scan shows
the margins, not just pass/fail.  The expensive artifacts (a pretrained
default-scale host and one 200-step adaptation run) are module-scoped and
shared by the criteria that need them.
"""

import time

import numpy as np
import pytest

from adaptir import fft as F
from adaptir import pipeline as P
from adaptir import tensor as T
from adaptir.adapter import AdaptIR, AdaptIRConfig
from adaptir.host import (HostConfig, HostModel, AdapterStack,
                          LoRAStack, BottleneckStack, host_forward, host_checksum)
from adaptir.metrics import psnr, rgb_to_y, ssim
from adaptir.tensor import Tensor, no_grad
from test_adapter import widened


# -- shared expensive artifacts ---------------------------------------------------


@pytest.fixture(scope="module")
def pretrained():
    """Default-scale host pretrained on (sr2, noise25), then frozen."""
    model, _ = P.pretrain(HostModel(HostConfig()), P.TrainConfig(epochs=30, seed=0))
    return model


@pytest.fixture(scope="module")
def adaptation_run(pretrained):
    """One 200-step adaptation to the unseen second-order degradation,
    shared by the freeze-contract and trend criteria."""
    t0 = time.perf_counter()
    # 16 images / batch 8 -> 2 steps per epoch -> exactly 200 steps
    res = P.finetune(pretrained, "adaptir", "second_order_s2_sig25",
                     P.TrainConfig(epochs=100, seed=0, images=16, eval_n=8))
    wall = time.perf_counter() - t0
    return res, wall


# -- criterion 1: zero-init transparency -------------------------------------------


def test_criterion_1_zero_init_transparency():
    t0 = time.perf_counter()
    cfg = HostConfig()
    model = HostModel(cfg)
    adapters = {
        "adaptir": AdapterStack(cfg, AdaptIRConfig(channels=64, seed=1)),
        "lora": LoRAStack(cfg, ranks=[4] * cfg.layers, seed=1),
        "bottleneck": BottleneckStack(cfg, hidden=[4] * (2 * cfg.layers), seed=1),
    }
    rng = np.random.default_rng(1)
    for i in range(10):
        x = Tensor(rng.random((1, 3, 32, 32)).astype(np.float32))
        with no_grad():
            base = host_forward(x, "sr2", model).data
            for name, adapter in adapters.items():
                out = host_forward(x, "sr2", model, adapter=adapter).data
                assert np.array_equal(base, out), (i, name)
    wall = time.perf_counter() - t0
    print(f"\n[criterion 1] 10 inputs x 3 methods bit-identical; {wall:.1f}s < 10s")
    assert wall < 10.0


def test_criterion_1b_zero_init_all_insertion_variants():
    cfg = HostConfig()
    model = HostModel(cfg)
    rng = np.random.default_rng(2)
    x = Tensor(rng.random((1, 3, 32, 32)).astype(np.float32))
    with no_grad():
        base = host_forward(x, "noise25", model).data
        for pos in ("mlp", "attention"):
            for form in ("parallel", "sequential"):
                stack = AdapterStack(cfg, AdaptIRConfig(channels=64, seed=2,
                                                        position=pos, form=form))
                out = host_forward(x, "noise25", model, adapter=stack).data
                assert np.array_equal(base, out), (pos, form)
    print("\n[criterion 1b] all 4 insertion variants transparent at init")


# -- criterion 2: gradient correctness ----------------------------------------------


def test_criterion_2_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rows = P.gradcheck(seed=0)
    wall = time.perf_counter() - t0
    worst = max(rel for _, rel, _ in rows)
    print(f"\n[criterion 2] worst rel err {worst:.2e} <= 1e-4 over {len(rows)} "
          f"parameter groups; {wall:.1f}s < 60s")
    assert all(ok for _, _, ok in rows)
    assert worst <= 1e-4
    assert wall < 60.0


# -- criterion 3: oracle equivalence -------------------------------------------------


def _naive_dft2(x):
    h, w = x.shape[-2:]
    wh = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    ww = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    return np.einsum("uh,...hw,wv->...uv", wh, x.astype(np.complex128), ww) / (h * w)


def _conv_loops(x, w, b, stride, groups):
    n, cin, h, wd = x.shape
    cout, cpg, k, _ = w.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    opg = cout // groups
    for ni in range(n):
        for co in range(cout):
            gi = co // opg
            for i in range(ho):
                for j in range(wo):
                    patch = xp[ni, gi * cpg:(gi + 1) * cpg,
                               i * stride:i * stride + k, j * stride:j * stride + k]
                    out[ni, co, i, j] = (patch * w[co]).sum() + b[co]
    return out


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)

    for trial in range(20):  # conv2d
        groups = rng.choice([1, 2, 4])
        stride = rng.choice([1, 2])
        cin, cout = 4 * groups, 4 * groups
        x = rng.standard_normal((1, cin, 6, 6))
        w = rng.standard_normal((cout, cin // groups, 3, 3))
        b = rng.standard_normal(cout)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=int(stride),
                       groups=int(groups)).data
        assert np.abs(got - _conv_loops(x, w, b, stride, groups)).max() < 1e-10

    for trial in range(20):  # matmul
        a = rng.standard_normal((2, 5, 7))
        bm = rng.standard_normal((2, 7, 3))
        assert np.abs(T.matmul(Tensor(a), Tensor(bm)).data - a @ bm).max() < 1e-12

    for trial in range(20):  # softmax_spatial
        x = rng.standard_normal((2, 1, 5, 6))
        got = T.softmax_spatial(Tensor(x)).data.reshape(2, -1)
        flat = x.reshape(2, -1)
        e = np.exp(flat - flat.max(axis=1, keepdims=True))
        assert np.abs(got - e / e.sum(axis=1, keepdims=True)).max() < 1e-12

    worst_fft = 0.0
    for trial in range(20):  # rfft2 / irfft2 vs naive DFT, f64
        h, w = rng.integers(4, 13, 2)
        x = rng.standard_normal((1, 2, int(h), int(w)))
        spec = F.rfft2(Tensor(x))
        full = _naive_dft2(x)[..., :, : int(w) // 2 + 1]
        scale = np.abs(full).max()
        worst_fft = max(worst_fft,
                        np.abs(spec.real.data - full.real).max() / scale,
                        np.abs(spec.imag.data - full.imag).max() / scale)
        back = F.irfft2(spec).data
        worst_fft = max(worst_fft, np.abs(back - x).max() / np.abs(x).max())
    assert worst_fft <= 1e-10

    for trial in range(20):  # psnr
        a = rng.random((3, 10, 10)).astype(np.float32)
        b2 = rng.random((3, 10, 10)).astype(np.float32)
        mse = np.mean((a.astype(np.float64) - b2) ** 2)
        assert abs(psnr(a, b2) - 10 * np.log10(1.0 / mse)) < 1e-8

    from test_metrics import ssim_oracle
    for trial in range(20):  # ssim
        a = rng.random((3, 13, 13)).astype(np.float32)
        b2 = np.clip(a + 0.1 * rng.standard_normal(a.shape), 0, 1).astype(np.float32)
        assert abs(ssim(a, b2) - ssim_oracle(a, b2)) < 1e-7

    wall = time.perf_counter() - t0
    print(f"\n[criterion 3] 6 ops x 20 instances match oracles "
          f"(fft worst rel {worst_fft:.1e} <= 1e-10); {wall:.1f}s < 120s")
    assert wall < 120.0


# -- criterion 4: FFT round trip + FAM identity ---------------------------------------


def test_criterion_4_fft_round_trip_and_fam_identity():
    rng = np.random.default_rng(4)
    worst64 = worst32 = 0.0
    for h in range(4, 17):
        for w in range(4, 17):
            x64 = rng.standard_normal((1, 1, h, w))
            worst64 = max(worst64, np.abs(F.irfft2(F.rfft2(Tensor(x64))).data - x64).max())
            x32 = x64.astype(np.float32)
            worst32 = max(worst32, np.abs(F.irfft2(F.rfft2(Tensor(x32))).data - x32).max())
    assert worst64 < 1e-12
    assert worst32 < 1e-5

    ad = AdaptIR(AdaptIRConfig(channels=64, seed=4))
    # the post-inverse scale map set to the identity, exactly: 1 and 0
    ad.params["fam_scale_w"].data = np.ones_like(ad.params["fam_scale_w"].data)
    ad.params["fam_scale_b"].data = np.zeros_like(ad.params["fam_scale_b"].data)
    xi = Tensor(rng.standard_normal((2, 8, 12, 12)).astype(np.float32))
    with no_grad():
        fam = ad.fam_forward(xi).data
    fam_err = np.abs(fam - xi.data).max()
    assert fam_err < 1e-5
    print(f"\n[criterion 4] round trip worst f64 {worst64:.1e} < 1e-12, "
          f"f32 {worst32:.1e} < 1e-5; FAM init identity err {fam_err:.1e} < 1e-5")


# -- criterion 5: receptive-field separation ------------------------------------------


def test_criterion_5_receptive_field_separation():
    for trial in range(5):
        cfg = AdaptIRConfig(channels=16, reduction=4, lim_rank=2, seed=trial)
        ad = widened(AdaptIR(cfg))
        rng = np.random.default_rng(100 + trial)
        for p in ad.params.values():
            p.data = p.data + 0.3 * rng.standard_normal(p.shape)
        x = rng.standard_normal((1, 4, 16, 16))
        xp = x.copy()
        i, j = rng.integers(2, 14, 2)
        xp[0, :, i, j] += 1.0
        with no_grad():
            fam0 = ad.fam_forward(Tensor(x)).data
            fam1 = ad.fam_forward(Tensor(xp)).data
            lim0 = ad.lim_forward(Tensor(x)).data
            lim1 = ad.lim_forward(Tensor(xp)).data
        fam_frac = np.mean(np.abs(fam1 - fam0).max(axis=1) > 1e-12)
        assert fam_frac > 0.99, (trial, fam_frac)
        changed = np.abs(lim1 - lim0).max(axis=(0, 1)) > 1e-12
        ys, xs = np.nonzero(changed)
        assert ys.max() - ys.min() <= 2 and xs.max() - xs.min() <= 2
        assert abs(ys.mean() - i) <= 1 and abs(xs.mean() - j) <= 1
    print(f"\n[criterion 5] 5 instances: FAM perturbation reach {fam_frac:.3f} "
          f"> 0.99 of positions, LIM confined to a 3x3 neighborhood")


# -- criterion 6: low-rank kernel -----------------------------------------------------


def test_criterion_6_composed_kernel_low_rank():
    worst = 0.0
    for r in (1, 2, 4):
        cfg = AdaptIRConfig(channels=64, lim_rank=r, seed=r)
        ad = widened(AdaptIR(cfg))
        rng = np.random.default_rng(r)
        ad.params["lim_u"].data = rng.standard_normal(ad.params["lim_u"].shape)
        ad.params["lim_v"].data = rng.standard_normal(ad.params["lim_v"].shape)
        m = ad.params["lim_u"].data @ ad.params["lim_v"].data.T
        sv = np.linalg.svd(m, compute_uv=False)
        if len(sv) > r:
            worst = max(worst, sv[r:].max())
        assert np.all(sv[r:] < 1e-10), r
    print(f"\n[criterion 6] trailing singular values {worst:.1e} < 1e-10 "
          f"for r in {{1,2,4}}")


# -- criteria 7 + 9: freeze contract and adaptation trend ------------------------------


def test_criterion_7_freeze_contract_200_steps(adaptation_run, pretrained):
    res, _ = adaptation_run
    assert res.report.steps == 200
    assert res.checksum == host_checksum(pretrained)
    print(f"\n[criterion 7] host checksum bit-identical after {res.report.steps} steps")


def test_criterion_9_adaptation_trend(adaptation_run):
    res, wall = adaptation_run
    gain = res.report.psnr - res.psnr_before
    print(f"\n[criterion 9] second-order PSNR {res.psnr_before:.2f} -> "
          f"{res.report.psnr:.2f} dB (gain {gain:.2f} >= 0.5) in {res.report.steps} steps, "
          f"{wall / 60:.1f} min < 10 min")
    assert res.report.steps <= 200
    assert gain >= 0.5
    assert wall < 600.0


# -- criterion 8: parameter budget ------------------------------------------------------


def test_criterion_8_parameter_budget():
    cfg = HostConfig()
    model = HostModel(cfg)
    stack = AdapterStack(cfg, AdaptIRConfig(channels=64))
    trainable = stack.param_count()
    total = model.param_count()
    ratio = trainable / total

    # independent counting oracle, per layer: down + LIM(U,V) + FAM + CSM + up
    c, cg, k, r = 64, 8, 3, 4
    per_layer = ((c * cg + cg) + (cg * r + k * k * r) + (4 * cg + 2 * cg)
                 + ((cg + 1) + (cg * cg + cg) + (cg * cg + cg)) + (cg * c + c))
    assert trainable == per_layer * cfg.layers == 5460
    assert ratio <= 0.02
    print(f"\n[criterion 8] trainable {trainable} / total {total} = "
          f"{100 * ratio:.2f}% <= 2%, counting oracle exact")


# -- criterion 10: schedule exactness -----------------------------------------------------


def test_criterion_10_schedule_exactness():
    values = [P.lr_at(e, 1e-4, 500) for e in (0, 250, 400, 450, 475)]
    assert values == [1e-4, 5e-5, 2.5e-5, 1.25e-5, 6.25e-6]
    # exact floating-point halving, not approximate
    assert values[1] == values[0] * 0.5
    assert values[4] == 1e-4 * 0.5 ** 4
    print(f"\n[criterion 10] lr at {{0,250,400,450,475}}/500 = {values}")


# -- criterion 11: ablation harness completeness ------------------------------------------


def test_criterion_11_ablation_harness(pretrained):
    t0 = time.perf_counter()
    task = "second_order_s2_sig25"
    train = P.TrainConfig(epochs=1, seed=0, images=8, eval_n=2)

    eff = P.ablate(pretrained, task, "efficiency", train)
    labels = [l for l, _ in eff]
    assert labels == ["(0) baseline", "(1) w/o decomposition in LIM",
                      "(2) w/o depth-separable in LIM",
                      "(3) w/o depth-separable in FAM",
                      "(4) w/o CSM & w/o depth-separable"]
    counts = {l: rep.trainable_params for l, rep in eff}
    assert counts["(1) w/o decomposition in LIM"] > counts["(0) baseline"]
    assert counts["(2) w/o depth-separable in LIM"] > counts["(1) w/o decomposition in LIM"]
    assert counts["(3) w/o depth-separable in FAM"] > counts["(2) w/o depth-separable in LIM"]
    assert counts["(4) w/o CSM & w/o depth-separable"] < counts["(3) w/o depth-separable in FAM"]

    comp = P.ablate(pretrained, task, "components", train)
    assert [l for l, _ in comp] == ["csm", "fam+csm", "lim+fam", "lim+fam+csm"]
    cc = {l: rep.trainable_params for l, rep in comp}
    assert cc["csm"] < cc["fam+csm"] < cc["lim+fam+csm"]

    ins = P.ablate(pretrained, task, "insertion", train)
    assert [l for l, _ in ins] == ["mlp/parallel", "mlp/sequential",
                                   "attention/parallel", "attention/sequential"]
    assert len({rep.trainable_params for _, rep in ins}) == 1

    for _, rep in eff + comp + ins:
        assert rep.psnr > 0 and 0 <= rep.ssim <= 1
    wall = time.perf_counter() - t0
    print(f"\n[criterion 11] 5+4+4 ablation rows, count orderings hold; "
          f"{wall:.0f}s < 600s")
    assert wall < 600.0
