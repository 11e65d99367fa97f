"""PSNR/SSIM against closed forms and a direct sliding-window oracle."""

import numpy as np
import pytest

from adaptir.metrics import (MetricReport, PSNR_CAP, psnr, rgb_to_y, ssim)


def test_psnr_closed_form_uniform_error():
    a = np.full((3, 16, 16), 0.5, dtype=np.float32)
    b = a + 16.0 / 255.0
    # MSE = (16/255)^2  =>  PSNR = 20 log10(255/16) = 24.0327...
    expect = 20.0 * np.log10(255.0 / 16.0)
    assert abs(psnr(a, b) - expect) < 1e-4


def test_psnr_identical_images_capped():
    a = np.random.default_rng(0).random((3, 8, 8)).astype(np.float32)
    assert psnr(a, a) == PSNR_CAP


def test_psnr_direct_formula_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.random((3, 12, 12)).astype(np.float32)
        b = rng.random((3, 12, 12)).astype(np.float32)
        mse = np.mean((a.astype(np.float64) - b) ** 2)
        assert abs(psnr(a, b) - 10 * np.log10(1.0 / mse)) < 1e-8


def test_rgb_to_y_bt601_anchors():
    white = np.ones((3, 1, 1), dtype=np.float32)
    black = np.zeros((3, 1, 1), dtype=np.float32)
    yw = rgb_to_y(white)[0, 0, 0]
    yb = rgb_to_y(black)[0, 0, 0]
    # studio-swing BT.601: black -> 16/255, white -> 235/255
    assert abs(yb - 16.0 / 255.0) < 1e-6
    # rounded coefficients sum to 219.859, so white lands at ~235.86/255
    assert abs(yw - 235.859 / 255.0) < 1e-6
    green = np.zeros((3, 1, 1), dtype=np.float32)
    green[1] = 1.0
    assert abs(rgb_to_y(green)[0, 0, 0] - (129.057 / 255.0 + 16.0 / 255.0)) < 1e-6


def test_psnr_y_channel_mode_differs_from_rgb():
    rng = np.random.default_rng(2)
    a = rng.random((3, 16, 16)).astype(np.float32)
    b = np.clip(a + 0.05 * rng.standard_normal(a.shape), 0, 1).astype(np.float32)
    assert psnr(a, b, mode="y_channel") != psnr(a, b, mode="rgb")
    # and y-mode equals computing rgb-mode psnr on the luma planes
    assert abs(psnr(a, b, mode="y_channel") - psnr(rgb_to_y(a), rgb_to_y(b))) < 1e-9


def test_psnr_mode_validation():
    a = np.zeros((3, 4, 4), dtype=np.float32)
    with pytest.raises(ValueError):
        psnr(a, a, mode="lab")
    with pytest.raises(ValueError):
        psnr(a, np.zeros((3, 5, 5), dtype=np.float32))


# -- SSIM ---------------------------------------------------------------------


def gaussian_2d(size=11, sigma=1.5):
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2 * sigma ** 2))
    k = np.outer(g, g)
    return k / k.sum()


def ssim_oracle(a, b, window=11, sigma=1.5):
    """Direct per-window loop on the luma planes, valid windows only."""
    ya = rgb_to_y(a)[0].astype(np.float64) if a.shape[0] == 3 else a[0].astype(np.float64)
    yb = rgb_to_y(b)[0].astype(np.float64) if b.shape[0] == 3 else b[0].astype(np.float64)
    k = gaussian_2d(window, sigma)
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    h, w = ya.shape
    vals = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            pa = ya[i:i + window, j:j + window]
            pb = yb[i:i + window, j:j + window]
            mua = (k * pa).sum()
            mub = (k * pb).sum()
            va = (k * pa * pa).sum() - mua ** 2
            vb = (k * pb * pb).sum() - mub ** 2
            cov = (k * pa * pb).sum() - mua * mub
            vals.append(((2 * mua * mub + c1) * (2 * cov + c2))
                        / ((mua ** 2 + mub ** 2 + c1) * (va + vb + c2)))
    return float(np.clip(np.mean(vals), 0.0, 1.0))


def test_ssim_identical_is_one():
    a = np.random.default_rng(3).random((3, 16, 16)).astype(np.float32)
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-9)


def test_ssim_matches_window_loop_oracle():
    rng = np.random.default_rng(4)
    for trial in range(5):
        a = rng.random((3, 14, 15)).astype(np.float32)
        b = np.clip(a + 0.1 * rng.standard_normal(a.shape), 0, 1).astype(np.float32)
        assert abs(ssim(a, b) - ssim_oracle(a, b)) < 1e-7, trial


def test_ssim_decreases_with_noise():
    rng = np.random.default_rng(5)
    a = rng.random((3, 20, 20)).astype(np.float32)
    small = np.clip(a + 0.02 * rng.standard_normal(a.shape), 0, 1).astype(np.float32)
    big = np.clip(a + 0.3 * rng.standard_normal(a.shape), 0, 1).astype(np.float32)
    assert ssim(a, big) < ssim(a, small) < 1.0


def test_ssim_window_bound():
    a = np.zeros((3, 8, 8), dtype=np.float32)
    with pytest.raises(ValueError):
        ssim(a, a)  # image smaller than the window


def test_ssim_refuses_a_shape_mismatch():
    a, b = np.zeros((3, 16, 16), np.float32), np.zeros((3, 16, 12), np.float32)
    with pytest.raises(ValueError, match=r"^shape mismatch \(3, 16, 16\) vs \(3, 16, 12\)$"):
        ssim(a, b)


def test_ssim_refuses_a_single_channel_image():
    # used to score channel 0 of any input without 3 channels
    a = np.random.default_rng(6).random((1, 16, 16)).astype(np.float32)
    with pytest.raises(ValueError, match=r"expected 3 x H x W, got \(1, 16, 16\)"):
        ssim(a, a)


# -- MetricReport --------------------------------------------------------------


def test_metric_report_validation_and_csv():
    rep = MetricReport(task="sr2", psnr=24.5, ssim=0.81, trainable_params=5460,
                       total_params=311996, steps=200)
    row = rep.csv_row()
    assert row == "sr2,24.500000,0.810000,5460,311996,200"
    assert len(row.split(",")) == len(MetricReport.CSV_FIELDS)
    with pytest.raises(ValueError):
        MetricReport(task="x", psnr=-1.0, ssim=0.5, trainable_params=0,
                     total_params=1, steps=0)
    with pytest.raises(ValueError):
        MetricReport(task="x", psnr=1.0, ssim=1.5, trainable_params=0,
                     total_params=1, steps=0)
