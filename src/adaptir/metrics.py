"""PSNR / SSIM on [0,1] images, plus the per-run metric record."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["MetricReport", "psnr", "ssim", "rgb_to_y"]

PSNR_CAP = 99.0

# BT.601 luma coefficients for 8-bit-range YCbCr, applied to [0,1] data
_Y_COEF = np.array([65.738, 129.057, 25.064]) / 255.0
_Y_OFFSET = 16.0 / 255.0


@dataclass
class MetricReport:
    task: str
    psnr: float
    ssim: float
    trainable_params: int
    total_params: int
    steps: int

    def __post_init__(self):
        if not 0.0 <= self.ssim <= 1.0:
            raise ValueError(f"ssim {self.ssim} outside [0, 1]")
        if self.psnr < 0.0:
            raise ValueError(f"psnr {self.psnr} must be >= 0")

    CSV_FIELDS = ("task", "psnr", "ssim", "trainable_params", "total_params", "steps")

    def csv_row(self) -> str:
        return ",".join([self.task, f"{self.psnr:.6f}", f"{self.ssim:.6f}",
                         str(self.trainable_params), str(self.total_params),
                         str(self.steps)])


def rgb_to_y(img: np.ndarray) -> np.ndarray:
    """BT.601 luma of a 3 x H x W image, returned as 1 x H x W."""
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected 3 x H x W, got {img.shape}")
    y = np.tensordot(_Y_COEF, img.astype(np.float64), axes=(0, 0)) + _Y_OFFSET
    return y[None]


def psnr(a: np.ndarray, b: np.ndarray, mode: str = "rgb") -> float:
    """10*log10(1/MSE) on [0,1] data, capped at 99 dB for identical inputs."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if mode not in ("rgb", "y_channel"):
        raise ValueError(f"unknown psnr mode {mode!r}")
    if mode == "y_channel":
        a, b = rgb_to_y(a), rgb_to_y(b)
    mse = np.mean((a.astype(np.float64, copy=False) - b.astype(np.float64, copy=False)) ** 2)
    if mse == 0.0:
        return PSNR_CAP
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP)


SSIM_WINDOW = 11  # edge of the SSIM Gaussian window


def _gaussian_window() -> np.ndarray:
    """The normalised 1-D Gaussian; the 2-D window is its outer product."""
    sigma = 1.5
    r = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    return g / g.sum()


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local SSIM over valid 11x11 Gaussian windows, on the luma of 3 x H x W images."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    x, y = rgb_to_y(a)[0], rgb_to_y(b)[0]
    if min(x.shape) < SSIM_WINDOW:
        raise ValueError(f"image {x.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    g = _gaussian_window()
    c1, c2 = 0.01 ** 2, 0.03 ** 2

    def filt(z):
        # the window is separable: one 1-D pass along each axis
        rows = sliding_window_view(z, SSIM_WINDOW, axis=1) @ g
        return sliding_window_view(rows, SSIM_WINDOW, axis=0) @ g

    mu_x, mu_y = filt(x), filt(y)
    sxx = filt(x * x) - mu_x * mu_x
    syy = filt(y * y) - mu_y * mu_y
    sxy = filt(x * y) - mu_x * mu_y
    num = (2 * mu_x * mu_y + c1) * (2 * sxy + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (sxx + syy + c2)
    return float(np.clip(np.mean(num / den), 0.0, 1.0))
