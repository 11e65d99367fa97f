"""Procedural image synthesis, degradation operators and a PPM writer.

Everything here is a pure, seeded function: images are CHW float32
arrays in [0, 1], 8-bit quantization happens only at the file boundary,
and every degradation is a deterministic function of (image, spec, seed),
where a spec is four numbers: ``scale``, ``sigma``, ``factor`` and ``gamma``.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegradationSpec",
    "parse_task",
    "synth_image",
    "downsample_bicubic",
    "add_gaussian_noise",
    "degrade",
    "save_ppm",
    "derive_seed",
    "epoch_order",
]


def derive_seed(root: int, *parts) -> int:
    """Stable named substream: fold (root, parts) through SHA-256."""
    h = hashlib.sha256(repr((int(root),) + tuple(parts)).encode()).digest()
    return int.from_bytes(h[:8], "little")


def epoch_order(corpus_seed: int, epoch: int, n: int) -> np.ndarray:
    """Deterministic per-epoch reshuffle of n items."""
    return np.random.default_rng(derive_seed(corpus_seed, "shuffle", epoch)).permutation(n)


# -- degradation specs ----------------------------------------------------


@dataclass(frozen=True)
class DegradationSpec:
    """A degradation as four numbers, each at its identity by default, so
    ``DegradationSpec()`` degrades nothing: bicubic downsample by ``scale``,
    then Gaussian noise of ``sigma`` on the 0-255 scale; or darken, multiply
    by ``factor`` then raise to ``gamma``, which neither resamples nor adds
    noise."""

    scale: int = 1
    sigma: float = 0.0
    factor: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        for name in ("sigma", "factor", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.darkens() and (self.scale, self.sigma) != (1, 0):
            raise ValueError(f"a spec that darkens neither resamples nor adds noise;"
                             f" got scale {self.scale}, sigma {self.sigma:g}")

    def darkens(self) -> bool:
        return (self.factor, self.gamma) != (1, 1)

    def task_id(self) -> str:
        """The one id of what this spec does (``second_order_s2_sig0`` is
        ``sr2``); ``noise0`` degrades nothing."""
        if self.darkens():
            return f"darken_f{_fmt(self.factor)}_g{_fmt(self.gamma)}"
        if self.scale == 1:
            return f"noise{_fmt(self.sigma)}"
        if self.sigma > 0:
            return f"second_order_s{self.scale}_sig{_fmt(self.sigma)}"
        return f"sr{self.scale}"


def _fmt(x: float) -> str:
    return f"{x:g}"


_NUM = r"(\d*\.?\d+(?:e[+-]\d+)?)"  # a number as ``_fmt`` may write it: 25, 0.5, 1e-05

_TASK_RES = [
    (re.compile(r"^sr(\d+)$"), lambda m: DegradationSpec(scale=int(m[1]))),
    (re.compile(rf"^noise{_NUM}$"), lambda m: DegradationSpec(sigma=float(m[1]))),
    (re.compile(rf"^second_order_s(\d+)_sig{_NUM}$"),
     lambda m: DegradationSpec(scale=int(m[1]), sigma=float(m[2]))),
    (re.compile(rf"^darken_f{_NUM}_g{_NUM}$"),
     lambda m: DegradationSpec(factor=float(m[1]), gamma=float(m[2]))),
]


def parse_task(spec: str) -> DegradationSpec:
    """Parse task ids like sr2, noise25, second_order_s2_sig25, darken_f0.2_g1.2.
    A degradation has one id, its ``task_id()``: images are seeded by the id,
    so another spelling of it (``sr02``, ``noise.5``) is refused."""
    for pattern, build in _TASK_RES:
        m = pattern.match(spec)
        if m:
            try:
                parsed = build(m)
            except ValueError as exc:
                raise ValueError(f"task {spec!r}: {exc}") from None
            if parsed.task_id() != spec:
                raise ValueError(f"task {spec!r} is not canonical; write {parsed.task_id()!r}")
            return parsed
    raise ValueError(f"unrecognized task spec {spec!r}")


# -- synthesis --------------------------------------------------------------


def synth_image(seed: int, size: int) -> np.ndarray:
    """Deterministic procedural RGB texture with smooth and structured content.

    Mixes linear gradients, a band-limited cosine field, random rectangles
    and a hard edge, then normalizes into [0, 1].
    """
    if size < 8:
        raise ValueError(f"size must be >= 8, got {size}")
    rng = np.random.default_rng(derive_seed(seed, "synth"))
    yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij")
    img = np.zeros((3, size, size))

    for c in range(3):
        gx, gy = rng.uniform(-1, 1, 2)
        img[c] = gx * xx + gy * yy
    for _ in range(4):
        fx, fy = rng.uniform(0.5, 4.0, 2) * rng.choice([-1, 1], 2)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.1, 0.5, 3)
        wave = np.cos(2 * np.pi * (fx * xx + fy * yy) + phase)
        img += amp[:, None, None] * wave
    for _ in range(rng.integers(3, 7)):
        y0, x0 = rng.integers(0, size - 4, 2)
        hgt = int(rng.integers(3, max(4, size // 2)))
        wdt = int(rng.integers(3, max(4, size // 2)))
        img[:, y0:y0 + hgt, x0:x0 + wdt] += rng.uniform(-0.8, 0.8, 3)[:, None, None]
    # one hard half-plane edge for sharp structure
    nx, ny = rng.uniform(-1, 1, 2)
    off = rng.uniform(0.3, 0.7)
    img += 0.4 * rng.uniform(-1, 1) * (nx * xx + ny * yy > off * (nx + ny))

    lo, hi = img.min(), img.max()
    img = (img - lo) / (hi - lo) if hi > lo else np.full_like(img, 0.5)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


# -- bicubic resampling -------------------------------------------------------


def _cubic(x: np.ndarray) -> np.ndarray:
    """Keys' cubic convolution kernel with a = -0.5."""
    a = -0.5
    ax = np.abs(x)
    ax2, ax3 = ax * ax, ax * ax * ax
    return np.where(ax <= 1,
                    (a + 2) * ax3 - (a + 3) * ax2 + 1,
                    np.where(ax < 2, a * ax3 - 5 * a * ax2 + 8 * a * ax - 4 * a, 0.0))


@functools.cache
def _resample_matrix(n_in: int, s: int) -> np.ndarray:
    """Row-stochastic (n_in/s) x n_in matrix: anti-aliased cubic, replicated borders.

    Cached and read-only: every caller shares the one array per (n_in, s)."""
    n_out = n_in // s
    out = np.zeros((n_out, n_in))
    radius = 2 * s
    for i in range(n_out):
        u = (i + 0.5) * s - 0.5
        lo = int(np.floor(u - radius)) + 1
        taps = np.arange(lo, lo + 2 * radius)
        w = _cubic((taps - u) / s) / s
        w = w / w.sum()
        np.add.at(out[i], np.clip(taps, 0, n_in - 1), w)
    out.setflags(write=False)
    return out


def downsample_bicubic(img: np.ndarray, s: int) -> np.ndarray:
    """Anti-aliased bicubic downsample by integer factor ``s``."""
    c, h, w = img.shape
    if h % s != 0 or w % s != 0:
        raise ValueError(f"dims {h}x{w} not divisible by scale {s}")
    mh = _resample_matrix(h, s)
    mw = _resample_matrix(w, s)
    # rows first, then columns: two BLAS products, each channel a batch entry
    out = mh @ img.astype(np.float64) @ mw.T
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def add_gaussian_noise(img: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """i.i.d. Gaussian noise with sigma given on the 0-255 scale."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    rng = np.random.default_rng(derive_seed(seed, "noise"))
    noisy = img + (sigma / 255.0) * rng.standard_normal(img.shape)
    return np.clip(noisy, 0.0, 1.0).astype(np.float32)


def degrade(img: np.ndarray, spec: DegradationSpec, seed: int) -> np.ndarray:
    """The one chain: darken, or downsample by ``scale`` and then add noise
    of ``sigma`` drawn from ``seed``.  A step at its identity does not run;
    the low-quality image is always a new float32 array."""
    if spec.darkens():
        return np.clip((img * spec.factor) ** spec.gamma, 0.0, 1.0).astype(np.float32)
    if (spec.scale, spec.sigma) == (1, 0):  # noise0: the copy every step makes, clipped
        return np.clip(img, 0.0, 1.0).astype(np.float32)
    lq = downsample_bicubic(img, spec.scale) if spec.scale > 1 else img
    return add_gaussian_noise(lq, spec.sigma, seed) if spec.sigma > 0 else lq


# -- portable pixmap output ----------------------------------------------------


def save_ppm(img: np.ndarray, path) -> None:
    """Write a 3 x H x W image as binary P6, maxval 255."""
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected 3 x H x W, got {img.shape}")
    _, h, w = img.shape
    q = np.clip(np.floor(img * 255.0 + 0.5), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(q.transpose(1, 2, 0).tobytes())
