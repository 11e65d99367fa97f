"""2-D real FFT with the forward 1/(HW) normalization.

The frequency branch needs bin (u,v) = (1/HW) * sum_{h,w} x(h,w) e^{-2pi i
(uh/H + vw/W)} and an inverse that carries no normalization factor, so the
pair is an exact round trip.  Both directions and their adjoints are
``numpy.fft`` calls that run in their input's precision and cast nothing,
so any H, W >= 1 is supported.

Only the half spectrum (last axis trimmed to floor(W/2)+1) is stored; the
four structurally real bins (DC and Nyquist combinations) have their
imaginary parts forced to exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, ShapeError, _check_dtypes, _node

__all__ = ["ComplexSpectrum", "rfft2", "irfft2"]


def _real_bins(h: int, w: int) -> list[tuple[int, int]]:
    """Half-spectrum indices whose imaginary part is structurally zero."""
    rows = [0] + ([h // 2] if h % 2 == 0 else [])
    cols = [0] + ([w // 2] if w % 2 == 0 else [])
    return [(r, c) for r in rows for c in cols]


def _hermitian_weight(w: int, dtype) -> np.ndarray:
    """How often each stored column occurs in the full spectrum: the DC
    column (and the Nyquist column for even W) once, every other twice."""
    weight = np.full(w // 2 + 1, 2.0, dtype=dtype)
    weight[0] = 1.0
    if w % 2 == 0:
        weight[-1] = 1.0
    return weight


@dataclass
class ComplexSpectrum:
    """Half spectrum of a real 2-D signal, stored as two real tensors.

    ``real`` and ``imag`` have shape (..., H, floor(W/2)+1); the original
    width is kept because even and odd W produce the same half width.
    """

    real: Tensor
    imag: Tensor
    original_width: int


def rfft2(x: Tensor) -> ComplexSpectrum:
    """Half-spectrum DFT of (..., H, W) with the 1/(HW) forward factor."""
    if x.ndim < 2:
        raise ShapeError(f"rfft2 expects at least 2 dims, got shape {x.shape}")
    h, w = x.shape[-2], x.shape[-1]
    half = np.fft.rfft2(x.data, norm="forward")
    re = half.real.copy()
    im = half.imag.copy()
    for (r, c) in _real_bins(h, w):
        im[..., r, c] = 0.0
    weight = _hermitian_weight(w, x.dtype)

    def _adjoint(ghat: np.ndarray) -> np.ndarray:
        # irfft2 counts each interior column twice (it and its mirror), so
        # dividing by the weight gives Re(ifft2) of the zero-padded ghat;
        # ifft2's own 1/(HW) is the adjoint of the forward factor
        return np.fft.irfft2(ghat / weight, s=(h, w))

    def backward_re(g):
        return (_adjoint(g),)

    def backward_im(g):
        # irfft2 itself drops the imaginary part of the structurally real bins
        return (_adjoint(1j * g),)

    re_t = _node(re, (x,), backward_re)
    im_t = _node(im, (x,), backward_im)
    return ComplexSpectrum(re_t, im_t, w)


def irfft2(s: ComplexSpectrum) -> Tensor:
    """Inverse of :func:`rfft2`; the inverse carries no normalization.

    Works for any half spectrum: it is read as the half of its Hermitian
    extension and the real part of that inverse is returned, which
    coincides with the exact inverse on spectra produced by ``rfft2``.
    """
    re, im = s.real, s.imag
    if re.shape != im.shape:
        raise ShapeError(f"spectrum parts disagree: {re.shape} vs {im.shape}")
    _check_dtypes("irfft2", re, im)
    w = s.original_width
    h, wh = re.shape[-2], re.shape[-1]
    if wh != w // 2 + 1:
        raise ShapeError(
            f"half width {wh} inconsistent with original_width {w} (expected {w // 2 + 1})"
        )
    out = np.fft.irfft2(re.data + 1j * im.data, s=(h, w), norm="forward")
    weight = _hermitian_weight(w, re.dtype)

    def backward(g):
        f = weight * np.fft.rfft2(g)
        return f.real, f.imag

    return _node(out, (re, im), backward)
