"""FFT layer against a naive O(n^2) DFT oracle, plus round-trip,
Parseval, and adjoint (gradient) correctness."""

import re

import numpy as np
import pytest

from adaptir import fft as F
from adaptir import tensor as T
from adaptir.tensor import Tensor, finite_diff_grad


def naive_dft2(x):
    """Direct double-sum 2-D DFT with the forward 1/(HW) normalization."""
    h, w = x.shape[-2:]
    ii = np.arange(h)
    jj = np.arange(w)
    wh = np.exp(-2j * np.pi * np.outer(ii, ii) / h)
    ww = np.exp(-2j * np.pi * np.outer(jj, jj) / w)
    return np.einsum("uh,...hw,wv->...uv", wh, x.astype(np.complex128), ww) / (h * w)


@pytest.mark.parametrize("hw", [(4, 4), (5, 7), (8, 8), (6, 10), (9, 9), (16, 12),
                                (1, 1), (1, 6), (3, 1), (2, 3)])
def test_rfft2_matches_naive_dft(hw):
    rng = np.random.default_rng(sum(hw))
    x = rng.standard_normal((2, 3) + hw)
    full = naive_dft2(x)
    half = full[..., :, : hw[1] // 2 + 1]
    # the f32 row is x rounded to f32 against the f64 oracle of x itself
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-6)):
        spec = F.rfft2(Tensor(x.astype(dtype)))
        assert spec.real.dtype == spec.imag.dtype == dtype
        assert np.abs(spec.real.data - half.real).max() < tol, dtype
        assert np.abs(spec.imag.data - half.imag).max() < tol, dtype


def naive_inverse_of_half(half, w):
    """Real part of the unnormalized inverse DFT of the Hermitian-mirrored
    full spectrum: column v >= floor(W/2)+1 is conj(half[-u, W-v])."""
    h, wh = half.shape[-2:]
    full = np.zeros(half.shape[:-1] + (w,), dtype=np.complex128)
    full[..., :wh] = half
    for v in range(wh, w):
        full[..., :, v] = np.conj(half[..., (-np.arange(h)) % h, w - v])
    ii, jj = np.arange(h), np.arange(w)
    eh = np.exp(2j * np.pi * np.outer(ii, ii) / h)
    ew = np.exp(2j * np.pi * np.outer(jj, jj) / w)
    return np.einsum("hu,...uv,vw->...hw", eh, full, ew).real


def test_irfft2_matches_naive_inverse_on_arbitrary_half_spectra():
    # DC/Nyquist bins carry nonzero imaginary parts, which no real signal
    # produces; irfft2 must still equal the real part of the mirrored inverse
    rng = np.random.default_rng(4)
    for h in range(1, 17):
        for w in range(1, 17):
            shape = (2, h, w // 2 + 1)
            half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            out = F.irfft2(F.ComplexSpectrum(Tensor(half.real), Tensor(half.imag), w))
            assert out.shape == (2, h, w)
            assert np.abs(out.data - naive_inverse_of_half(half, w)).max() < 1e-10, (h, w)


def test_structurally_real_bins_are_exactly_zero():
    rng = np.random.default_rng(0)
    for h, w in [(4, 4), (6, 8), (5, 6)]:
        spec = F.rfft2(Tensor(rng.standard_normal((1, 1, h, w))))
        im = spec.imag.data[0, 0]
        assert im[0, 0] == 0.0
        if w % 2 == 0:
            assert im[0, w // 2] == 0.0
        if h % 2 == 0:
            assert im[h // 2, 0] == 0.0


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_round_trip_all_sizes_4_to_16(dtype, tol):
    rng = np.random.default_rng(1)
    for h in range(4, 17):
        for w in range(4, 17):
            x = rng.standard_normal((1, 2, h, w)).astype(dtype)
            back = F.irfft2(F.rfft2(Tensor(x))).data
            assert np.abs(back - x).max() < tol, (h, w, dtype)


def test_parseval_with_forward_normalization():
    # sum |x|^2 = HW * sum_fullspectrum |X|^2 under X = DFT(x)/(HW)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 8, 10))
    full = naive_dft2(x)
    lhs = (x ** 2).sum()
    rhs = 8 * 10 * (np.abs(full) ** 2).sum()
    assert abs(lhs - rhs) / lhs < 1e-12
    # and the half-spectrum storage loses nothing: mirror weights 1/2/1
    spec = F.rfft2(Tensor(x))
    wgt = np.full(spec.real.shape[-1], 2.0)
    wgt[0] = 1.0
    if 10 % 2 == 0:
        wgt[-1] = 1.0
    rhs_half = 8 * 10 * ((spec.real.data ** 2 + spec.imag.data ** 2) * wgt).sum()
    assert abs(lhs - rhs_half) / lhs < 1e-12


def test_linearity_and_shift_property():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((1, 1, 8, 8))
    b = rng.standard_normal((1, 1, 8, 8))
    sa = F.rfft2(Tensor(2.0 * a + 3.0 * b))
    ra, rb = F.rfft2(Tensor(a)), F.rfft2(Tensor(b))
    assert np.allclose(sa.real.data, 2 * ra.real.data + 3 * rb.real.data, atol=1e-13)
    assert np.allclose(sa.imag.data, 2 * ra.imag.data + 3 * rb.imag.data, atol=1e-13)


def test_impulse_spectrum_is_flat():
    x = np.zeros((1, 1, 8, 8))
    x[0, 0, 0, 0] = 1.0
    spec = F.rfft2(Tensor(x))
    assert np.allclose(spec.real.data, 1.0 / 64.0, atol=1e-14)
    assert np.allclose(spec.imag.data, 0.0, atol=1e-14)


@pytest.mark.parametrize("hw", [(4, 4), (5, 6), (8, 8), (7, 7), (3, 1), (2, 3)])
def test_gradients_through_round_trip(hw):
    rng = np.random.default_rng(sum(hw) + 10)
    x = rng.standard_normal((1, 2) + hw)
    cot = Tensor(rng.standard_normal(x.shape))

    def loss(t):
        return T.tsum(F.irfft2(F.rfft2(t)) * cot)

    xt = Tensor(x, requires_grad=True)
    loss(xt).backward()
    fd = finite_diff_grad(loss, xt, 1e-6)
    assert np.abs(xt.grad - fd).max() < 1e-7


@pytest.mark.parametrize("hw", [(3, 1), (2, 2), (2, 3), (5, 6), (4, 7)])
def test_gradients_of_each_direction(hw):
    # the round trip cancels the 1/2/1 column weights of the two adjoints;
    # differentiating each direction alone pins them down one by one
    rng = np.random.default_rng(sum(hw) + 20)
    x = rng.standard_normal((1, 2) + hw)
    half_shape = (1, 2, hw[0], hw[1] // 2 + 1)
    c_re, c_im = Tensor(rng.standard_normal(half_shape)), Tensor(rng.standard_normal(half_shape))

    def loss_fwd(t):
        s = F.rfft2(t)
        return T.tsum(s.real * c_re) + T.tsum(s.imag * c_im)

    xt = Tensor(x, requires_grad=True)
    loss_fwd(xt).backward()
    assert np.abs(xt.grad - finite_diff_grad(loss_fwd, xt, 1e-6)).max() < 1e-7

    re = Tensor(rng.standard_normal(half_shape), requires_grad=True)
    im = Tensor(rng.standard_normal(half_shape), requires_grad=True)
    cot = Tensor(rng.standard_normal(x.shape))

    def loss_inv(r, i):
        return T.tsum(F.irfft2(F.ComplexSpectrum(r, i, hw[1])) * cot)

    loss_inv(re, im).backward()
    fd_re = finite_diff_grad(lambda t: loss_inv(t, im), re, 1e-6)
    fd_im = finite_diff_grad(lambda t: loss_inv(re, t), im, 1e-6)
    assert np.abs(re.grad - fd_re).max() < 1e-7
    assert np.abs(im.grad - fd_im).max() < 1e-7


@pytest.mark.parametrize("hw", [(1, 1), (3, 1), (4, 4), (5, 7), (6, 10), (9, 9)])
def test_f32_transforms_are_numpys_single_precision_ones(hw):
    # nothing is widened: each direction is numpy's complex64 transform, bit
    # for bit (rfft2 outside the structurally real bins, which it zeroes)
    h, w = hw
    rng = np.random.default_rng(sum(hw) + 30)
    x = rng.standard_normal((2, 3, h, w)).astype(np.float32)
    ref = np.fft.rfft2(x, norm="forward")
    spec = F.rfft2(Tensor(x))
    real_bins = np.zeros(ref.shape[-2:], dtype=bool)
    for (r, c) in F._real_bins(h, w):
        real_bins[r, c] = True
    assert np.array_equal(spec.real.data, ref.real)
    assert np.array_equal(spec.imag.data[..., ~real_bins], ref.imag[..., ~real_bins])
    assert not spec.imag.data[..., real_bins].any()

    re, im = (rng.standard_normal(ref.shape).astype(np.float32) for _ in range(2))
    out = F.irfft2(F.ComplexSpectrum(Tensor(re), Tensor(im), w))
    assert out.dtype == np.float32
    assert np.array_equal(out.data, np.fft.irfft2(re + 1j * im, s=(h, w), norm="forward"))


@pytest.mark.parametrize("hw", [(3, 1), (2, 3), (5, 6), (8, 8)])
def test_f32_adjoints_agree_with_f64_ones(hw):
    # the same cotangents through both directions at f32 and at f64: each
    # gradient stays f32 and differs from the f64 one by f32 rounding only
    rng = np.random.default_rng(sum(hw) + 40)
    half_shape = (1, 2, hw[0], hw[1] // 2 + 1)
    x, cot = rng.standard_normal((2, 1, 2) + hw)
    c_re, c_im, re, im = rng.standard_normal((4,) + half_shape)

    def grads(dtype):
        xt = Tensor(x.astype(dtype), requires_grad=True)
        s = F.rfft2(xt)
        (T.tsum(s.real * Tensor(c_re.astype(dtype)))
         + T.tsum(s.imag * Tensor(c_im.astype(dtype)))).backward()
        rt, it = (Tensor(a.astype(dtype), requires_grad=True) for a in (re, im))
        T.tsum(F.irfft2(F.ComplexSpectrum(rt, it, hw[1])) * Tensor(cot.astype(dtype))).backward()
        return xt.grad, rt.grad, it.grad

    for g32, g64 in zip(grads(np.float32), grads(np.float64)):
        assert g32.dtype == np.float32
        assert np.abs(g32 - g64).max() <= 1e-6 * max(1.0, np.abs(g64).max())


def test_gradients_through_magnitude_phase_path():
    # the exact composite the frequency branch uses: polar, affine, back
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1, 2, 6, 6))
    wm = Tensor(1.0 + 0.1 * rng.standard_normal((2, 1, 1)))
    wp = Tensor(0.1 * rng.standard_normal((2, 1, 1)))
    cot = Tensor(rng.standard_normal(x.shape))

    def loss(t):
        s = F.rfft2(t)
        mag = T.hypot(s.imag, s.real) * wm
        pha = T.atan2(s.imag, s.real) + wp
        out = F.irfft2(F.ComplexSpectrum(mag * T.cos(pha), mag * T.sin(pha),
                                         s.original_width))
        return T.tsum(out * cot)

    xt = Tensor(x, requires_grad=True)
    loss(xt).backward()
    fd = finite_diff_grad(loss, xt, 1e-6)
    denom = max(np.abs(fd).max(), 1.0)
    assert np.abs(xt.grad - fd).max() / denom < 1e-7


def spectrum(re_shape, im_shape, width):
    return F.ComplexSpectrum(Tensor(np.zeros(re_shape)), Tensor(np.zeros(im_shape)), width)


@pytest.mark.parametrize("call,message", [
    (lambda: F.rfft2(Tensor(np.zeros(4))), "rfft2 expects at least 2 dims, got shape (4,)"),
    (lambda: F.irfft2(spectrum((4, 3), (4, 2), 4)), "spectrum parts disagree: (4, 3) vs (4, 2)"),
    (lambda: F.irfft2(spectrum((4, 3), (4, 3), 6)),
     "half width 3 inconsistent with original_width 6 (expected 4)"),
], ids=["rfft2-ndim", "irfft2-parts", "irfft2-width"])
def test_shape_refusals_are_one_line(call, message):
    with pytest.raises(T.ShapeError, match=f"^{re.escape(message)}$"):
        call()
