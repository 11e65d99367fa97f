"""Degradation pipeline and PPM output: separable-resampling oracle, noise
statistics, task-spec parsing, byte-level image round trips."""

import io
import re

import numpy as np
import pytest

from adaptir.data import (DegradationSpec, _resample_matrix, add_gaussian_noise,
                          degrade, derive_seed, downsample_bicubic, epoch_order,
                          parse_task, save_ppm, synth_image)


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed(0, "corpus", 1)
    assert a == derive_seed(0, "corpus", 1)
    assert a != derive_seed(0, "corpus", 2)
    assert a != derive_seed(1, "corpus", 1)
    assert 0 <= a < 2 ** 63


def test_epoch_order_is_a_permutation_and_varies_by_epoch():
    o0 = epoch_order(5, 0, 16)
    o1 = epoch_order(5, 1, 16)
    assert sorted(o0) == list(range(16))
    assert not np.array_equal(o0, o1)
    assert np.array_equal(o0, epoch_order(5, 0, 16))


def test_synth_image_properties():
    img = synth_image(3, 48)
    assert img.shape == (3, 48, 48)
    assert img.dtype == np.float32
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert np.array_equal(img, synth_image(3, 48))
    assert not np.array_equal(img, synth_image(4, 48))


# -- task parsing -----------------------------------------------------------------


def test_parse_task_round_trips():
    for token in ("sr2", "sr4", "noise25", "noise0",
                  "second_order_s2_sig25", "darken_f0.2_g1.2"):
        spec = parse_task(token)
        assert spec.task_id() == token
    assert parse_task("sr2").scale == 2
    assert parse_task("noise25").scale == 1
    assert parse_task("second_order_s3_sig10").scale == 3
    d = parse_task("darken_f0.5_g1")
    assert (d.factor, d.gamma) == (0.5, 1.0)


def test_parse_task_rejects_garbage():
    for bad in ("sr", "sr0", "noise", "blur3", "second_order", "darken_f_g"):
        with pytest.raises(ValueError):
            parse_task(bad)


@pytest.mark.parametrize("spelling,canonical", [
    ("noise.5", "noise0.5"), ("sr02", "sr2"), ("darken_f0.5_g1.0", "darken_f0.5_g1"),
    ("second_order_s2_sig25.0", "second_order_s2_sig25"), ("noise0.00001", "noise1e-05"),
    # a spec is spelled by what it does, not by the pattern it was written in
    ("sr1", "noise0"), ("darken_f1_g1", "noise0"), ("second_order_s1_sig0", "noise0"),
    ("second_order_s1_sig25", "noise25"), ("second_order_s2_sig0", "sr2"),
])
def test_parse_task_refuses_a_second_spelling(spelling, canonical):
    # evaluation seeds its images by the task string, so two spellings of one
    # degradation used to be evaluated on different images
    with pytest.raises(ValueError, match=re.escape(
            f"task {spelling!r} is not canonical; write {canonical!r}")):
        parse_task(spelling)
    assert parse_task(canonical).task_id() == canonical


@pytest.mark.parametrize("bad,message", [
    ("noise.", "unrecognized task spec 'noise.'"),  # used to end in a bare float error
    ("sr0", "task 'sr0': scale must be >= 1, got 0"),
])
def test_parse_task_errors_name_the_task(bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_task(bad)


# -- bicubic downsampling -----------------------------------------------------------


def cubic_kernel(x, a=-0.5):
    x = abs(float(x))
    if x < 1:
        return (a + 2) * x ** 3 - (a + 3) * x ** 2 + 1
    if x < 2:
        return a * x ** 3 - 5 * a * x ** 2 + 8 * a * x - 4 * a
    return 0.0


def downsample_1d_oracle(row, s):
    """Direct antialiased bicubic resampling of one row: kernel stretched
    by the scale factor, taps clipped to the border, weights normalized."""
    n = len(row)
    out = np.zeros(n // s)
    for o in range(n // s):
        center = (o + 0.5) * s - 0.5
        lo = int(np.floor(center)) - 2 * s + 1
        acc = wsum = 0.0
        for t in range(lo, lo + 4 * s):
            w = cubic_kernel((t - center) / s)
            src = min(max(t, 0), n - 1)
            acc += w * row[src]
            wsum += w
        out[o] = acc / wsum
    return out


@pytest.mark.parametrize("s", [2, 3, 4])
def test_downsample_matches_separable_oracle(s):
    rng = np.random.default_rng(s)
    img = rng.random((3, 4 * s, 4 * s)).astype(np.float32)
    got = downsample_bicubic(img, s)
    assert got.shape == (3, 4, 4)
    # separable oracle: resample columns, then rows
    tmp = np.stack([[downsample_1d_oracle(img[c, :, j], s) for j in range(4 * s)]
                    for c in range(3)])           # (3, W, H/s) columns first
    tmp = tmp.transpose(0, 2, 1)                  # (3, H/s, W)
    expect = np.stack([[downsample_1d_oracle(tmp[c, i, :], s) for i in range(4)]
                       for c in range(3)])
    expect = np.clip(expect, 0.0, 1.0)
    assert np.abs(got - expect).max() < 1e-5


def einsum_downsample(img, s):
    """The one-call three-operand einsum formula the two matmuls replaced."""
    mh, mw = _resample_matrix(img.shape[1], s), _resample_matrix(img.shape[2], s)
    out = np.einsum("oh,chw,pw->cop", mh, img.astype(np.float64), mw)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


@pytest.mark.parametrize("s", [2, 4])
def test_downsample_is_bit_identical_to_einsum(s):
    for seed in range(100):
        img = synth_image(seed, 16 * s)
        assert np.array_equal(downsample_bicubic(img, s), einsum_downsample(img, s)), seed


def test_downsample_within_one_ulp_of_einsum_at_scale_3():
    for seed in range(100):
        img = synth_image(seed, 48)
        assert np.abs(downsample_bicubic(img, 3) - einsum_downsample(img, 3)).max() <= 6e-8


def test_resample_matrix_is_cached_and_read_only():
    m = _resample_matrix(64, 2)
    assert _resample_matrix(64, 2) is m
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_downsample_preserves_constant_images():
    img = np.full((3, 12, 12), 0.37, dtype=np.float32)
    out = downsample_bicubic(img, 2)
    assert np.abs(out - 0.37).max() < 1e-6


def test_downsample_scale_one_is_identity():
    img = np.random.default_rng(0).random((3, 8, 8)).astype(np.float32)
    out = downsample_bicubic(img, 1)
    assert np.array_equal(out, img)
    assert out is not img  # a copy, not an alias


# -- noise ---------------------------------------------------------------------------


def test_gaussian_noise_moments():
    img = np.full((3, 128, 128), 0.5, dtype=np.float32)
    noisy = add_gaussian_noise(img, sigma=25.0, seed=7)
    resid = noisy - img
    assert abs(resid.mean()) < 1e-3
    assert abs(resid.std() - 25.0 / 255.0) < 1e-3
    assert noisy.min() >= 0.0 and noisy.max() <= 1.0
    assert np.array_equal(noisy, add_gaussian_noise(img, 25.0, 7))
    assert not np.array_equal(noisy, add_gaussian_noise(img, 25.0, 8))


def test_gaussian_noise_sigma_zero_identity():
    img = np.random.default_rng(1).random((3, 8, 8)).astype(np.float32)
    assert np.array_equal(add_gaussian_noise(img, 0.0, 3), img)
    # a new float32 array, never the input itself or a view of it
    img64 = img.astype(np.float64)
    lq = degrade(img64, parse_task("noise0"), 0)
    assert lq.dtype == np.float32 and not np.shares_memory(lq, img64)
    assert np.array_equal(lq, img64)


# -- degradation chains ------------------------------------------------------


def test_degrade_shapes_and_hq_passthrough():
    img = synth_image(0, 32)
    before = img.copy()
    lq = degrade(img, parse_task("sr2"), 0)
    assert lq.shape == (3, 16, 16)
    assert np.array_equal(img, before)
    lq = degrade(img, DegradationSpec(sigma=25.0), 4)
    assert lq.shape == img.shape


def test_second_order_is_downsample_then_noise():
    img = synth_image(1, 32)
    spec = DegradationSpec(scale=2, sigma=25.0)
    lq = degrade(img, spec, 9)
    expect = add_gaussian_noise(downsample_bicubic(img, 2), 25.0, 9)
    assert np.array_equal(lq, expect)


def test_darken_closed_form():
    img = synth_image(2, 16)
    spec = DegradationSpec(factor=0.2, gamma=1.2)
    lq = degrade(img, spec, 0)
    assert np.allclose(lq, np.clip((img * 0.2) ** 1.2, 0, 1), atol=1e-6)


# each id's chain written out from the three operators
CHAINS = {
    "sr2": lambda img, seed: downsample_bicubic(img, 2),
    "noise25": lambda img, seed: add_gaussian_noise(img, 25.0, seed),
    "noise0": lambda img, seed: img.copy(),
    "second_order_s2_sig25":
        lambda img, seed: add_gaussian_noise(downsample_bicubic(img, 2), 25.0, seed),
    "darken_f0.5_g1.2":
        lambda img, seed: np.clip((img * 0.5) ** 1.2, 0.0, 1.0).astype(np.float32),
}


@pytest.mark.parametrize("task", CHAINS)
def test_degrade_is_the_explicit_chain(task):
    img = synth_image(3, 32)
    lq = degrade(img, parse_task(task), 9)
    expect = CHAINS[task](img, 9)
    assert lq.dtype == expect.dtype == np.float32 and not np.shares_memory(lq, img)
    assert lq.tobytes() == expect.tobytes()


def test_a_default_spec_degrades_nothing():
    assert DegradationSpec() == parse_task("noise0")


# -- PPM I/O --------------------------------------------------------------------


@pytest.mark.parametrize("call,message", [
    (lambda: DegradationSpec(sigma=-1.0), "sigma must be >= 0, got -1.0"),
    # darkening is the one mix task_id() cannot spell
    (lambda: DegradationSpec(scale=2, gamma=1.2),
     "a spec that darkens neither resamples nor adds noise; got scale 2, sigma 0"),
    (lambda: DegradationSpec(sigma=25.0, factor=0.5),
     "a spec that darkens neither resamples nor adds noise; got scale 1, sigma 25"),
    # used to answer "not canonical; write 'noiseinf'", an id refused in turn
    (lambda: parse_task("noise1e+999"), "task 'noise1e+999': sigma must be finite, got inf"),
    (lambda: parse_task("darken_f1e+999_g1"),
     "task 'darken_f1e+999_g1': factor must be finite, got inf"),
    (lambda: DegradationSpec(gamma=float("nan")), "gamma must be finite, got nan"),
    (lambda: synth_image(0, 7), "size must be >= 8, got 7"),
    (lambda: downsample_bicubic(np.zeros((3, 9, 8)), 2), "dims 9x8 not divisible by scale 2"),
    (lambda: add_gaussian_noise(np.zeros((3, 8, 8)), -1.0, 0), "sigma must be >= 0"),
], ids=["spec-sigma", "spec-darken-scale", "spec-darken-sigma", "spec-inf-sigma",
        "spec-inf-factor", "spec-nan-gamma", "synth-size",
        "bicubic-divisibility", "noise-sigma"])
def test_data_refusals_are_one_line(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_ppm_round_trip(tmp_path):
    img = synth_image(5, 16)
    path = tmp_path / "x.ppm"
    save_ppm(img, path)
    raw = path.read_bytes()
    header = b"P6\n16 16\n255\n"
    assert raw.startswith(header)
    pixels = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(16, 16, 3)
    back = pixels.transpose(2, 0, 1).astype(np.float32) / 255.0
    # quantization to 8 bits is the only loss
    assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-7
    save_ppm(back, tmp_path / "y.ppm")
    assert (tmp_path / "y.ppm").read_bytes() == raw


def test_ppm_bytes_hand_fixture(tmp_path):
    img = np.zeros((3, 1, 2), dtype=np.float32)
    img[:, 0, 0] = [1.0, 0.0, 0.0]           # red
    img[:, 0, 1] = [0.0, 0.5, 1.0]           # teal-ish
    path = tmp_path / "f.ppm"
    save_ppm(img, path)
    expect = b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 128, 255])
    assert path.read_bytes() == expect


def test_ppm_writes_only_rgb(tmp_path):
    path = tmp_path / "g.ppm"
    with pytest.raises(ValueError, match="expected 3 x H x W"):
        save_ppm(np.zeros((1, 4, 4), dtype=np.float32), path)
    assert not path.exists()
