"""The three-branch adapter: channel-reducing down-projection, a local
low-rank depthwise convolution branch, a global frequency-affine branch,
a channel-shift branch, and a zero-initialized up-projection.

Initialization rules that make a fresh adapter an exact no-op: the
frequency affine maps start as the identity (unit weight, zero bias) and
the up-projection starts at exactly zero, so the adapter's output is the
zero tensor until training moves it.

``AdaptIRConfig`` holds every design choice the paper's ablations vary:
the efficiency study's knobs (the local branch's form ``lim_form``: a
depthwise kernel factorized as U V^T, the depthwise kernel stored whole, or
a full channel-mixing kernel; the frequency branch trading its
depth-separable form for full channel mixing), the branch set
(``lim``/``fam``/``csm``) and the insertion site in a host layer
(``position`` mlp | attention, ``form`` parallel | sequential, read by
``host.AdapterStack``).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .fft import ComplexSpectrum, rfft2, irfft2

__all__ = ["AdaptIRConfig", "AdaptIR", "ConfigError", "config_from", "check_type"]


class ConfigError(ValueError):
    pass


def check_type(value, tp, what: str):
    """``value`` if it is a ``tp`` (int, float or int, bool, str, or
    ``tuple[X, ...]`` from a list); else one ``ConfigError`` naming ``what``."""
    if typing.get_origin(tp) is tuple:
        if isinstance(value, (list, tuple)):
            item = typing.get_args(tp)[0]
            return tuple(check_type(v, item, f"{what}[{i}]") for i, v in enumerate(value))
    elif type(value) is tp or (tp is float and type(value) is int):
        return value
    name = tp.__name__ if isinstance(tp, type) else str(tp)
    raise ConfigError(f"{what} expects {name}, got {value!r}")


def config_from(cls, values, where: str):
    """The config dataclass ``cls`` built, and so checked, from ``values`` (a
    CLI section or a checkpoint header); an unknown key, a wrongly typed value
    or a failed check is one ``ConfigError`` naming ``where``, the class and key."""
    name = cls.__name__
    if not isinstance(values, dict):
        raise ConfigError(f"{where}: {name} expects an object, got {values!r}")
    hints = typing.get_type_hints(cls)
    for key in values:
        if key not in hints:
            raise ConfigError(f"{where}: {name} has no key {key!r}")
    typed = {key: check_type(value, hints[key], f"{where}: {name}.{key}")
             for key, value in values.items()}
    try:
        return cls(**typed)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {name}: {exc}") from None


@dataclass(frozen=True)
class AdaptIRConfig:
    channels: int = 64
    reduction: int = 8
    lim_rank: int = 4
    kernel: int = 3
    seed: int = 0
    # ablation toggles (defaults reproduce the standard design)
    lim_form: str = "lowrank"    # "lowrank" | "depthwise" | "full"
    fam_depthwise: bool = True
    # branch set and insertion site
    lim: bool = True
    fam: bool = True
    csm: bool = True
    position: str = "mlp"        # "mlp" | "attention"
    form: str = "parallel"       # "parallel" | "sequential"

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        c, g = self.channels, self.reduction
        if g < 1 or c % g != 0:
            raise ConfigError(f"reduction {g} must divide channels {c}")
        cg = c // g
        if cg < 1:
            raise ConfigError(f"intrinsic width {cg} must be >= 1")
        if self.kernel % 2 == 0 or self.kernel < 1:
            raise ConfigError(f"kernel must be odd and positive, got {self.kernel}")
        if self.lim_form not in ("lowrank", "depthwise", "full"):
            raise ConfigError(f"unknown local-branch form {self.lim_form!r}")
        if self.lim_form == "lowrank" and not 1 <= self.lim_rank <= min(cg, self.kernel ** 2):
            raise ConfigError(
                f"lim_rank {self.lim_rank} outside [1, min(C/gamma={cg}, K^2={self.kernel ** 2})]"
            )
        if not (self.lim or self.fam or self.csm):
            raise ConfigError("at least one branch must be enabled")
        if self.position not in ("mlp", "attention"):
            raise ConfigError(f"unknown insertion position {self.position!r}")
        if self.form not in ("parallel", "sequential"):
            raise ConfigError(f"unknown insertion form {self.form!r}")

    @property
    def intrinsic(self) -> int:
        return self.channels // self.reduction


def _uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class AdaptIR:
    """One adapter instance operating on N x C x H x W feature maps."""

    def __init__(self, config: AdaptIRConfig):
        self.config = config
        self.params: dict[str, Tensor] = self._init_params()

    # -- construction ---------------------------------------------------

    def _init_params(self) -> dict[str, Tensor]:
        cfg = self.config
        c, cg, k, dt = cfg.channels, cfg.intrinsic, cfg.kernel, np.float32
        rng = np.random.default_rng(cfg.seed)
        p: dict[str, np.ndarray] = {}

        p["down_w"] = _uniform(rng, (cg, c, 1, 1), c, dt)
        p["down_b"] = np.zeros(cg, dtype=dt)
        if cfg.lim:
            if cfg.lim_form == "lowrank":
                p["lim_u"] = _uniform(rng, (cg, cfg.lim_rank), cfg.lim_rank, dt)
                p["lim_v"] = _uniform(rng, (k * k, cfg.lim_rank), cfg.lim_rank, dt)
            else:
                cin = cg if cfg.lim_form == "full" else 1
                p["lim_kernel"] = _uniform(rng, (cg, cin, k, k), cin * k * k, dt)
        if cfg.fam:
            # per-channel weights when depthwise, else cg x cg channel mixing
            identity, scale_fan_in = ((np.ones(cg, dtype=dt), 1) if cfg.fam_depthwise
                                      else (np.eye(cg, dtype=dt), cg))
            for part in ("mag", "pha"):
                p[f"fam_{part}_w"] = identity.copy()
                p[f"fam_{part}_b"] = np.zeros(cg, dtype=dt)
            p["fam_scale_w"] = _uniform(rng, identity.shape, scale_fan_in, dt)
            p["fam_scale_b"] = np.zeros(cg, dtype=dt)
        if cfg.csm:
            p["csm_mask_w"] = _uniform(rng, (1, cg, 1, 1), cg, dt)
            p["csm_mask_b"] = np.zeros(1, dtype=dt)
            p["csm_ffn_w1"] = _uniform(rng, (cg, cg), cg, dt)
            p["csm_ffn_b1"] = np.zeros(cg, dtype=dt)
            p["csm_ffn_w2"] = _uniform(rng, (cg, cg), cg, dt)
            p["csm_ffn_b2"] = np.zeros(cg, dtype=dt)
        p["up_w"] = np.zeros((c, cg, 1, 1), dtype=dt)
        p["up_b"] = np.zeros(c, dtype=dt)
        return {name: Tensor(arr, requires_grad=True) for name, arr in p.items()}

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def param_count(self) -> int:
        return sum(t.size for t in self.params.values())

    # -- branch forwards --------------------------------------------------

    def down_project(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.params["down_w"], self.params["down_b"])

    def compose_kernel(self) -> Tensor:
        """Local-branch kernel; factorized as U V^T in the low-rank form."""
        cfg = self.config
        if cfg.lim_form != "lowrank":
            return self.params["lim_kernel"]
        w2d = T.matmul(self.params["lim_u"],
                       T.transpose(self.params["lim_v"], (1, 0)))
        return T.reshape(w2d, (cfg.intrinsic, 1, cfg.kernel, cfg.kernel))

    def lim_forward(self, x_intrin: Tensor) -> Tensor:
        kernel = self.compose_kernel()
        groups = 1 if self.config.lim_form == "full" else self.config.intrinsic
        return T.conv2d(x_intrin, kernel, None, groups=groups)

    def _freq_affine(self, t: Tensor, w: Tensor, b: Tensor) -> Tensor:
        # t is N x Cg x H x Wh; depthwise form scales each channel,
        # the full form mixes channels per frequency bin.
        cg = self.config.intrinsic
        if self.config.fam_depthwise:
            return t * T.reshape(w, (1, cg, 1, 1)) + T.reshape(b, (1, cg, 1, 1))
        return T.conv2d(t, T.reshape(w, (cg, cg, 1, 1)), b)

    def fam_forward(self, x_intrin: Tensor) -> Tensor:
        p = self.params
        spec = rfft2(x_intrin)
        mag = T.hypot(spec.real, spec.imag)
        pha = T.atan2(spec.imag, spec.real)
        mag = self._freq_affine(mag, p["fam_mag_w"], p["fam_mag_b"])
        pha = self._freq_affine(pha, p["fam_pha_w"], p["fam_pha_b"])
        out = irfft2(ComplexSpectrum(mag * T.cos(pha), mag * T.sin(pha),
                                     spec.original_width))
        return self._freq_affine(out, p["fam_scale_w"], p["fam_scale_b"])

    def csm_forward(self, x_intrin: Tensor) -> Tensor:
        p = self.params
        mask = T.softmax_spatial(
            T.conv2d(x_intrin, p["csm_mask_w"], p["csm_mask_b"]))
        n, cg = x_intrin.shape[0], self.config.intrinsic
        pooled = T.tsum(mask * x_intrin, axis=(2, 3))  # N x Cg
        # one image of N tokens, not N images of one: each FFN matmul stays one gemm
        shift = T.mlp(T.reshape(pooled, (1, n, cg)), p["csm_ffn_w1"], p["csm_ffn_b1"],
                      p["csm_ffn_w2"], p["csm_ffn_b2"])
        return T.reshape(shift, (n, cg, 1, 1))

    def forward(self, x: Tensor) -> Tensor:
        """Adapter output (the caller adds it to the frozen sublayer output)."""
        cfg = self.config
        xi = self.down_project(x)
        ensem: Tensor | None = None
        for enabled, branch in ((cfg.lim, self.lim_forward),
                                (cfg.fam, self.fam_forward),
                                (cfg.csm, self.csm_forward)):
            if not enabled:
                continue
            out = branch(xi)
            ensem = out if ensem is None else ensem + out
        if ensem.shape[-2:] != xi.shape[-2:]:
            # only the channel vector survived; broadcast it over H x W
            ensem = ensem + Tensor(np.zeros((1, 1) + xi.shape[-2:], dtype=xi.dtype))
        return T.conv2d(ensem, self.params["up_w"], self.params["up_b"])

    __call__ = forward
