"""Training and evaluation: host pretraining, parameter-efficient
fine-tuning, the AdamW/milestone schedule, the ablation harness and the
finite-difference gradient audit.

All randomness flows from a single root seed through named substreams
(corpus, shuffle, crop, degrade, eval, init), so a (seed, config) pair
fully determines every checkpoint byte and every report row.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .tensor import ContractError, Tensor, finite_diff_grad, no_grad
from .adapter import AdaptIR, AdaptIRConfig, ConfigError, config_from
from .host import (METHODS, HostConfig, HostModel, AdapterStack, PETLMethod,
                   host_forward, freeze, host_checksum)
from .data import (DegradationSpec, parse_task, synth_image, degrade, derive_seed,
                   epoch_order, save_ppm)
from .metrics import MetricReport, psnr, ssim
from .serialize import load_checkpoint, save_checkpoint

__all__ = [
    "save_host",
    "load_host",
    "save_adapter",
    "load_adapter",
    "check_host",
    "l1_loss",
    "lr_at",
    "TrainConfig",
    "TrainState",
    "adamw_step",
    "pretrain",
    "finetune",
    "FinetuneResult",
    "evaluate",
    "build_adapter",
    "ablate",
    "gradcheck",
    "MILESTONE_FRACTIONS",
]

# half-life epochs {250, 400, 450, 475} of a 500-epoch run, kept as
# fractions so shorter desk-scale runs inherit the same schedule shape
MILESTONE_FRACTIONS = (0.5, 0.8, 0.9, 0.95)

LQ_SIZE = 32  # training crop / evaluation input edge on the degraded side

# the gradient audit's finite-difference step, relative-error bound and NCHW input
GRADCHECK_EPS = 1e-5
GRADCHECK_THRESHOLD = 1e-4
GRADCHECK_SHAPE = (2, 8, 8, 8)


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute difference over all elements."""
    if pred.shape != target.shape:
        raise T.ShapeError(f"l1_loss: shape mismatch {pred.shape} vs {target.shape}")
    return T.tmean(T.tabs(pred - target))


def lr_at(epoch: int, base_lr: float, total_epochs: int) -> float:
    """Step schedule: halve at each milestone fraction of the run."""
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    passed = sum(1 for frac in MILESTONE_FRACTIONS if epoch >= frac * total_epochs)
    return base_lr * (0.5 ** passed)


@dataclass(frozen=True)
class TrainConfig:
    """One run's recipe, defaulting to the CLI's (``images`` is per task
    when pretraining)."""
    seed: int = 0
    epochs: int = 25
    base_lr: float = 2e-3
    batch_size: int = 8
    weight_decay: float = 0.0
    images: int = 16
    eval_n: int = 8

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for key in ("epochs", "images", "eval_n", "batch_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.batch_size > self.images:
            raise ConfigError(f"batch_size {self.batch_size} exceeds images {self.images}:"
                              " an epoch would have no full batch")
        for key in ("base_lr", "weight_decay"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be > 0, got {self.base_lr}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class TrainState:
    step: int = 0
    epoch: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(state: TrainState, params: dict[str, Tensor], lr: float,
               weight_decay: float = 0.0) -> None:
    """One decoupled-weight-decay Adam step on each param's ``grad``, updating
    params in place and clearing the grads it used; a param with no grad is
    skipped.  A non-finite update raises ``ContractError`` naming parameter,
    step and epoch, and leaves params, grads and ``state`` as they were: every
    update is computed and checked before any is written."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Adam's defaults
    t = state.step + 1
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    updates = []
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m = state.m.get(name, 0.0)
        v = state.v.get(name, 0.0)
        m = m + (1.0 - beta1) * (g - m)
        v = v + (1.0 - beta2) * (g * g - v)
        step = lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        update = step + lr * weight_decay * p.data if weight_decay else step
        new = p.data - update
        if not np.isfinite(new).all():
            raise ContractError(f"training diverged: {name} non-finite after step {t}"
                                f" (epoch {state.epoch}); {_diverged_term(step, update)}")
        updates.append((name, p, new, m, v))
    for name, p, new, m, v in updates:
        p.data = new
        p.grad = None
        state.m[name] = m
        state.v[name] = v
    state.step = t


def _diverged_term(step: np.ndarray, update: np.ndarray) -> str:
    """Which term of a non-finite AdamW update failed, and the key to lower."""
    if not np.isfinite(step).all():
        return "the Adam step went non-finite; lower base_lr"
    if not np.isfinite(update).all():
        return "the weight decay term went non-finite; lower weight_decay"
    return "the updated weight overflowed; lower base_lr"


# -- deterministic batching ---------------------------------------------------


def _train_run(task: str, data_seed: int, n: int):
    """One task's training run for ``_fit``: (task, spec, corpus, data seed)."""
    spec = parse_task(task)
    size = (LQ_SIZE + 16) * spec.scale
    # one array: a corpus that cannot fit fails at once, not image by image
    corpus = np.empty((n, 3, size, size), dtype=np.float32)
    for i in range(n):
        corpus[i] = synth_image(derive_seed(data_seed, "corpus", spec.task_id(), i), size)
    return task, spec, corpus, data_seed


def _epoch_batches(corpus, spec: DegradationSpec, seed: int, epoch: int,
                   batch_size: int):
    """Deterministic shuffled 32x32-crop batches of (lq, hq) pairs."""
    n = len(corpus)
    order = epoch_order(seed, epoch, n)
    crop_rng = np.random.default_rng(derive_seed(seed, "crop", epoch))
    s = spec.scale
    hq_crop = LQ_SIZE * s
    for start in range(0, n - n % batch_size, batch_size):
        lqs, hqs = [], []
        for idx in order[start:start + batch_size]:
            img = corpus[idx]
            max_off = img.shape[1] - hq_crop
            oy, ox = (crop_rng.integers(0, max_off // s + 1, 2) * s)
            hq = img[:, oy:oy + hq_crop, ox:ox + hq_crop]
            lqs.append(degrade(hq, spec, derive_seed(seed, "degrade", epoch, int(idx))))
            hqs.append(hq)
        yield (Tensor(np.stack(lqs)), Tensor(np.stack(hqs)))


# -- training ------------------------------------------------------------------


def _fit(model: HostModel, adapter: PETLMethod | None, runs, train: TrainConfig):
    """The one training recipe, shared by pretraining and fine-tuning: L1
    loss, AdamW on the adapter's parameters (every host parameter when
    ``adapter`` is None) and the milestone schedule.  Each epoch makes one
    pass over each ``(task, spec, corpus, data_seed)`` run in turn.
    Returns (steps taken, per-epoch per-task mean-loss log)."""
    params = model.parameters() if adapter is None else adapter.parameters()
    state = TrainState()
    log: list[tuple[int, str, float]] = []
    for epoch in range(train.epochs):
        state.epoch = epoch
        lr = lr_at(epoch, train.base_lr, train.epochs)
        for task, spec, corpus, data_seed in runs:
            losses = []
            for lq, hq in _epoch_batches(corpus, spec, data_seed, epoch, train.batch_size):
                # the prediction is not bound to a name, so it does not outlive the loss
                loss = l1_loss(host_forward(lq, task, model, adapter=adapter), hq)
                loss.backward()
                adamw_step(state, params, lr, weight_decay=train.weight_decay)
                losses.append(loss.item())
            log.append((epoch, task, float(np.mean(losses))))
    return state.step, log


def pretrain(model: HostModel, train: TrainConfig):
    """Train every parameter of ``model``, which must have none frozen, on a
    round-robin multi-task mixture, then freeze it.  Returns (frozen model,
    per-epoch loss log)."""
    if not all(p.requires_grad for p in model.params.values()):
        raise ConfigError("pretrain requires a host with no frozen parameter")
    runs = [_train_run(t, derive_seed(train.seed, "task", t), train.images)
            for t in model.config.tasks]
    _, log = _fit(model, None, runs, train)
    return freeze(model), log


# -- evaluation -----------------------------------------------------------------


def _refuse_keep_without_out(keep: int, out) -> None:
    """Refuse samples to keep with no directory to write them into."""
    if keep > 0 and out is None:
        raise ConfigError(f"keep={keep} samples need an out directory")


def evaluate(model: HostModel, adapter: PETLMethod | None, task: str, n: int,
             seed: int, keep: int = 0, out=None) -> MetricReport:
    """Mean PSNR/SSIM over the first ``n`` of a held-out synthetic set (seeds
    disjoint from training by substream tag) as a zero-step report.  Each of
    the first ``keep`` images, which may pass ``n``, is written into the
    directory ``out`` as ``sample{i}_{lq,hq,pred}.ppm`` as soon as it is
    predicted, so memory holds one sample whatever ``keep`` is; ``keep``
    without ``out`` is refused before any image is predicted."""
    _refuse_keep_without_out(keep, out)
    spec = parse_task(task)
    mode = "rgb" if spec.scale == 1 and not spec.darkens() else "y_channel"  # noise only
    psnrs, ssims = [], []
    for i in range(max(n, keep)):
        hq = synth_image(derive_seed(seed, "eval", task, i), LQ_SIZE * spec.scale)
        lq = degrade(hq, spec, derive_seed(seed, "eval-noise", i))
        with no_grad():
            pred = host_forward(Tensor(lq[None]), task, model, adapter=adapter)
        pred_img = np.clip(pred.data[0], 0.0, 1.0)
        if i < keep:
            for kind, img in (("lq", lq), ("hq", hq), ("pred", pred_img)):
                save_ppm(img, Path(out) / f"sample{i}_{kind}.ppm")
        if i < n:
            psnrs.append(psnr(pred_img, hq, mode=mode))
            ssims.append(ssim(pred_img, hq))
    trainable = 0 if adapter is None else adapter.param_count()
    return MetricReport(task=task, psnr=float(np.mean(psnrs)), ssim=float(np.mean(ssims)),
                        trainable_params=trainable,
                        total_params=model.param_count() + trainable, steps=0)


# -- adapter construction with budget equalization ----------------------------


def method_class(method: str) -> type[PETLMethod]:
    """The stack class registered for ``method``; an unknown one is refused."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r} ({' | '.join(METHODS)})")
    return METHODS[method]


def build_adapter(host_config: HostConfig, method: str,
                  adapter_config: AdaptIRConfig) -> PETLMethod:
    """The requested method's adapter stack, seeded from ``adapter_config.seed``.

    The baselines are sized by their ``with_budget`` to match the configured
    AdaptIR stack's trainable count within a few percent, mirroring
    equal-budget comparisons.
    """
    cls = method_class(method)
    stack = AdapterStack(host_config, adapter_config)
    if cls is AdapterStack:
        return stack
    return cls.with_budget(host_config, stack.param_count(), seed=adapter_config.seed)


def _default_adapter_config(model: HostModel, train: TrainConfig) -> AdaptIRConfig:
    """The default design as wide as the host, seeded from the run's ``init`` substream."""
    return AdaptIRConfig(channels=model.config.embed, seed=derive_seed(train.seed, "init"))


# -- fine-tuning -----------------------------------------------------------------


@dataclass
class FinetuneResult:
    adapter: PETLMethod
    report: MetricReport
    psnr_before: float
    checksum: str  # the host's, equal before and after training (``_adapt`` checks)


def _refuse_unfit(model: HostModel, command: str) -> None:
    """Refuse a host with a trainable parameter, naming the ``command`` refused."""
    if any(p.requires_grad for p in model.params.values()):
        raise ConfigError(f"{command} requires a frozen host")


def _adapt(model: HostModel, adapter: PETLMethod, task: str, train: TrainConfig,
           keep: int = 0, out=None) -> tuple[MetricReport, str]:
    """Train ``adapter`` on the frozen host, then evaluate it.  This is where
    the freeze contract is enforced: a host whose checksum moved during
    training raises ``ContractError`` before the adapter is evaluated or a
    sample written.  Returns the report with its step count, and the host checksum."""
    checksum = host_checksum(model)
    steps, _ = _fit(model, adapter,
                    [_train_run(task, derive_seed(train.seed, "ft"), train.images)], train)
    if host_checksum(model) != checksum:
        raise ContractError("freeze contract violated: host parameters changed")
    report = evaluate(model, adapter, task, train.eval_n, train.seed, keep, out)
    return replace(report, steps=steps), checksum


def finetune(model: HostModel, method: str, task: str, train: TrainConfig,
             adapter_config: AdaptIRConfig | None = None, keep: int = 0,
             out=None) -> FinetuneResult:
    """Train only the adapter on a frozen host and report held-out metrics
    before and after; ``keep`` samples after go into ``out``.  A host with a
    trainable parameter, or ``keep`` without ``out``, is refused before any
    training, and ``_adapt`` enforces the freeze contract."""
    _refuse_unfit(model, "finetune")
    _refuse_keep_without_out(keep, out)
    adapter = build_adapter(model.config, method,
                            adapter_config or _default_adapter_config(model, train))
    before = evaluate(model, None, task, train.eval_n, train.seed)
    report, checksum = _adapt(model, adapter, task, train, keep, out)
    return FinetuneResult(adapter=adapter, report=report, psnr_before=before.psnr,
                          checksum=checksum)


# -- ablation harness ------------------------------------------------------------


# axis -> its rows in order: (label, the AdaptIRConfig fields the row changes)
ABLATIONS = {
    "efficiency": (
        ("(0) baseline", {}),
        ("(1) w/o decomposition in LIM", {"lim_form": "depthwise"}),
        ("(2) w/o depth-separable in LIM", {"lim_form": "full"}),
        ("(3) w/o depth-separable in FAM", {"lim_form": "full", "fam_depthwise": False}),
        ("(4) w/o CSM & w/o depth-separable",
         {"lim_form": "full", "fam_depthwise": False, "csm": False}),
    ),
    "components": (
        ("csm", {"lim": False, "fam": False, "csm": True}),
        ("fam+csm", {"lim": False, "fam": True, "csm": True}),
        ("lim+fam", {"lim": True, "fam": True, "csm": False}),
        ("lim+fam+csm", {"lim": True, "fam": True, "csm": True}),
    ),
    "insertion": (
        ("mlp/parallel", {"position": "mlp", "form": "parallel"}),
        ("mlp/sequential", {"position": "mlp", "form": "sequential"}),
        ("attention/parallel", {"position": "attention", "form": "parallel"}),
        ("attention/sequential", {"position": "attention", "form": "sequential"}),
    ),
}


def ablation_rows(axes: str):
    """The rows of ablation axis ``axes``; an unknown axis is refused."""
    if axes not in ABLATIONS:
        raise ConfigError(f"unknown ablation axis {axes!r} (one of {tuple(ABLATIONS)})")
    return ABLATIONS[axes]


def ablate(model: HostModel, task: str, axes: str, train: TrainConfig,
           adapter_config: AdaptIRConfig | None = None):
    """One short fine-tune per row of ``ABLATIONS[axes]``, each seeded from
    ``adapter_config.seed``; each row changes only its own fields of it and
    passes ``_adapt``'s freeze-contract check.  The bare host, which every
    row shares, is not evaluated.  Emits (label, MetricReport) rows."""
    variants = ablation_rows(axes)
    _refuse_unfit(model, "ablate")
    base = adapter_config or _default_adapter_config(model, train)
    rows = []
    for label, fields in variants:
        adapter = build_adapter(model.config, "adaptir", replace(base, **fields))
        rows.append((label, _adapt(model, adapter, task, train)[0]))
    return rows


# -- checkpoint glue --------------------------------------------------------------


def save_host(path, model: HostModel) -> None:
    save_checkpoint(path, "host", asdict(model.config), model.params)


def _load_module(path, kind: str, build):
    """Read a ``kind`` checkpoint, ``build`` its module from the header config
    and copy the stored arrays into the module's same-named, same-shaped
    parameters.  A refusal is one line that names ``path`` once."""
    found, cfg, arrays = load_checkpoint(path)
    try:
        if found != kind:
            article = "an" if kind[0] in "aeiou" else "a"
            raise ConfigError(f"expected {article} {kind} checkpoint, got kind {found!r}")
        module = build(cfg)
        params = module.parameters()
        if {k: a.shape for k, a in arrays.items()} != {k: t.shape for k, t in params.items()}:
            raise ConfigError(f"checkpoint fields do not match the {kind} configuration")
    except ValueError as exc:  # a ConfigError, or a header task that parse_task refuses
        raise type(exc)(f"{path}: {exc}") from None
    for name, arr in arrays.items():
        params[name].data = arr
    return module


def load_host(path) -> HostModel:
    """Read a host checkpoint and freeze it."""
    return freeze(_load_module(path, "host",
                               lambda cfg: HostModel(config_from(HostConfig, cfg, "header"))))


def check_host(saved: dict, host_config: HostConfig, what: str) -> None:
    """Refuse ``saved`` host fields that differ from ``host_config``, the
    loaded host's, in one ``ConfigError`` line: ``what (saved vs loaded: ...)``."""
    diff = [f"{k} {v!r} vs {getattr(host_config, k)!r}" for k, v in saved.items()
            if v != getattr(host_config, k)]
    if diff:
        raise ConfigError(f"{what} (saved vs loaded: {', '.join(diff)})")


def save_adapter(path, adapter: PETLMethod, host_config: HostConfig) -> None:
    method_class(adapter.method)  # only a registered method loads back
    cfg = {"method": adapter.method, "host": asdict(host_config), **adapter.to_config()}
    save_checkpoint(path, "adapter", cfg, adapter.parameters())


def load_adapter(path, host_config: HostConfig) -> PETLMethod:
    """Rebuild an adapter stack from its checkpoint for a host of
    ``host_config``, the one the adapter was saved with.  The header must hold
    exactly the method config the rebuilt stack writes, so no saved setting
    (or one written by an older layout) is silently dropped."""
    def build(cfg):
        cls = method_class(cfg.get("method"))
        check_host(asdict(config_from(HostConfig, cfg.get("host"), "header")), host_config,
                   "adapter saved for a different host")
        adapter = cls.from_config(host_config, cfg)
        saved = {k: v for k, v in cfg.items() if k not in ("method", "host")}
        if saved != adapter.to_config():
            raise ConfigError(f"{cls.method} checkpoint header does not match the"
                              " configuration it rebuilds (saved by an older layout?)")
        return adapter
    return _load_module(path, "adapter", build)


# -- gradient audit ---------------------------------------------------------------


def gradcheck(seed: int = 0):
    """Autodiff vs central finite differences on a fixed float32 adapter.

    Each parameter is widened to f64 as it is jittered away from the
    zero-output initialization, so every branch carries gradient.
    Returns (name, rel_err, ok) rows.
    """
    cfg = AdaptIRConfig(channels=GRADCHECK_SHAPE[1], reduction=2, lim_rank=2, seed=seed)
    adapter = AdaptIR(cfg)
    rng = np.random.default_rng(derive_seed(seed, "gradcheck"))
    for p in adapter.params.values():
        p.data = p.data.astype(np.float64) + 0.3 * rng.standard_normal(p.shape)
    x = Tensor(rng.standard_normal(GRADCHECK_SHAPE))
    target = Tensor(rng.standard_normal(GRADCHECK_SHAPE))

    def loss_value() -> Tensor:
        return l1_loss(adapter(x), target)

    loss = loss_value()
    loss.backward()
    rows = []
    for name, p in adapter.params.items():
        fd = finite_diff_grad(lambda _t: loss_value(), p, GRADCHECK_EPS)
        ad = p.grad if p.grad is not None else np.zeros_like(p.data)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(ad)), 1e-6)
        rel = float((np.abs(ad - fd) / denom).max())
        rows.append((name, rel, rel <= GRADCHECK_THRESHOLD))
    return rows
