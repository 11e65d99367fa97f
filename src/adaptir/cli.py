"""Command-line entry point binding the library into reproducible runs.

Runs are described by a flat ``key=value`` config file plus a handful of
overriding flags.  Every command writes the fully resolved config next to
its outputs, so a run directory is self-describing and byte-reproducible
from its own ``resolved.cfg``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import pipeline as P
from .adapter import AdaptIRConfig, ConfigError, config_from
# synth_image, degrade and host_forward go unused: perfbench/tracer.py patches them here
from .data import derive_seed, parse_task, synth_image, degrade
from .host import METHODS, HostConfig, HostModel, host_forward, host_checksum
from .metrics import MetricReport
from .tensor import ContractError, ShapeError

# key prefix -> (config dataclass, the fields the CLI exposes as prefix + field)
_SECTIONS = {
    "": (P.TrainConfig, ("seed", "epochs", "base_lr", "batch_size", "weight_decay",
                         "images", "eval_n")),
    "host.": (HostConfig, ("embed", "layers", "heads", "mlp_ratio", "tasks")),
    "adapter.": (AdaptIRConfig, ("reduction", "lim_rank", "kernel")),
    "insertion.": (AdaptIRConfig, ("position", "form")),
}

# every recognized key with its default, whose type parses the key's value;
# a section key defaults to its dataclass field's default
_KEYS = {
    "out": "runs/default",
    "method": "adaptir",
    "task": "second_order_s2_sig25",
    "axes": "components",
    "host_checkpoint": "",
    "adapter_checkpoint": "",
    "dump_images": 2,
    **{prefix + name: getattr(cls, name)
       for prefix, (cls, names) in _SECTIONS.items() for name in names},
}

_ERRORS = (ConfigError, ContractError, ShapeError, ValueError, OSError, MemoryError)


def _parse_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        kind = type(_KEYS[key])
        try:  # a tuple is comma-separated
            values[key] = (tuple(t.strip() for t in value.split(",") if t.strip())
                           if kind is tuple else kind(value))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {key} expects {kind.__name__},"
                              f" got {value!r}") from None
    return values


def _section(cfg: dict, *prefixes: str, **fixed):
    """The dataclass of sections ``prefixes`` plus the unexposed ``fixed`` fields."""
    values = {name: cfg[p + name] for p in prefixes for name in _SECTIONS[p][1]}
    return config_from(_SECTIONS[prefixes[0]][0], {**values, **fixed}, "resolved config")


def _resolve(config_path, **overrides) -> tuple[dict, dict, P.TrainConfig]:
    """The run's keys (defaults, then the file, then the flags), the keys the
    file and the flags set, and the run's recipe.  ``pipeline``'s own checks
    refuse an unknown method or axis here, before any ``--out`` exists."""
    given = _parse_config_file(config_path) if config_path else {}
    given.update({k: v for k, v in overrides.items() if v is not None})
    cfg = {**_KEYS, **given}
    if cfg["dump_images"] < 0:
        raise ConfigError(f"dump_images must be >= 0, got {cfg['dump_images']}")
    P.method_class(cfg["method"])
    P.ablation_rows(cfg["axes"])
    return cfg, given, _section(cfg, "")


def _resolve_on_host(config_path, **overrides) -> tuple[dict, P.TrainConfig, HostModel]:
    """``_resolve`` for a command that runs a saved host, plus that host.
    Its shape is its checkpoint's: a ``host.*`` key set to another value is
    refused, and the run's keys record the loaded host's values."""
    cfg, given, train = _resolve(config_path, **overrides)
    parse_task(cfg["task"])  # a refused task is named before any host is read
    path = cfg["host_checkpoint"] or str(Path(cfg["out"]) / "host.ckpt")
    if not Path(path).is_file():
        raise FileNotFoundError(f"host checkpoint not found: {path}")
    model = P.load_host(path)
    names = _SECTIONS["host."][1]
    P.check_host({n: given["host." + n] for n in names if "host." + n in given},
                 model.config, f"{config_path}: host.* keys do not describe {path}")
    cfg.update({"host." + n: getattr(model.config, n) for n in names})
    model.resolve_task(cfg["task"])
    return cfg, train, model


def _out_dir(cfg: dict) -> Path:
    """Create the output directory and write the resolved config into it.
    Commands call it once every check that reads only their inputs has
    passed, so a run refused for its inputs leaves no directory behind."""
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"{k}={','.join(v) if isinstance(v, tuple) else v}"
             for k, v in sorted(cfg.items())]
    (out / "resolved.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def _host_config(cfg: dict) -> HostConfig:
    return _section(cfg, "host.", seed=cfg["seed"])


def _adapter_config(cfg: dict) -> AdaptIRConfig:
    """The adapter the run's keys describe, as wide as ``host.embed``: the
    configured host's, or the loaded host's after ``_resolve_on_host``."""
    return _section(cfg, "adapter.", "insertion.", channels=cfg["host.embed"],
                    seed=derive_seed(cfg["seed"], "init"))


def _write_reports(out: Path, name: str, rows: list[tuple[str, MetricReport]]) -> None:
    lines = ["label," + ",".join(MetricReport.CSV_FIELDS)]
    lines += [f"{label},{rep.csv_row()}" for label, rep in rows]
    (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


_shared = [
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="flat key=value config file"),
    click.option("--seed", type=int, default=None),
    click.option("--out", type=str, default=None, help="output directory"),
]


def _with_shared(extra=()):
    """Add the command's ``extra`` options and the shared ones."""
    def deco(fn):
        for opt in [*extra, *_shared]:
            fn = opt(fn)
        return fn
    return deco


class _Boundary(click.Group):
    """The error boundary of every command: a library error ends the command
    as one ``Kind: message`` line.  Floating-point warnings are silenced;
    ``adamw_step`` turns a diverged run into a ``ContractError``."""

    def invoke(self, ctx):
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return super().invoke(ctx)
        except _ERRORS as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc


@click.group(cls=_Boundary)
def main():
    """Parameter-efficient restoration adapter experiments."""


@main.command("pretrain")
@_with_shared([click.option("--epochs", type=int, default=None)])
def cmd_pretrain(config_path, seed, out, epochs):
    """Train the multi-task host from scratch and freeze it."""
    cfg, _, train = _resolve(config_path, seed=seed, out=out, epochs=epochs)
    model = HostModel(_host_config(cfg))
    out_dir = _out_dir(cfg)
    _, log = P.pretrain(model, train)
    P.save_host(out_dir / "host.ckpt", model)
    rows = ["epoch,task,loss"] + [f"{e},{t},{l:.6f}" for e, t, l in log]
    (out_dir / "pretrain_log.csv").write_text("\n".join(rows) + "\n",
                                              encoding="utf-8", newline="\n")
    click.echo(f"host: {model.param_count()} params, checksum {host_checksum(model)}")
    click.echo(f"wrote {out_dir}/host.ckpt")


@main.command("finetune")
@_with_shared([click.option("--method", type=str, default=None),
               click.option("--task", type=str, default=None),
               click.option("--epochs", type=int, default=None)])
def cmd_finetune(config_path, seed, out, method, task, epochs):
    """Train one adapter method on a frozen host checkpoint."""
    cfg, train, model = _resolve_on_host(config_path, seed=seed, out=out, method=method,
                                         task=task, epochs=epochs)
    adapter_config = _adapter_config(cfg)
    out_dir = _out_dir(cfg)
    res = P.finetune(model, cfg["method"], cfg["task"], train,
                     adapter_config=adapter_config, keep=cfg["dump_images"], out=out_dir)
    P.save_adapter(out_dir / "adapter.ckpt", res.adapter, model.config)
    _write_reports(out_dir, "report.csv", [(cfg["method"], res.report)])
    ratio = res.report.trainable_params / res.report.total_params
    click.echo(f"psnr before {res.psnr_before:.3f} dB -> after {res.report.psnr:.3f} dB")
    click.echo(f"trainable/total: {res.report.trainable_params}/"
               f"{res.report.total_params} ({100 * ratio:.2f}%)")
    click.echo(f"host checksum before {res.checksum}")
    click.echo(f"host checksum after  {res.checksum}")


@main.command("eval")
@_with_shared([click.option("--task", type=str, default=None)])
def cmd_eval(config_path, seed, out, task):
    """Evaluate a frozen host (plus optional adapter) on held-out images."""
    cfg, train, model = _resolve_on_host(config_path, seed=seed, out=out, task=task)
    adapter = None
    if cfg["adapter_checkpoint"]:
        adapter = P.load_adapter(cfg["adapter_checkpoint"], model.config)
    out_dir = _out_dir(cfg)
    report = P.evaluate(model, adapter, cfg["task"], train.eval_n, train.seed,
                        keep=cfg["dump_images"], out=out_dir)
    _write_reports(out_dir, "report.csv", [("eval", report)])
    click.echo(f"{cfg['task']}: psnr {report.psnr:.3f} dB, ssim {report.ssim:.4f}")


@main.command("gradcheck")
@click.option("--seed", type=int, default=0)
def cmd_gradcheck(seed):
    """Finite-difference audit of every adapter parameter (float32, widened to f64)."""
    rows = P.gradcheck(seed=seed)
    width = max(len(name) for name, _, _ in rows)
    failed = [(n, r) for n, r, ok in rows if not ok]
    for name, rel, ok in rows:
        click.echo(f"{name:<{width}}  rel_err {rel:.3e}  {'ok' if ok else 'FAIL'}")
    if failed:
        worst = max(failed, key=lambda nr: nr[1])
        raise click.ClickException(f"gradient check failed: {worst[0]} rel err"
                                   f" {worst[1]:.3e} > {P.GRADCHECK_THRESHOLD:.0e}")
    click.echo(f"all parameter groups pass (rel err <= {P.GRADCHECK_THRESHOLD:.0e})")


@main.command("paramcount")
@_with_shared()
def cmd_paramcount(config_path, seed, out):
    """Print host and per-method trainable parameter counts."""
    cfg, _, _ = _resolve(config_path, seed=seed, out=out)
    host_cfg = _host_config(cfg)
    total = HostModel(host_cfg).param_count()
    click.echo(f"host total: {total}")
    for method in METHODS:
        n = P.build_adapter(host_cfg, method, _adapter_config(cfg)).param_count()
        click.echo(f"{method:<10} trainable: {n:>6}  ratio {100 * n / total:.2f}%")


@main.command("ablate")
@_with_shared([click.option("--task", type=str, default=None),
               click.option("--epochs", type=int, default=None),
               click.option("--axes", type=str, default=None)])
def cmd_ablate(config_path, seed, out, task, epochs, axes):
    """Run one ablation axis (efficiency | components | insertion)."""
    cfg, train, model = _resolve_on_host(config_path, seed=seed, out=out, task=task,
                                         epochs=epochs, axes=axes)
    adapter_config = _adapter_config(cfg)
    out_dir = _out_dir(cfg)
    rows = P.ablate(model, cfg["task"], cfg["axes"], train, adapter_config=adapter_config)
    _write_reports(out_dir, f"ablation_{cfg['axes']}.csv", rows)
    width = max(len(label) for label, _ in rows)
    for label, rep in rows:
        click.echo(f"{label:<{width}}  psnr {rep.psnr:7.3f}  ssim {rep.ssim:.4f}"
                   f"  params {rep.trainable_params}")


if __name__ == "__main__":
    sys.exit(main())
