"""The benchmark's workloads: closed loops of ``adaptir`` CLI commands.

Each workload has three steps.  ``build_fixtures`` makes what its commands
read (a briefly pretrained host, adapter checkpoints) from the seed alone.
``prepare`` writes the flat config files the commands take.  ``iterate``
runs one iteration: one client issuing one command after another through
``adaptir.cli.main``, in this process.  An iteration returns its timings
and the outputs the harness checks.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from adaptir.cli import main as adaptir_main

TASK = "second_order_s2_sig25"   # the unseen degradation the adapters learn
HOST_TASKS = "sr2,noise25"       # what the host is pretrained on
BATCH = 8


# set-up fixtures: a host pretrained for one epoch of 8 images per task (two
# steps), and for eval-methods one-epoch fine-tunes of 8 images (one step);
# enough to exercise the code paths, not to restore images well
FIXTURE_EPOCHS = 1
FIXTURE_IMAGES = 8
DUMP_IMAGES = 1


@dataclass(frozen=True)
class Size:
    ft_epochs: int      # finetune-adaptir
    ft_images: int
    ft_eval_n: int
    pre_images: int     # pretrain-host, per task, one epoch
    eval_n: int         # each eval-methods command
    setups: int         # set-ups per run; setup_s is their median


FULL = Size(ft_epochs=2, ft_images=16, ft_eval_n=4, pre_images=16, eval_n=8, setups=3)
# one epoch and one step per command: the smoke test's size
TINY = Size(ft_epochs=1, ft_images=8, ft_eval_n=1, pre_images=8, eval_n=1, setups=1)


@dataclass
class Ctx:
    """Where one process reads fixtures and writes command outputs."""

    fixtures: Path
    scratch: Path
    seed: int
    size: Size
    tracer: object = None  # a tracer.Tracer while an iteration is traced

    def cli(self, *args) -> tuple[float, str]:
        """Run one adaptir command in this process: (wall seconds, stdout)."""
        argv = [str(a) for a in args]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            if self.tracer is None:
                adaptir_main(argv, standalone_mode=False)
            else:
                self.tracer.run_in_span("cli", adaptir_main, argv, standalone_mode=False)
        return time.perf_counter() - start, out.getvalue()

    @property
    def outputs(self) -> Path:
        return self.scratch / "out"

    def clear_outputs(self) -> None:
        shutil.rmtree(self.outputs, ignore_errors=True)


@dataclass
class Result:
    timed_s: float           # wall time of the commands images_per_s counts
    images: int              # images those commands trained on or evaluated
    units: int               # training steps or evaluated images
    session_s: float         # first command start to last command end
    psnr: float | None = None        # adapted / evaluated PSNR, dB
    final_loss: float | None = None  # last-epoch mean L1 of a pretrain
    host_checksum: str | None = None
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def write_cfg(path: Path, **values) -> Path:
    """Write a flat key=value config file."""
    lines = [f"{k}={v}" for k, v in values.items()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_report(path: Path) -> dict[str, str]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one report row, got {len(rows)}")
    return rows[0]


def finite(name: str, value: float, problems: list[str]) -> float:
    if not math.isfinite(value):
        problems.append(f"{name} is not finite: {value}")
    return value


_CHECKSUM = re.compile(r"host checksum (before|after)\s+([0-9a-f]{64})")
_HOST_LINE = re.compile(r"host: \d+ params, checksum ([0-9a-f]{64})")


def host_cfg(path: Path, images: int) -> Path:
    return write_cfg(path, images=images, batch_size=BATCH, **{"host.tasks": HOST_TASKS})


def pretrain_host(ctx: Ctx, cfg: Path, out: Path, epochs: int) -> tuple[float, str]:
    """`adaptir pretrain` on the two host tasks; returns (wall, checksum)."""
    wall, text = ctx.cli("pretrain", "--config", cfg, "--out", out,
                         "--epochs", epochs, "--seed", ctx.seed)
    match = _HOST_LINE.search(text)
    if match is None:
        raise ValueError(f"pretrain printed no host checksum: {text!r}")
    return wall, match[1]


class FinetuneAdaptir:
    name = "finetune-adaptir"
    why = ("the paper's use case: AdaptIR adapts a frozen host to an unseen "
           "degradation, so backward runs through the frozen host into the "
           "adapter branches and the FFT")
    unit = "step"

    def build_fixtures(self, ctx: Ctx) -> str:
        cfg = host_cfg(ctx.fixtures / "host.cfg", FIXTURE_IMAGES)
        return pretrain_host(ctx, cfg, ctx.fixtures / "host", FIXTURE_EPOCHS)[1]

    def prepare(self, ctx: Ctx) -> None:
        s = ctx.size
        write_cfg(ctx.scratch / "ft.cfg", host_checkpoint=ctx.fixtures / "host" / "host.ckpt",
                  images=s.ft_images, batch_size=BATCH, eval_n=s.ft_eval_n,
                  dump_images=DUMP_IMAGES)

    def iterate(self, ctx: Ctx) -> Result:
        out = ctx.outputs / "ft"
        wall, text = ctx.cli("finetune", "--config", ctx.scratch / "ft.cfg", "--out", out,
                             "--method", "adaptir", "--task", TASK,
                             "--epochs", ctx.size.ft_epochs, "--seed", ctx.seed)
        report = read_report(out / "report.csv")
        problems: list[str] = []
        before = float(re.search(r"psnr before (\S+) dB", text)[1])
        finite("psnr before adaptation", before, problems)
        checksums = dict(_CHECKSUM.findall(text))
        if len(set(checksums.values())) != 1 or len(checksums) != 2:
            problems.append(f"freeze-contract checksum lines differ: {checksums}")
        steps = int(report["steps"])
        return Result(timed_s=wall, images=steps * BATCH, units=steps, session_s=wall,
                      psnr=finite("adapted psnr", float(report["psnr"]), problems),
                      host_checksum=checksums.get("before"),
                      digests={"ft/report.csv": digest(out / "report.csv"),
                               "ft/adapter.ckpt": digest(out / "adapter.ckpt")},
                      problems=problems)


class PretrainHost:
    name = "pretrain-host"
    why = ("bypasses the adapter: all 312k host weights train under AdamW, no "
           "FFT runs and only the sr2 half of the batches pays for bicubic")
    unit = "step"

    def build_fixtures(self, ctx: Ctx) -> None:
        return None  # the workload builds its own host each iteration

    def prepare(self, ctx: Ctx) -> None:
        host_cfg(ctx.scratch / "pre.cfg", ctx.size.pre_images)

    def iterate(self, ctx: Ctx) -> Result:
        wall, checksum = pretrain_host(ctx, ctx.scratch / "pre.cfg", ctx.outputs / "host", 1)
        problems: list[str] = []
        log = ctx.outputs / "host" / "pretrain_log.csv"
        with open(log, newline="", encoding="utf-8") as f:
            losses = [finite(f"{r['task']} loss", float(r["loss"]), problems)
                      for r in csv.DictReader(f)]
        tasks = HOST_TASKS.split(",")
        if len(losses) != len(tasks):
            problems.append(f"pretrain_log.csv has {len(losses)} rows for one epoch")
        steps = len(tasks) * (ctx.size.pre_images // BATCH)
        return Result(timed_s=wall, images=steps * BATCH, units=steps, session_s=wall,
                      final_loss=sum(losses) / max(len(losses), 1), host_checksum=checksum,
                      digests={"host/pretrain_log.csv": digest(log),
                               "host/host.ckpt": digest(ctx.outputs / "host" / "host.ckpt")},
                      problems=problems)


class EvalMethods:
    name = "eval-methods"
    why = ("forward only under no_grad at batch 1: checkpoint loads, PSNR/SSIM "
           "and the only workload that runs the LoRA and bottleneck code")
    unit = "image"
    METHODS = ("adaptir", "lora", "bottleneck")

    def build_fixtures(self, ctx: Ctx) -> None:
        pretrain_host(ctx, host_cfg(ctx.fixtures / "host.cfg", FIXTURE_IMAGES),
                      ctx.fixtures / "host", FIXTURE_EPOCHS)
        cfg = write_cfg(ctx.fixtures / "fixture_ft.cfg",
                        host_checkpoint=ctx.fixtures / "host" / "host.ckpt",
                        images=FIXTURE_IMAGES, batch_size=BATCH, eval_n=1, dump_images=0)
        for method in self.METHODS:
            ctx.cli("finetune", "--config", cfg, "--out", ctx.fixtures / method,
                    "--method", method, "--task", TASK, "--epochs", FIXTURE_EPOCHS,
                    "--seed", ctx.seed)

    def _evals(self, ctx: Ctx):
        """(label, config, task) of the four eval commands of one iteration."""
        for method in self.METHODS:
            yield method, ctx.scratch / f"eval_{method}.cfg", TASK
        yield "host", ctx.scratch / "eval_host.cfg", "noise25"

    def prepare(self, ctx: Ctx) -> None:
        host_ckpt = ctx.fixtures / "host" / "host.ckpt"
        for method in self.METHODS:
            write_cfg(ctx.scratch / f"eval_{method}.cfg", host_checkpoint=host_ckpt,
                      adapter_checkpoint=ctx.fixtures / method / "adapter.ckpt",
                      eval_n=ctx.size.eval_n, dump_images=DUMP_IMAGES)
        write_cfg(ctx.scratch / "eval_host.cfg", host_checkpoint=host_ckpt,
                  eval_n=ctx.size.eval_n, dump_images=DUMP_IMAGES)

    def iterate(self, ctx: Ctx) -> Result:
        walls = []
        start = time.perf_counter()
        for label, cfg, task in self._evals(ctx):
            wall, _ = ctx.cli("eval", "--config", cfg, "--out", ctx.outputs / label,
                              "--task", task, "--seed", ctx.seed)
            walls.append(wall)
        session = time.perf_counter() - start
        problems: list[str] = []
        psnrs, digests = [], {}
        for label, _, _ in self._evals(ctx):
            report = ctx.outputs / label / "report.csv"
            psnrs.append(finite(f"{label} psnr", float(read_report(report)["psnr"]), problems))
            digests[f"{label}/report.csv"] = digest(report)
        images = len(walls) * ctx.size.eval_n
        return Result(timed_s=sum(walls), images=images, units=images, session_s=session,
                      psnr=sum(psnrs) / len(psnrs), digests=digests, problems=problems)


WORKLOADS = {w.name: w for w in (FinetuneAdaptir(), PretrainHost(), EvalMethods())}
