#!/usr/bin/env python3
"""adaptir benchmark: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload finetune-adaptir --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports ``adaptir`` from that
checkout's ``src/`` and refuses any other copy.  A run sets up from scratch
(in child processes, several times), runs one untimed warm-up iteration,
then repeats the workload's iteration for ``--seconds``.  Every iteration's
outputs are checked against the warm-up's.

``--trace 0`` prints the end-to-end metrics and ``--trace 1``, which
alternates untraced and traced iterations, the per-layer metrics, each under
the name, unit and direction ``BENCHMARK.json`` lists.  The lines
before the last describe the run for a reader; the last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The glossary is
in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREADS = 1  # one thread keeps timings steady on a small shared machine
SETUP_TIMEOUT_S = 170

# deterministic per seed, so reported and checked but not bounded: their
# spread across seeds is content (each seed pretrains another host), not noise
QUALITY = {"psnr_db": ("dB", "higher", "psnr"),
           "final_loss": ("L1", "lower", "final_loss")}

HOST_OPS = ("matmul", "conv2d", "softmax", "layernorm", "gelu", "other")
# spans that create graph nodes, so they have backward time as well
GRAPH_LAYERS = ("host", "adapter.down", "adapter.lim", "adapter.fam", "adapter.csm",
                "adapter.up", "fft.rfft2", "fft.irfft2", "baselines.lora",
                "baselines.bottleneck", "pipeline.loss")
# per-layer counters the tracer keeps, reported per unit
COUNTERS = ("data.degrade.calls", "fft.calls", "tensor.nodes", "tensor.grad_bytes.discarded",
            "tensor.matmul.flops", "tensor.conv2d.flops", "tensor.f64_outputs",
            "serialize.bytes")


def span_metric(layer: str, phase: str) -> str:
    """Name of the per-layer metric that reports a span's self time."""
    if layer in GRAPH_LAYERS:
        return f"{layer}.{phase}.ms"
    if layer in ("cli", "tensor.backward") and phase == "fwd":
        return f"{layer}.self.ms"
    return f"{layer}.ms" if phase == "fwd" else f"{layer}.bwd.ms"


def metric_specs(kind: str) -> dict[str, tuple[str, str]]:
    """Metric name -> (unit, better), as BENCHMARK.json lists them under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_working_tree():
    """Import adaptir from ROOT/src, or stop: a stale copy must not be measured."""
    if not (SRC / "adaptir" / "__init__.py").is_file():
        fail(f"no adaptir sources at {SRC}; run from the root of an adaptir checkout")
    sys.path.insert(0, str(SRC))
    import adaptir
    found = Path(adaptir.__file__).resolve().parent
    if found != (SRC / "adaptir").resolve():
        fail(f"adaptir was imported from {found}, not from {SRC / 'adaptir'}")
    return adaptir


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "seed": seed, "commit": git_commit()}


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of a list of samples."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0] if values else 0.0
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# -- one iteration ---------------------------------------------------------------


def run_iteration(workload, ctx, reference: dict | None = None):
    """Run and check one iteration: (result or None, problems).

    With a reference (the warm-up's outputs), the iteration's output bytes
    and host checksum must match it."""
    ctx.clear_outputs()
    try:
        res = workload.iterate(ctx)
    except Exception as exc:  # a failing command is a failed iteration, not a crash
        return None, [f"{type(exc).__name__}: {exc}"]
    problems = list(res.problems)
    if reference is not None:
        for name, value in res.digests.items():
            if reference["digests"].get(name) != value:
                problems.append(f"{name} differs from the warm-up iteration")
        if res.host_checksum != reference["host_checksum"]:
            problems.append("host checksum differs from the set-up host")
    return res, problems


def setup_child(workload, ctx) -> int:
    """Build fixtures and run the warm-up iteration; write reference.json."""
    checksum = workload.build_fixtures(ctx)
    workload.prepare(ctx)
    res, problems = run_iteration(workload, ctx)
    if res is not None and checksum and res.host_checksum != checksum:
        problems.append("fine-tuning saw another host than the one set-up pretrained")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    ref = {"digests": res.digests, "host_checksum": res.host_checksum}
    (ctx.fixtures / "reference.json").write_text(json.dumps(ref), encoding="utf-8")
    return 0


def run_setups(args, run_dir: Path, count: int) -> tuple[list[float], list[dict]]:
    """Set up ``count`` times, each in a fresh process; time each one."""
    walls, refs = [], []
    for k in range(count):
        target = run_dir / f"setup{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-child", str(target)]
        if args.tiny:
            cmd.append("--tiny")
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up {k} failed:\n{proc.stderr.strip()}")
        refs.append(json.loads((target / "reference.json").read_text(encoding="utf-8")))
    return walls, refs


# -- measurement --------------------------------------------------------------------


def report(name: str, value: float, unit: str, better: str, stats: dict | None = None) -> None:
    line = f"metric {name} {value!r} {unit} better={better}"
    if stats:
        line += " " + " ".join(f"{k}={v!r}" for k, v in stats.items())
    print(line)


def measure_end_to_end(workload, ctx, reference, seconds, setup_walls):
    results, failures = [], []
    start = time.perf_counter()
    while not (results or failures) or time.perf_counter() - start < seconds:
        res, problems = run_iteration(workload, ctx, reference)
        (failures if problems else results).append(problems or res)
    rates = [r.images / r.timed_s for r in results]
    metrics = {"setup_s": summary(setup_walls), "images_per_s": summary(rates)}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics["peak_rss_mb"] = {"median": rss_mb, "q1": rss_mb, "q3": rss_mb, "n": 1}
    for name, (unit, better, field) in QUALITY.items():
        values = [getattr(r, field) for r in results if getattr(r, field) is not None]
        if values:  # equal across iterations: their source files are byte-checked
            print(f"quality {name} {statistics.median(values)!r} {unit} better={better}")
    return metrics, len(results) + len(failures), failures, []


def measure_traced(workload, ctx, reference, seconds):
    from tracer import Tracer

    tr = Tracer()
    plain, traced, failures = [], [], []
    units, unattributed, attributed_ratio = 0, 0.0, []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or not (plain and traced) and len(failures) < 3):
        if len(traced) < len(plain):
            tr.iteration += 1
            before = attributed(tr)
            tr.install()
            ctx.tracer = tr
            try:
                res, problems = run_iteration(workload, ctx, reference)
            finally:
                ctx.tracer = None
                tr.uninstall()
            if not problems:
                traced.append(res)
                units += res.units
                covered = attributed(tr) - before
                unattributed += res.session_s - covered
                attributed_ratio.append(covered / res.session_s)
        else:
            res, problems = run_iteration(workload, ctx, reference)
            if not problems:
                plain.append(res)
        if problems:
            failures.append(problems)
    health = []
    if tr.negative_self:
        health.append(f"trace: {tr.negative_self} negative self times")
    if min(attributed_ratio, default=0.0) < 0.9:
        health.append(f"trace: only {min(attributed_ratio, default=0.0):.3f} of a traced "
                      "iteration was attributed to named layer spans")
    metrics = layer_metrics(tr, max(units, 1))
    if plain and traced:
        metrics["trace.overhead_ratio"] = (statistics.median(r.session_s for r in traced)
                                           / statistics.median(r.session_s for r in plain))
    metrics["trace.unattributed.ms"] = 1000 * unattributed / max(units, 1)
    metrics["trace.attributed_ratio"] = min(attributed_ratio, default=0.0)
    WORK.mkdir(exist_ok=True)
    tr.write_spans(WORK / f"trace-{workload.name}-s{ctx.seed}.json")
    return metrics, len(plain) + len(traced) + len(failures), failures, health


def attributed(tr) -> float:
    """Seconds of self time charged to named layer spans.  The ``cli`` span's
    self time is what is left of a command outside them, so it is not."""
    from tracer import LAYER_SPANS
    return sum(v for (layer, _), v in tr.self_s.items() if layer in LAYER_SPANS)


def layer_metrics(tr, units: int) -> dict[str, float]:
    """Per-layer values, per training step or per evaluated image."""
    from tracer import LAYER_SPANS
    out = {}
    for layer in (*LAYER_SPANS, "cli"):
        for phase in ("fwd", "bwd") if layer in GRAPH_LAYERS else ("fwd",):
            out[span_metric(layer, phase)] = 1000 * tr.self_s[(layer, phase)] / units
    for op in HOST_OPS:
        for phase in ("fwd", "bwd"):
            out[f"host.{op}.{phase}.ms"] = 1000 * tr.op_s[("host", op, phase)] / units
    for name in COUNTERS:
        out[name] = tr.counts[name] / units
    useful, discarded = tr.counts["tensor.grad_bytes.useful"], tr.counts["tensor.grad_bytes.discarded"]
    out["tensor.useful_grad_ratio"] = useful / (useful + discarded) if useful + discarded else 1.0
    out["tensor.tape_bytes.peak"] = float(tr.tape_bytes_peak)
    steps_ms = [1000 * s for s in tr.step_s] or [0.0]
    import numpy
    out["pipeline.step.ms.p50"] = float(numpy.percentile(steps_ms, 50))
    out["pipeline.step.ms.p90"] = float(numpy.percentile(steps_ms, 90))
    return out


# -- entry point ----------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test size: one epoch, one step per command, one set-up")
    p.add_argument("--setup-child", metavar="DIR",
                   help="internal: build fixtures into DIR and run the warm-up")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    import_working_tree()
    import workloads  # imports adaptir, hence numpy: after the BLAS pin above

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r} (one of {', '.join(workloads.WORKLOADS)})")
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.TINY if args.tiny else workloads.FULL

    if args.setup_child:
        target = Path(args.setup_child)
        target.mkdir(parents=True, exist_ok=True)
        return setup_child(workload, workloads.Ctx(target, target / "warm", args.seed, size))

    specs = metric_specs("per_layer" if args.trace else "end_to_end")

    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        setup_walls, refs = run_setups(args, run_dir, size.setups)
        reference = refs[0]
        setup_problems = [f"set-up {k} differs from set-up 0" for k, ref in enumerate(refs)
                          if ref != reference]
        ctx = workloads.Ctx(run_dir / "setup0", run_dir / "main", args.seed, size)
        workload.prepare(ctx)
        _, warm_problems = run_iteration(workload, ctx, reference)  # untimed warm-up
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        print(f"workload {workload.name}: {workload.why} "
              f"(closed loop, 1 client, per-layer unit: {workload.unit})")
        if args.trace:
            metrics, attempted, failures, health = measure_traced(
                workload, ctx, reference, args.seconds)
            values, stats = metrics, {}
        else:
            metrics, attempted, failures, health = measure_end_to_end(
                workload, ctx, reference, args.seconds, setup_walls)
            values = {name: m["median"] for name, m in metrics.items()}
            stats = metrics
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = [name for name in specs if name not in values]
    if missing:
        fail(f"BENCHMARK.json lists metrics this run does not compute: {', '.join(missing)}")
    for name, (unit, better) in specs.items():
        report(name, values[name], unit, better, stats.get(name))

    problems = setup_problems + [f"warm-up: {p}" for p in warm_problems]
    problems += [f"iteration: {p}" for failure in failures for p in failure] + health
    for p in problems:
        print(f"problem {p}")
    print(f"failed_fraction {len(failures)}/{attempted}")
    result = {"correct": not problems, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, (unit, _) in specs.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
