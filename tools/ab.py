"""A/B benchmark of a parent revision against the working tree: end to end
in alternating pairs of benchmark runs, or step by step in one process.

    python3 tools/ab.py --parent <rev> --label <L> [--pairs N] [--workloads W ...]
    python3 tools/ab.py --parent <rev> --step

``<rev>``'s ``src``, ``perfbench`` and ``BENCHMARK.json`` are exported with
``git archive``; the change side is a copy of the same three from the
working tree, uncommitted edits included.  Both trees are byte-compiled
before the first run, so no run's ``peak_rss_mb`` includes compiling them.
Each tree runs its own ``perfbench/run.py --trace 0`` for
``BENCHMARK.json``'s ``run_seconds``.  Pair ``k`` runs every workload with
seed ``k`` on both sides, the parent first when ``k`` is odd and the change
first when it is even.

The file keeps the ``command``/``label``/``note``/``runs`` shape of the
other ``BENCH_*.json`` files and adds ``identity`` (the parent's SHA, HEAD's
SHA, whether the working tree differs from HEAD and a SHA-256 of ``git diff
HEAD -- src perfbench``) and ``summary``: per workload and end-to-end metric,
each side's median and quartiles, the quartile spread over the median, the
pairs the change won and whether the medians lie further apart than the
parent's quartiles.  The command exits 1 if a run failed and 2 if the parent
cannot be exported.

``--step`` times training steps in one process, where the end-to-end runs
cannot resolve a few percent.  Each tree's ``src/adaptir`` is copied into a
temporary directory as its own package (``adaptir_parent``,
``adaptir_change`` and ``adaptir_control``, a second copy of the change),
and each builds the same default host, AdaptIR adapter and batch of 8.  Each
of 40 rounds times one AdaptIR fine-tune step and one pretrain step (one
batch through each tree's own ``pipeline._fit``) on the parent and the
change, and on the change and its copy, each pair in the order the round's
parity gives.  It prints, per step, each side's median time, the
change/parent ratio's median and quartiles and, beside it, the A/A
control's: the copy over the change.
Identical code reads a percent or two apart in one process, so a change is
resolved only when its ratio's median lies outside the control's quartiles.
BLAS is pinned to one thread, as the benchmark pins it.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
TREE = ("src", "perfbench", "BENCHMARK.json")
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 900
STEP_ROUNDS = 40
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# each timed step and its task: the benchmark's fine-tune task, and a
# pretrain task every default host lists
STEP_TASKS = {"finetune-adaptir": "second_order_s2_sig25", "pretrain": "sr2"}
# the pairs each round times, as (A, B) for the ratio B/A
STEP_PAIRS = (("parent", "change"), ("change", "control"))


def export(rev: str, dest: Path) -> Path:
    """Extract ``rev``'s benchmarked tree into ``dest`` with ``git archive``."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev, *TREE],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def copy_working_tree(dest: Path) -> Path:
    """Copy the benchmarked tree, uncommitted edits included, into ``dest``."""
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".perfbench")
    for name in TREE:
        if (REPO / name).is_dir():
            shutil.copytree(REPO / name, dest / name, ignore=skip)
        else:
            dest.mkdir(parents=True, exist_ok=True)
            shutil.copy2(REPO / name, dest / name)
    return dest


def byte_compile(tree: Path) -> None:
    if not all(compileall.compile_dir(tree / d, quiet=1) for d in ("src", "perfbench")):
        raise RuntimeError(f"byte-compiling {tree} failed")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(REPO), *args], capture_output=True,
                          check=True).stdout


def identity(rev: str) -> dict:
    diff = git("diff", "HEAD", "--", "src", "perfbench")
    return {"parent": {"rev": rev,
                       "sha": git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()},
            "change": {"head": git("rev-parse", "HEAD").decode().strip(),
                       "dirty": bool(git("status", "--porcelain", "--", *TREE).strip()),
                       "diff_sha256": hashlib.sha256(diff).hexdigest()}}


def run_once(tree: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its env line and
    result, or the error it ended with."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--tiny"] if tiny else [])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"env": None, "result": None, "error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.splitlines()
    env_line = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    if proc.returncode != 0 or not lines:
        return {"env": env_line, "result": None,
                "error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    return {"env": env_line, "result": json.loads(lines[-1])}


def run_pairs(trees: dict[str, Path], workloads: list[str], pairs: int, seconds: float,
              tiny: bool = False, log=print) -> list[dict]:
    runs = []
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                run = {"pair": pair, "workload": workload, "seed": pair, "side": side,
                       "ran_first": side == order[0],
                       **run_once(trees[side], workload, pair, seconds, tiny)}
                runs.append(run)
                metrics = (run["result"] or {}).get("metrics", {})
                log(f"pair {pair}/{pairs} {workload} {side}: "
                    + (" ".join(f"{k}={m['value']:.4g}" for k, m in metrics.items())
                       or f"failed: {run['error'].splitlines()[-1]}"))
    return runs


def quartiles(values: list[float]) -> dict:
    """Median, quartiles (numpy's linear interpolation, so q1 <= median <= q3
    and equal values give equal quartiles), their spread over the median,
    and count."""
    q1, med, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def summarize(runs: list[dict], metrics: dict[str, tuple[str, str]]) -> dict:
    """Per workload: each side's failed runs and, per metric, each side's
    quartiles, the pairs the change won and whether the medians are apart."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        ok = {(r["pair"], r["side"]): r["result"] for r in mine
              if r["result"] is not None and r["result"]["correct"]}
        entry = {"failed_runs": {s: sum(r["side"] == s and (r["pair"], s) not in ok
                                        for r in mine) for s in SIDES},
                 "failed_ops": {s: sum(r["result"]["failed"] for r in mine
                                       if r["side"] == s and r["result"] is not None)
                                for s in SIDES},
                 "metrics": {}}
        out[workload] = entry
        both = sorted({p for p, _ in ok if (p, "parent") in ok and (p, "change") in ok})
        if not both:
            continue
        for name, (unit, better) in metrics.items():
            values = {s: [ok[p, s]["metrics"][name]["value"] for p in both] for s in SIDES}
            sign = -1 if better == "lower" else 1
            stats = {s: quartiles(values[s]) for s in SIDES}
            parent = stats["parent"]
            entry["metrics"][name] = {
                "unit": unit, "better": better, **stats, "pairs": len(both),
                "change_won": sum(sign * (c - p) > 0
                                  for p, c in zip(values["parent"], values["change"])),
                "apart": abs(stats["change"]["median"] - parent["median"])
                > parent["q3"] - parent["q1"]}
    return out


def end_to_end_metrics(tree: Path) -> dict[str, tuple[str, str]]:
    spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}


def ab(trees: dict[str, Path], out: Path, label: str, ident: dict, workloads: list[str],
       pairs: int, seconds: float, tiny: bool = False, log=print) -> dict:
    """Byte-compile both trees, run the pairs and write ``out``; returns what it wrote."""
    for tree in trees.values():
        byte_compile(tree)
    runs = run_pairs(trees, workloads, pairs, seconds, tiny, log)
    envs = [r["env"] for r in runs if r["env"]]
    box = (f"{envs[0]['nproc']}-vCPU {envs[0]['cpu_model']}, python {envs[0]['python']},"
           f" numpy {envs[0]['numpy']}" if envs else "an unknown box")
    bench = {
        "command": "python3 perfbench/run.py --workload <w> --seed <pair> --seconds "
                   f"{seconds:g} --trace 0" + (" --tiny" if tiny else ""),
        "label": label,
        "note": f"{pairs} alternating pairs per workload of parent"
                f" ({ident['parent']['sha'][:7]}) and change runs on {box}, written by"
                " tools/ab.py.  The parent ran first in odd pairs, the change in even ones."
                "  Both trees were byte-compiled before the first run, so no peak_rss_mb"
                " includes compiling src.  Each side ran from its own exported copy, so"
                " every env.commit reads 'unknown (not a git checkout)' and 'side' tells"
                " them apart.",
        "identity": ident,
        "summary": summarize(runs, end_to_end_metrics(trees["change"])),
        "runs": runs,
    }
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return bench


def render(summary: dict) -> str:
    lines = []
    for workload, entry in summary.items():
        lines.append(f"{workload}: failed runs {entry['failed_runs']},"
                     f" failed operations {entry['failed_ops']}")
        for name, m in entry["metrics"].items():
            p, c = m["parent"], m["change"]
            lines.append(
                f"  {name} ({m['unit']}, {m['better']} is better):"
                f" {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] ->"
                f" {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}],"
                f" change won {m['change_won']}/{m['pairs']},"
                f" {'apart' if m['apart'] else 'within'} the parent's quartiles")
    return "\n".join(lines)


def load_packages(trees: dict[str, Path], dest: Path) -> dict:
    """Each tree's ``src/adaptir`` copied into ``dest`` as ``adaptir_<side>``,
    the change's a second time as ``adaptir_control``, and imported."""
    sources = {**trees, "control": trees["change"]}
    for side, tree in sources.items():
        shutil.copytree(tree / "src" / "adaptir", dest / f"adaptir_{side}",
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    sys.path.insert(0, str(dest))
    try:
        return {side: importlib.import_module(f"adaptir_{side}") for side in sources}
    finally:
        sys.path.remove(str(dest))


def training_step(P, model, adapter, task: str, batch: int):
    """A call that runs package ``P``'s training recipe, ``_fit``, for one
    step on one batch of ``batch`` ``task`` images, which are made once;
    ``adapter`` None trains every host parameter."""
    runs = [P._train_run(task, 0, batch)]
    train = P.TrainConfig(epochs=1, images=batch, batch_size=batch)
    return lambda: P._fit(model, adapter, runs, train)


def step_fixtures(pkg, host: dict, batch: int) -> dict:
    """One package's timed steps by name, each on its own host built from
    the ``HostConfig`` fields ``host``: a frozen one under a default AdaptIR
    adapter, and one that pretrains."""
    P, H = pkg.pipeline, pkg.host
    config = H.HostConfig(**host)
    adapter = P.build_adapter(config, "adaptir", pkg.AdaptIRConfig(channels=config.embed))
    return {"finetune-adaptir": training_step(P, H.freeze(H.HostModel(config)), adapter,
                                              STEP_TASKS["finetune-adaptir"], batch),
            "pretrain": training_step(P, H.HostModel(config), None, STEP_TASKS["pretrain"],
                                      batch)}


def step_ab(packages: dict, rounds: int, host: dict | None = None, batch: int = 8,
            log=print) -> dict:
    """Per step: each side's median seconds, and the quartiles of the ratio
    change/parent and of the control's change-copy/change over ``rounds``
    rounds, after one untimed warm-up step on each side."""
    steps = {side: step_fixtures(pkg, host or {}, batch) for side, pkg in packages.items()}
    for fixtures in steps.values():
        for step in fixtures.values():
            step()
    times = {(name, pair, side): [] for name in STEP_TASKS for pair in STEP_PAIRS
             for side in pair}
    for r in range(1, rounds + 1):
        for name in STEP_TASKS:
            for pair in STEP_PAIRS:
                for side in pair if r % 2 else pair[::-1]:
                    start = time.perf_counter()
                    steps[side][name]()
                    times[name, pair, side].append(time.perf_counter() - start)
        log(f"round {r}/{rounds}")
    out = {}
    for name in STEP_TASKS:
        ratios = {}
        for pair in STEP_PAIRS:
            a, b = (times[name, pair, side] for side in pair)
            ratios[pair] = quartiles([tb / ta for ta, tb in zip(a, b)])
        ratio, control = ratios[STEP_PAIRS[0]], ratios[STEP_PAIRS[1]]
        out[name] = {
            "median_s": {side: float(np.median(times[name, STEP_PAIRS[0], side]))
                         for side in SIDES},
            "ratio": ratio, "control": control,
            "outside_control": not control["q1"] <= ratio["median"] <= control["q3"]}
    return out


def render_steps(result: dict) -> str:
    lines = []
    for name, m in result.items():
        r, c, t = m["ratio"], m["control"], m["median_s"]
        lines.append(
            f"{name} step: parent {1e3 * t['parent']:.1f} ms, change {1e3 * t['change']:.1f} ms;"
            f" change/parent {r['median']:.4f} [{r['q1']:.4f}, {r['q3']:.4f}]"
            f" against A/A {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}] over {r['n']}"
            f" rounds: {'outside' if m['outside_control'] else 'inside'} the control's quartiles")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--label", help="writes BENCH_<label>.json (end to end)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+",
                        help="default: every workload BENCHMARK.json lists")
    parser.add_argument("--step", action="store_true",
                        help="time training steps in one process instead")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if not args.step and args.label is None:
        parser.error("--label is required unless --step is given")
    if args.step and any(os.environ.get(v) != "1" for v in BLAS_VARS):
        # numpy reads the pin when it loads, so the timing process starts anew
        env = {**os.environ, **dict.fromkeys(BLAS_VARS, "1")}
        cmd = [sys.executable, str(Path(__file__).resolve())]
        return subprocess.run(cmd + (sys.argv[1:] if argv is None else list(argv)),
                              env=env).returncode
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        try:
            ident = identity(args.parent)
            trees = {"parent": export(args.parent, tmp / "parent"),
                     "change": copy_working_tree(tmp / "change")}
        except subprocess.CalledProcessError as exc:
            print(f"{' '.join(exc.cmd[3:])} failed: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        if args.step:
            packages = load_packages(trees, tmp / "packages")
            print(f"parent {ident['parent']['sha'][:7]}, change on HEAD"
                  f" {ident['change']['head'][:7]}{' (dirty)' if ident['change']['dirty'] else ''}")
            print(render_steps(step_ab(packages, STEP_ROUNDS,
                                       log=lambda line: print(line, flush=True))))
            return 0
        out = REPO / f"BENCH_{args.label}.json"
        bench = ab(trees, out, args.label, ident, workloads, args.pairs, spec["run_seconds"],
                   log=lambda line: print(line, flush=True))
    print(render(bench["summary"]))
    print(f"wrote {out}")
    failed = sum(r["result"] is None or not r["result"]["correct"] for r in bench["runs"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
