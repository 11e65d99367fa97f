"""Bit-identity sweep: run one fixed CLI matrix on a parent revision and on
the working tree, and report every artifact that differs.

    python3 tools/sweep.py --parent <rev> [--expect-changes]

``<rev>`` is exported with ``git archive``; each tree's commands run with
``PYTHONPATH=<tree>/src`` on a 16-wide, 2-layer host, one BLAS thread each.
For every artifact the report says ``identical`` or lists the difference:
the differing bytes of a PPM, the differing cells of a CSV, each checkpoint
field's largest absolute difference and any header key that differs, and
the differing stdout lines with each tree's own paths masked.  The command
exits 1 on any difference unless ``--expect-changes`` is given, and 2 if a
command of the matrix fails in either tree, since a failed command checks
nothing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent

HOST_CONFIG = """\
seed=3
host.embed=16
host.layers=2
host.heads=2
adapter.reduction=4
adapter.lim_rank=2
images=8
eval_n=2
batch_size=8
dump_images=1
"""

TASK = "second_order_s2_sig25"
ADAPTED = f"finetune_adaptir_{TASK}"

# config name -> text; {runs} is the tree's run directory
CONFIGS = {
    "host": HOST_CONFIG,
    "run": HOST_CONFIG + "host_checkpoint={runs}/pretrain/host.ckpt\n",
}
CONFIGS["attention"] = CONFIGS["run"] + "insertion.position=attention\n"
CONFIGS["adapter"] = CONFIGS["run"] + f"adapter_checkpoint={{runs}}/{ADAPTED}/adapter.ckpt\n"
# dumps past eval_n=2: samples predicted only for the dump
CONFIGS["dump"] = CONFIGS["run"] + "dump_images=3\n"
CONFIGS["adapter_dump"] = CONFIGS["adapter"] + "dump_images=3\n"
# the default host's head count: 4 heads, 4 channels each
CONFIGS["heads4"] = HOST_CONFIG.replace("host.heads=2", "host.heads=4")
CONFIGS["heads4_run"] = CONFIGS["heads4"] + "host_checkpoint={runs}/pretrain_heads4/host.ckpt\n"

# (run name, CLI arguments) in run order; {out} is the run's output
# directory and {<config>} the path of that config file
MATRIX = [
    ("pretrain", ["pretrain", "--config", "{host}", "--out", "{out}", "--epochs", "2"]),
    *[(f"finetune_{method}_{task}",
       ["finetune", "--config", "{run}", "--out", "{out}", "--method", method,
        "--task", task, "--epochs", "2"])
      for method in ("adaptir", "lora", "bottleneck") for task in (TASK, "noise25")],
    ("finetune_attention", ["finetune", "--config", "{attention}", "--out", "{out}",
                            "--task", TASK, "--epochs", "2"]),
    ("eval_adapter", ["eval", "--config", "{adapter}", "--out", "{out}", "--task", TASK]),
    ("eval_host", ["eval", "--config", "{run}", "--out", "{out}", "--task", TASK]),
    ("eval_adapter_dump3", ["eval", "--config", "{adapter_dump}", "--out", "{out}",
                            "--task", TASK]),
    ("eval_host_noise25_dump3", ["eval", "--config", "{dump}", "--out", "{out}",
                                 "--task", "noise25"]),
    ("finetune_adaptir_dump3", ["finetune", "--config", "{dump}", "--out", "{out}",
                                "--task", TASK, "--epochs", "1"]),
    # the bare host on one id of each other chain: sr, darken and no degradation
    *[(f"eval_host_{task}", ["eval", "--config", "{run}", "--out", "{out}", "--task", task])
      for task in ("sr2", "darken_f0.5_g1.2", "noise0")],
    # training batches through the darken branch
    ("finetune_adaptir_darken", ["finetune", "--config", "{run}", "--out", "{out}",
                                 "--task", "darken_f0.5_g1.2", "--epochs", "1"]),
    *[(f"ablate_{axes}", ["ablate", "--config", "{run}", "--out", "{out}", "--axes", axes,
                          "--task", TASK, "--epochs", "1"])
      for axes in ("efficiency", "components", "insertion")],
    ("gradcheck", ["gradcheck", "--seed", "0"]),
    ("pretrain_heads4", ["pretrain", "--config", "{heads4}", "--out", "{out}", "--epochs", "2"]),
    ("finetune_adaptir_heads4", ["finetune", "--config", "{heads4_run}", "--out", "{out}",
                                 "--method", "adaptir", "--task", TASK, "--epochs", "2"]),
]


def export(rev: str, dest: Path) -> Path:
    """Extract ``rev``'s ``src`` into ``dest`` with ``git archive``; returns
    the extracted ``src``."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def run_matrix(src: Path, root: Path, matrix=MATRIX) -> list[str]:
    """Run ``matrix`` on the package in ``src``, writing each run's artifacts
    to ``root/runs/<name>`` and its stdout to ``root/runs/<name>.stdout``.
    Returns the names of the runs that failed."""
    runs = root / "runs"
    runs.mkdir(parents=True)
    paths = {}
    for name, text in CONFIGS.items():
        paths[name] = root / f"{name}.cfg"
        paths[name].write_text(text.format(runs=runs), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    failed = []
    for name, args in matrix:
        argv = [a.format(out=runs / name, **paths) for a in args]
        res = subprocess.run([sys.executable, "-m", "adaptir.cli", *argv], env=env,
                             cwd=root, capture_output=True, text=True)
        out = res.stdout + res.stderr
        if res.returncode:
            failed.append(name)
            out += f"exit status {res.returncode}\n"
        (runs / f"{name}.stdout").write_text(out, encoding="utf-8")
    return failed


# -- comparison ---------------------------------------------------------------


def _lines(path: Path, root: Path) -> list[str]:
    return path.read_text(encoding="utf-8").replace(str(root), "<out>").splitlines()


def _compare_text(a: Path, b: Path, root_a: Path, root_b: Path) -> list[str]:
    return [f"line {i}: {x!r} -> {y!r}" for i, (x, y)
            in enumerate(zip_longest(_lines(a, root_a), _lines(b, root_b)), 1) if x != y]


def _compare_csv(a: Path, b: Path, *_roots) -> list[str]:
    ra, rb = (list(csv.reader(p.read_text(encoding="utf-8").splitlines())) for p in (a, b))
    out = [f"{len(ra)} rows -> {len(rb)} rows"] if len(ra) != len(rb) else []
    head = ra[0] if ra else []
    for i, (x, y) in enumerate(zip(ra, rb)):
        if len(x) != len(y):
            out.append(f"row {i}: {len(x)} cells -> {len(y)} cells")
            continue
        out += [f"row {i} {head[j] if j < len(head) else j}: {u!r} -> {v!r}"
                for j, (u, v) in enumerate(zip(x, y)) if u != v]
    return out


def _compare_bytes(a: Path, b: Path, *_roots) -> list[str]:
    da, db = (np.frombuffer(p.read_bytes(), dtype=np.uint8) for p in (a, b))
    if da.size != db.size:
        return [f"{da.size} bytes -> {db.size} bytes"]
    diff = np.abs(da.astype(np.int16) - db.astype(np.int16))
    n = int(np.count_nonzero(diff))
    return [f"{n} of {da.size} bytes differ (max |d| {diff.max()})"] if n else []


def read_checkpoint(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """A checkpoint's header without its field list, and its fields, read
    here rather than through either tree's package."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        fields = {fld["name"]: np.frombuffer(f.read(4 * math.prod(fld["shape"])), dtype="<f4")
                  .reshape(fld["shape"]) for fld in header.pop("fields")}
    return header, fields


def _flatten(tree, prefix=""):
    if not isinstance(tree, dict):
        return {prefix: tree}
    flat = {}
    for key, value in tree.items():
        flat.update(_flatten(value, f"{prefix}.{key}" if prefix else key))
    return flat


def _compare_checkpoint(a: Path, b: Path, *_roots) -> list[str]:
    (ha, fa), (hb, fb) = read_checkpoint(a), read_checkpoint(b)
    flat_a, flat_b = _flatten(ha), _flatten(hb)

    def value(flat, key):
        return repr(flat[key]) if key in flat else "absent"

    out = [f"header {k}: {value(flat_a, k)} -> {value(flat_b, k)}"
           for k in sorted(flat_a.keys() | flat_b.keys()) if value(flat_a, k) != value(flat_b, k)]
    fields = []
    for name in [*fa, *(n for n in fb if n not in fa)]:
        x, y = fa.get(name), fb.get(name)
        if x is None or y is None:
            fields.append(f"field {name}: only in {'this tree' if x is None else 'parent'}")
        elif x.shape != y.shape:
            fields.append(f"field {name}: shape {list(x.shape)} -> {list(y.shape)}")
        elif x.tobytes() != y.tobytes():
            d = np.abs(x.astype(np.float64) - y.astype(np.float64)).max(initial=0.0)
            fields.append(f"field {name}: max |d| {d:.3g}")
    if out and not fields:
        fields = [f"every field identical ({len(fa)} fields)"]
    return out + fields


COMPARE = {".ckpt": _compare_checkpoint, ".csv": _compare_csv, ".ppm": _compare_bytes,
           ".cfg": _compare_text, ".stdout": _compare_text}


def compare(root_a: Path, root_b: Path) -> list[tuple[str, list[str]]]:
    """(artifact, differences) for every file under either root, in path
    order; an empty list means the artifact is identical."""
    rels = sorted({p.relative_to(r).as_posix() for r in (root_a, root_b)
                   for p in r.rglob("*") if p.is_file()})
    report = []
    for rel in rels:
        a, b = root_a / rel, root_b / rel
        if a.is_file() and b.is_file():
            diff = COMPARE.get(Path(rel).suffix, _compare_bytes)(a, b, root_a, root_b)
        else:
            diff = [f"only in {'parent' if a.is_file() else 'this tree'}"]
        report.append((rel, diff))
    return report


def render(report: list[tuple[str, list[str]]]) -> str:
    lines = []
    for rel, diff in report:
        lines.append(f"{rel}: {'differs' if diff else 'identical'}")
        lines += [f"    {d}" for d in diff]
    changed = sum(1 for _, diff in report if diff)
    lines.append(f"{len(report)} artifacts: {len(report) - changed} identical,"
                 f" {changed} differ")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--expect-changes", action="store_true",
                        help="exit 0 when artifacts differ")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="sweep-") as tmp:
        tmp = Path(tmp)
        try:
            parent_src = export(args.parent, tmp / "tree")
        except subprocess.CalledProcessError as exc:
            print(f"git archive {args.parent} failed: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        failed = {"parent": run_matrix(parent_src, tmp / "parent"),
                  "this tree": run_matrix(REPO / "src", tmp / "this")}
        report = compare(tmp / "parent" / "runs", tmp / "this" / "runs")
    print(f"sweep: {args.parent} -> working tree")
    print(render(report))
    for side, names in failed.items():
        if names:
            print(f"failed in {side}: {', '.join(names)}", file=sys.stderr)
    if any(failed.values()):
        return 2
    return 1 if any(diff for _, diff in report) and not args.expect_changes else 0


if __name__ == "__main__":
    sys.exit(main())
