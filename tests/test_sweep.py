"""The bit-identity sweep (``tools/sweep.py``): two equal copies of the
package read identical artifact by artifact, and one changed init constant
is reported; each artifact kind's comparison names what differs."""

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"
SRC = Path(__file__).resolve().parent.parent / "src"


def load_sweep():
    spec = importlib.util.spec_from_file_location("sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def copy_src(dest: Path) -> Path:
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_equal_trees_are_identical_and_a_changed_init_is_reported(tmp_path):
    sweep = load_sweep()
    matrix = [(name, args) for name, args in sweep.MATRIX
              if name in ("pretrain", "finetune_adaptir_noise25")]
    changed = copy_src(tmp_path / "changed")
    adapter = changed / "adaptir" / "adapter.py"
    text = adapter.read_text(encoding="utf-8")
    assert text.count("bound = 1.0 /") == 1
    adapter.write_text(text.replace("bound = 1.0 /", "bound = 0.9 /"), encoding="utf-8")
    for name, src in [("a", copy_src(tmp_path / "src_a")), ("b", copy_src(tmp_path / "src_b")),
                      ("c", changed)]:
        assert sweep.run_matrix(src, tmp_path / name, matrix) == []

    same = sweep.compare(tmp_path / "a" / "runs", tmp_path / "b" / "runs")
    names = {rel for rel, _ in same}
    assert {"pretrain/host.ckpt", "pretrain/pretrain_log.csv", "pretrain.stdout",
            "finetune_adaptir_noise25/adapter.ckpt",
            "finetune_adaptir_noise25/sample0_pred.ppm"} <= names
    assert all(diff == [] for _, diff in same), sweep.render(same)

    report = dict(sweep.compare(tmp_path / "a" / "runs", tmp_path / "c" / "runs"))
    assert any(d.startswith("field tail.") and "max |d|" in d
               for d in report["pretrain/host.ckpt"])
    assert any(d.startswith("row 1 loss:") for d in report["pretrain/pretrain_log.csv"])
    assert report["finetune_adaptir_noise25/sample0_pred.ppm"]
    assert report["pretrain/resolved.cfg"] == []  # each tree's own paths are masked


def test_each_artifact_kind_names_its_difference(tmp_path):
    sweep = load_sweep()
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        root.mkdir()

    def checkpoint(root, config, field):
        header = {"kind": "adapter", "config": config,
                  "fields": [{"name": "w", "shape": [2]}, {"name": "u", "shape": [1]}]}
        data = np.array([*field, 7.0], dtype="<f4").tobytes()
        (root / "x.ckpt").write_bytes(json.dumps(header).encode() + b"\n" + data)

    checkpoint(a, {"adapter": {"seed": 0, "dtype": "f32"}}, [1.0, 2.0])
    checkpoint(b, {"adapter": {"seed": 0}}, [1.0, 2.5])
    (a / "r.csv").write_text("label,psnr\neval,28.1\n")
    (b / "r.csv").write_text("label,psnr\neval,28.2\n")
    (a / "i.ppm").write_bytes(b"P6\n1 1\n255\n\x01\x02\x03")
    (b / "i.ppm").write_bytes(b"P6\n1 1\n255\n\x01\x05\x03")
    (a / "run.stdout").write_text(f"wrote {a}/host.ckpt\nok\n")
    (b / "run.stdout").write_text(f"wrote {b}/host.ckpt\nfail\n")
    (a / "gone.csv").write_text("x\n")

    report = dict(sweep.compare(a, b))
    assert report == {
        "gone.csv": ["only in parent"],
        "i.ppm": ["1 of 14 bytes differ (max |d| 3)"],
        "r.csv": ["row 1 psnr: '28.1' -> '28.2'"],
        "run.stdout": ["line 2: 'ok' -> 'fail'"],
        "x.ckpt": ["header config.adapter.dtype: 'f32' -> absent", "field w: max |d| 0.5"],
    }
    checkpoint(b, {"adapter": {"seed": 0}}, [1.0, 2.0])
    assert sweep.compare(a, b)[-1] == (
        "x.ckpt", ["header config.adapter.dtype: 'f32' -> absent",
                   "every field identical (2 fields)"])
