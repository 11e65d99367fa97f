"""The end-to-end A/B benchmark (``tools/ab.py``): a tiny A/A run on two
copies of the tree writes a well-formed ``BENCH_*.json``, and the summary
counts the pairs each side won."""

import importlib.util
import json
import math
import sys
from pathlib import Path

AB = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tiny_a_a_run_writes_a_well_formed_file(tmp_path):
    ab = load_ab()
    trees = {side: ab.copy_working_tree(tmp_path / side) for side in ab.SIDES}
    ident = {"parent": {"rev": "HEAD", "sha": "0" * 40},
             "change": {"head": "0" * 40, "dirty": False, "diff_sha256": "0" * 64}}
    out, lines = tmp_path / "BENCH_aa.json", []
    ab.ab(trees, out, "aa", ident, ["eval-methods"], pairs=2, seconds=0, tiny=True,
          log=lines.append)
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert set(bench) == {"command", "label", "note", "identity", "summary", "runs"}
    assert bench["label"] == "aa" and "byte-compiled" in bench["note"]
    assert bench["identity"] == ident
    assert len(lines) == len(bench["runs"]) == 4
    # seed = pair number; the parent runs first in odd pairs, the change in even
    assert [(r["pair"], r["seed"], r["side"], r["ran_first"]) for r in bench["runs"]] == [
        (1, 1, "parent", True), (1, 1, "change", False),
        (2, 2, "change", True), (2, 2, "parent", False)]
    for run in bench["runs"]:
        assert run["result"]["correct"] and run["env"]["seed"] == run["seed"]
        assert (trees[run["side"]] / "src" / "adaptir" / "__pycache__").is_dir()
    entry = bench["summary"]["eval-methods"]
    assert entry["failed_runs"] == entry["failed_ops"] == {"parent": 0, "change": 0}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in spec["end_to_end"]:
        m = entry["metrics"][metric["name"]]
        assert (m["unit"], m["better"], m["pairs"]) == (metric["unit"], metric["better"], 2)
        assert 0 <= m["change_won"] <= 2 and isinstance(m["apart"], bool)
        for side in ab.SIDES:
            stats = m[side]
            assert stats["n"] == 2 and stats["q1"] <= stats["median"] <= stats["q3"]
            assert all(math.isfinite(v) for v in stats.values())


def test_the_summary_counts_the_pairs_the_change_won():
    ab = load_ab()

    def run(pair, side, value):
        return {"pair": pair, "workload": "w", "side": side,
                "result": {"correct": True, "failed": 0,
                           "metrics": {"m": {"value": value, "unit": "s"}}}}

    runs = [run(1, "parent", 3.0), run(1, "change", 2.0), run(2, "parent", 3.0),
            run(2, "change", 4.0), run(3, "parent", 3.0), run(3, "change", 1.0),
            {"pair": 4, "workload": "w", "side": "parent", "result": None}]
    entry = ab.summarize(runs, {"m": ("s", "lower")})["w"]
    assert entry["failed_runs"] == {"parent": 1, "change": 0}
    m = entry["metrics"]["m"]
    assert (m["pairs"], m["change_won"], m["apart"]) == (3, 2, True)
    assert m["parent"]["median"] == 3.0 and m["change"]["median"] == 2.0
    higher = ab.summarize(runs, {"m": ("s", "higher")})["w"]["metrics"]["m"]
    assert higher["change_won"] == 1
    # equal values give equal quartiles: extrapolating quartiles (the
    # statistics module's default) put q3 an ulp below this median
    value = 56.66351263852826
    assert ab.quartiles([value, value]) == {
        "median": value, "q1": value, "q3": value, "spread": 0.0, "n": 2}


def test_a_tiny_same_process_a_a_gives_finite_ratios(tmp_path):
    ab = load_ab()
    trees = {side: ab.copy_working_tree(tmp_path / side) for side in ab.SIDES}
    packages = ab.load_packages(trees, tmp_path / "packages")
    try:
        assert {side: pkg.__name__ for side, pkg in packages.items()} == {
            "parent": "adaptir_parent", "change": "adaptir_change",
            "control": "adaptir_control"}
        # each side runs its own copy of the code
        assert len({pkg.tensor.Tensor for pkg in packages.values()}) == 3
        lines = []
        result = ab.step_ab(packages, rounds=2, batch=2, log=lines.append,
                            host={"embed": 32, "layers": 1, "heads": 2, "mlp_ratio": 1})
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in
                     {pkg.__name__ for pkg in packages.values()}]:
            del sys.modules[name]
    assert lines == ["round 1/2", "round 2/2"]
    assert set(result) == set(ab.STEP_TASKS)
    for m in result.values():
        assert all(m["median_s"][side] > 0 for side in ab.SIDES)
        for stats in (m["ratio"], m["control"]):
            assert stats["n"] == 2 and stats["q1"] <= stats["median"] <= stats["q3"]
            assert all(math.isfinite(v) for v in stats.values())
        assert isinstance(m["outside_control"], bool)
    assert "change/parent" in ab.render_steps(result)
