"""Command-line contracts: artifact sets, byte-identical reruns, config
validation, nonzero exits on contract failure."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from adaptir import cli, host, pipeline, serialize
from adaptir.cli import main
from adaptir.data import derive_seed, degrade, parse_task, save_ppm, synth_image
from adaptir.tensor import Tensor, no_grad


TINY_HOST = """\
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

# TINY_HOST without its host.* keys: the run settings of a command that loads
# a host checkpoint, which takes the host's shape from the checkpoint
TINY_RUN = "".join(line + "\n" for line in TINY_HOST.splitlines()
                   if not line.startswith("host."))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One pretrained tiny host shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "tiny.cfg").write_text(TINY_HOST, encoding="utf-8")
    runner = CliRunner()
    res = runner.invoke(main, ["pretrain", "--config", str(root / "tiny.cfg"),
                               "--out", str(root / "host"), "--epochs", "2",
                               "--seed", "1"])
    assert res.exit_code == 0, res.output
    return root


def invoke(args):
    return CliRunner().invoke(main, [str(a) for a in args])


def test_pretrain_writes_three_artifacts(workspace):
    out = workspace / "host"
    assert (out / "host.ckpt").is_file()
    assert (out / "pretrain_log.csv").is_file()
    assert (out / "resolved.cfg").is_file()
    log = (out / "pretrain_log.csv").read_text(encoding="utf-8")
    assert log.splitlines()[0] == "epoch,task,loss"
    resolved = (out / "resolved.cfg").read_text(encoding="utf-8")
    assert "host.embed=16" in resolved
    assert "seed=1" in resolved


def test_pretrain_same_seed_is_byte_identical(workspace):
    res = invoke(["pretrain", "--config", workspace / "tiny.cfg",
                  "--out", workspace / "host2", "--epochs", 2, "--seed", 1])
    assert res.exit_code == 0, res.output
    a = (workspace / "host" / "host.ckpt").read_bytes()
    b = (workspace / "host2" / "host.ckpt").read_bytes()
    assert a == b


def test_pretrain_creates_missing_nested_out_dir(workspace):
    res = invoke(["pretrain", "--config", workspace / "tiny.cfg",
                  "--out", workspace / "deep" / "nested" / "dir",
                  "--epochs", 1, "--seed", 2])
    assert res.exit_code == 0, res.output
    assert (workspace / "deep" / "nested" / "dir" / "host.ckpt").is_file()


def write_ft_cfg(workspace, name="ft.cfg"):
    path = workspace / name
    path.write_text(TINY_HOST + f"host_checkpoint={workspace}/host/host.ckpt\n",
                    encoding="utf-8")
    return path


def test_finetune_artifacts_and_freeze_report(workspace):
    cfg = write_ft_cfg(workspace)
    res = invoke(["finetune", "--config", cfg, "--out", workspace / "ft",
                  "--seed", 3, "--epochs", 2, "--method", "adaptir",
                  "--task", "second_order_s2_sig25"])
    assert res.exit_code == 0, res.output
    out = workspace / "ft"
    assert (out / "adapter.ckpt").is_file()
    assert (out / "report.csv").is_file()
    assert (out / "sample0_pred.ppm").is_file()
    header = (out / "report.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "label,task,psnr,ssim,trainable_params,total_params,steps"
    # freeze contract surfaced on stdout with matching checksums
    lines = [l for l in res.output.splitlines() if "checksum" in l]
    assert len(lines) == 2
    assert lines[0].split()[-1] == lines[1].split()[-1]


def test_finetune_rerun_is_byte_identical(workspace):
    cfg = write_ft_cfg(workspace)
    for out in ("ftA", "ftB"):
        res = invoke(["finetune", "--config", cfg, "--out", workspace / out,
                      "--seed", 4, "--epochs", 1, "--method", "lora",
                      "--task", "sr2"])
        assert res.exit_code == 0, res.output
    # resolved.cfg differs only by the out path; everything else matches
    for name in ("adapter.ckpt", "report.csv", "sample0_pred.ppm"):
        assert ((workspace / "ftA" / name).read_bytes()
                == (workspace / "ftB" / name).read_bytes()), name
    ra = [l for l in (workspace / "ftA" / "resolved.cfg").read_text().splitlines()
          if not l.startswith("out=")]
    rb = [l for l in (workspace / "ftB" / "resolved.cfg").read_text().splitlines()
          if not l.startswith("out=")]
    assert ra == rb


def test_finetune_takes_the_host_shape_from_its_checkpoint(workspace):
    # used to fail with "adapter channels 64 != host embed 16" unless the
    # config restated host.embed=16, and to leave --out behind
    path = workspace / "no_host_keys.cfg"
    path.write_text(TINY_RUN + f"host_checkpoint={workspace}/host/host.ckpt\n",
                    encoding="utf-8")
    outs = {"no_host_keys": path, "host_keys": write_ft_cfg(workspace)}
    for out, cfg in outs.items():
        res = invoke(["finetune", "--config", cfg, "--out", workspace / out,
                      "--seed", 3, "--epochs", 1, "--task", "sr2"])
        assert res.exit_code == 0, res.output
    resolved = (workspace / "no_host_keys" / "resolved.cfg").read_text(encoding="utf-8")
    assert {"host.embed=16", "host.layers=2", "host.heads=2",
            "host.tasks=sr2,noise25"} <= set(resolved.splitlines())
    for name in ("adapter.ckpt", "report.csv"):
        assert ((workspace / "no_host_keys" / name).read_bytes()
                == (workspace / "host_keys" / name).read_bytes()), name


def test_finetune_missing_host_checkpoint_fails(workspace):
    res = invoke(["finetune", "--config", workspace / "tiny.cfg",
                  "--out", workspace / "nohost", "--method", "adaptir"])
    assert res.exit_code != 0
    assert "not found" in res.output


def test_eval_uses_saved_adapter(workspace):
    cfg = workspace / "ev.cfg"
    cfg.write_text(TINY_HOST + f"host_checkpoint={workspace}/host/host.ckpt\n"
                   f"adapter_checkpoint={workspace}/ft/adapter.ckpt\n",
                   encoding="utf-8")
    res = invoke(["eval", "--config", cfg, "--out", workspace / "ev",
                  "--seed", 3, "--task", "second_order_s2_sig25"])
    assert res.exit_code == 0, res.output
    # must reproduce the finetune run's final PSNR (same eval stream)
    report = (workspace / "ft" / "report.csv").read_text(encoding="utf-8")
    ft_psnr = float(report.splitlines()[1].split(",")[2])
    shown = float(res.output.split("psnr")[1].split("dB")[0])
    assert abs(shown - ft_psnr) < 5e-4


@pytest.fixture(scope="module")
def three_layer_host(workspace):
    """The workspace host's config and seed with one more transformer layer."""
    path = workspace / "host3.cfg"
    path.write_text(TINY_HOST + "host.layers=3\n", encoding="utf-8")
    res = invoke(["pretrain", "--config", path, "--out", workspace / "host3",
                  "--epochs", 1, "--seed", 1])
    assert res.exit_code == 0, res.output
    return workspace / "host3" / "host.ckpt"


@pytest.mark.parametrize("method,saved_layers,loaded_layers", [
    ("lora", 2, 3),     # used to end in an IndexError traceback
    ("adaptir", 3, 2),  # used to run on 2 of the 3 adapted layers
])
def test_eval_rejects_adapter_saved_for_another_host(workspace, three_layer_host, method,
                                                     saved_layers, loaded_layers):
    hosts = {2: workspace / "host" / "host.ckpt", 3: three_layer_host}
    out = workspace / f"other_host_{method}"
    ft = workspace / "other_host_ft.cfg"
    ft.write_text(TINY_RUN + f"host_checkpoint={hosts[saved_layers]}\n", encoding="utf-8")
    res = invoke(["finetune", "--config", ft, "--out", out / "ft", "--method", method,
                  "--epochs", 1, "--task", "sr2", "--seed", 3])
    assert res.exit_code == 0, res.output
    ev = workspace / "other_host_ev.cfg"
    ev.write_text(TINY_RUN + f"host_checkpoint={hosts[loaded_layers]}\n"
                  f"adapter_checkpoint={out / 'ft' / 'adapter.ckpt'}\n", encoding="utf-8")
    res = invoke(["eval", "--config", ev, "--out", out / "ev", "--task", "sr2"])
    assert_one_line_error(res, "adapter saved for a different host (saved vs loaded:"
                               f" layers {saved_layers} vs {loaded_layers})")
    assert not (out / "ev" / "report.csv").exists()


def test_unknown_config_key_rejected(workspace):
    bad = workspace / "bad.cfg"
    bad.write_text("not_a_key=1\n", encoding="utf-8")
    res = invoke(["eval", "--config", bad, "--out", workspace / "bad"])
    assert res.exit_code != 0
    assert "unknown key" in res.output


def test_malformed_config_line_rejected(workspace):
    bad = workspace / "malformed.cfg"
    bad.write_text("seed 4\n", encoding="utf-8")
    res = invoke(["pretrain", "--config", bad, "--out", workspace / "bad2"])
    assert res.exit_code != 0
    assert "key=value" in res.output


def test_gradcheck_passes_and_prints_table():
    res = invoke(["gradcheck"])
    assert res.exit_code == 0, res.output
    assert "up_w" in res.output
    assert "FAIL" not in res.output
    assert "all parameter groups pass" in res.output


def test_a_run_needs_no_scipy(tmp_path):
    # numpy and click are the only runtime dependencies: with scipy made
    # unimportable, a pretrain that runs gelu in every forward still works
    (tmp_path / "tiny.cfg").write_text(TINY_HOST, encoding="utf-8")
    script = ("import sys; sys.modules['scipy'] = None\n"
              "from adaptir.cli import main\n"
              "main(sys.argv[1:])")
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    args = ["pretrain", "--config", tmp_path / "tiny.cfg", "--out", tmp_path / "host",
            "--epochs", "1", "--seed", "1"]
    res = subprocess.run([sys.executable, "-c", script, *args],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr
    assert (tmp_path / "host" / "host.ckpt").is_file()


def test_paramcount_lists_methods(workspace):
    res = invoke(["paramcount", "--config", workspace / "tiny.cfg"])
    assert res.exit_code == 0, res.output
    for token in ("host total:", "adaptir", "lora", "bottleneck", "ratio"):
        assert token in res.output


def test_ablate_emits_axis_table(workspace):
    cfg = write_ft_cfg(workspace)
    res = invoke(["ablate", "--config", cfg, "--out", workspace / "ab",
                  "--seed", 5, "--epochs", 1, "--axes", "components",
                  "--task", "sr2"])
    assert res.exit_code == 0, res.output
    table = (workspace / "ab" / "ablation_components.csv").read_text(encoding="utf-8")
    rows = table.splitlines()
    assert len(rows) == 5  # header + 4 component subsets
    assert rows[1].startswith("csm,")
    assert rows[4].startswith("lim+fam+csm,")


def test_ablate_unknown_axis_fails(workspace):
    cfg = write_ft_cfg(workspace)
    res = invoke(["ablate", "--config", cfg, "--out", workspace / "abx",
                  "--axes", "nonsense"])
    assert res.exit_code != 0
    assert "axis" in res.output
    assert not (workspace / "abx").exists()


def assert_one_line_error(res, fragment, kind="ConfigError"):
    assert res.exit_code != 0
    assert "Traceback" not in res.output
    lines = res.output.strip().splitlines()
    assert len(lines) == 1, res.output
    assert f"{kind}:" in lines[0] and fragment in lines[0], res.output
    return lines[0]


def test_finetune_unregistered_scale_is_config_error(workspace):
    # the tiny host serves sr2 and noise25 only; nothing has scale 3
    cfg = write_ft_cfg(workspace)
    res = invoke(["finetune", "--config", cfg, "--out", workspace / "sr3",
                  "--epochs", 1, "--task", "sr3"])
    assert_one_line_error(res, "no registered task has scale 3")
    assert not (workspace / "sr3").exists()


@pytest.mark.parametrize("extra,fragment", [
    ("batch_size=0", "batch_size must be >= 1"),
    ("batch_size=16", "batch_size 16 exceeds images 8"),
])
def test_bad_batch_size_rejected(workspace, extra, fragment):
    path = workspace / "badbatch.cfg"
    path.write_text(write_ft_cfg(workspace).read_text(encoding="utf-8") + extra + "\n",
                    encoding="utf-8")
    res = invoke(["finetune", "--config", path, "--out", workspace / "badbatch",
                  "--epochs", 1, "--task", "sr2"])
    assert_one_line_error(res, fragment)
    assert not (workspace / "badbatch").exists()


@pytest.mark.parametrize("key", ["embed", "layers", "heads", "mlp_ratio"])
def test_host_sizes_below_one_rejected(workspace, key):
    path = workspace / "badhost.cfg"
    path.write_text(TINY_HOST + f"host.{key}=0\n", encoding="utf-8")
    res = invoke(["pretrain", "--config", path, "--out", workspace / "badhost",
                  "--epochs", 1])
    assert_one_line_error(res, f"HostConfig: {key} must be >= 1, got 0")
    assert not (workspace / "badhost").exists()


@pytest.mark.parametrize("extra,fragment", [
    ("base_lr=0", "TrainConfig: base_lr must be > 0, got 0.0"),
    ("base_lr=-1", "TrainConfig: base_lr must be > 0, got -1.0"),
    ("weight_decay=-5", "TrainConfig: weight_decay must be >= 0, got -5.0"),
    ("dump_images=-1", "dump_images must be >= 0, got -1"),
    ("base_lr=inf", "TrainConfig: base_lr must be finite, got inf"),
])
def test_bad_recipe_rejected(workspace, extra, fragment):
    path = workspace / "badrecipe.cfg"
    path.write_text(write_ft_cfg(workspace).read_text(encoding="utf-8") + extra + "\n",
                    encoding="utf-8")
    res = invoke(["finetune", "--config", path, "--out", workspace / "badrecipe",
                  "--epochs", 1, "--task", "sr2"])
    assert_one_line_error(res, fragment)
    assert not (workspace / "badrecipe").exists()


@pytest.mark.parametrize("line,kind", [("epochs=abc", "int"), ("base_lr=fast", "float"),
                                       ("host.layers=1.5", "int")])
def test_unparsable_value_names_file_line_and_key(workspace, line, kind):
    path = workspace / "unparsable.cfg"
    path.write_text(f"seed=1\n{line}\n", encoding="utf-8")
    res = invoke(["pretrain", "--config", path, "--out", workspace / "unparsable"])
    key, _, value = line.partition("=")
    message = assert_one_line_error(res, f"{path}:2: {key} expects {kind}, got {value!r}")
    assert message == f"Error: ConfigError: {path}:2: {key} expects {kind}, got {value!r}"


def test_readme_lists_exactly_the_config_keys():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").split("## Config keys", 1)[1]
    rows = re.findall(r"^\| `([\w.]+)=([^`]*)` \|", text, re.MULTILINE)
    shown = dict(rows)
    assert len(rows) == len(shown) == 24
    assert shown == {key: (",".join(d) if isinstance(d, tuple) else str(d))
                     for key, d in cli._KEYS.items()}


def test_ablate_honours_insertion_keys(workspace):
    """The configured insertion site reaches every row of the components axis."""
    base = write_ft_cfg(workspace).read_text(encoding="utf-8")
    tables = []
    for name, extra in (("abmlp", ""), ("abattn", "insertion.position=attention\n")):
        path = workspace / f"{name}.cfg"
        path.write_text(base + extra, encoding="utf-8")
        res = invoke(["ablate", "--config", path, "--out", workspace / name,
                      "--seed", 5, "--epochs", 1, "--axes", "components", "--task", "sr2"])
        assert res.exit_code == 0, res.output
        tables.append((workspace / name / "ablation_components.csv").read_bytes())
    assert tables[0] != tables[1]


@pytest.mark.parametrize("method", ["adaptir", "lora"])
@pytest.mark.parametrize("extra,fragment", [
    ("insertion.position=ffn", "unknown insertion position 'ffn'"),
    ("insertion.form=serial", "unknown insertion form 'serial'"),
])
def test_unknown_insertion_rejected(workspace, method, extra, fragment):
    path = workspace / "badins.cfg"
    path.write_text(write_ft_cfg(workspace).read_text(encoding="utf-8") + extra + "\n",
                    encoding="utf-8")
    res = invoke(["finetune", "--config", path, "--out", workspace / "badins",
                  "--method", method, "--epochs", 1, "--task", "sr2"])
    assert_one_line_error(res, fragment)
    assert not (workspace / "badins").exists()


def test_pretrain_without_tasks_rejected(workspace):
    path = workspace / "notasks.cfg"
    path.write_text(TINY_HOST + "host.tasks=\n", encoding="utf-8")
    res = invoke(["pretrain", "--config", path, "--out", workspace / "notasks",
                  "--epochs", 1])
    assert_one_line_error(res, "at least one task is required")


def test_pretrain_duplicate_task_rejected(workspace):
    # used to train and draw the sr2 head twice and save tasks ["sr2", "sr2"]
    for tasks in ("sr2,noise25,sr2", "sr2,sr2"):
        path = workspace / "duptasks.cfg"
        path.write_text(TINY_HOST + f"host.tasks={tasks}\n", encoding="utf-8")
        res = invoke(["pretrain", "--config", path, "--out", workspace / "duptasks",
                      "--epochs", 1])
        assert res.exit_code == 1
        assert_one_line_error(res, "HostConfig: task 'sr2' is listed more than once")
        assert not (workspace / "duptasks").exists()


STALE_HOST_KEYS = "host.layers=7\nhost.heads=1\nhost.tasks=sr3\n"


@pytest.mark.parametrize("command,extra,fragment,kind", [
    ("eval", "host_checkpoint={ws}/truncated.ckpt\n", "truncated checkpoint", "ValueError"),
    # used to read the declared 4 TiB field and end in a MemoryError traceback
    ("eval", "host_checkpoint={ws}/huge.ckpt\n", "truncated checkpoint: field w",
     "ValueError"),
    ("finetune", "host_checkpoint={ws}/host/host.ckpt\nmethod=prefix\n",
     "unknown method 'prefix'", "ConfigError"),
    # host.* keys that disagree with the loaded host used to be recorded as its shape
    *[(command, "host_checkpoint={ws}/host/host.ckpt\n" + STALE_HOST_KEYS,
       "(saved vs loaded: layers 7 vs 2, heads 1 vs 2, tasks ('sr3',) vs ('sr2', 'noise25'))",
       "ConfigError") for command in ("finetune", "eval", "ablate")],
    # a second spelling of a task used to be evaluated on other images
    ("eval", "host_checkpoint={ws}/host/host.ckpt\ntask=noise.5\n",
     "task 'noise.5' is not canonical; write 'noise0.5'", "ValueError"),
    ("finetune", "host_checkpoint={ws}/host/host.ckpt\ntask=sr02\n",
     "task 'sr02' is not canonical; write 'sr2'", "ValueError"),
    # a spec that degrades like another id used to run under its own
    ("eval", "host_checkpoint={ws}/host/host.ckpt\ntask=sr1\n",
     "task 'sr1' is not canonical; write 'noise0'", "ValueError"),
    # with no host to read, used to be reported as the missing host.ckpt
    ("eval", "task=sr1\n", "task 'sr1' is not canonical; write 'noise0'", "ValueError"),
    # pretrain used to end in numpy's "expected non-negative integer", and
    # finetune used to run
    ("pretrain", "seed=-1\n", "TrainConfig: seed must be >= 0, got -1", "ConfigError"),
    ("finetune", "host_checkpoint={ws}/host/host.ckpt\nseed=-1\n",
     "TrainConfig: seed must be >= 0, got -1", "ConfigError"),
    # a NaN weight used to end in "ssim nan outside [0, 1]" after --out was written
    *[(command, "host_checkpoint={ws}/nan.ckpt\n",
       "nan.ckpt: checkpoint field body.0.wq holds NaN or infinity", "ValueError")
      for command in ("eval", "finetune")],
    ("pretrain", "host.heads=3\n", "HostConfig: embed 16 not divisible by heads 3",
     "ConfigError"),
])
def test_refused_inputs_leave_no_out_dir(workspace, tmp_path, command, extra, fragment,
                                         kind):
    # used to create --out and write resolved.cfg before the inputs were checked
    host = (workspace / "host" / "host.ckpt").read_bytes()
    (workspace / "truncated.ckpt").write_bytes(host[:-4])
    model = pipeline.load_host(workspace / "host" / "host.ckpt")
    model.params["body.0.wq"].data[0, 0] = np.nan
    pipeline.save_host(workspace / "nan.ckpt", model)
    (workspace / "huge.ckpt").write_bytes(
        b'{"config": {}, "fields": [{"name": "w", "shape": [1099511627776]}],'
        b' "kind": "host"}\n' + bytes(16))
    path = workspace / "refused.cfg"
    path.write_text(TINY_HOST + extra.format(ws=workspace), encoding="utf-8")
    out = tmp_path / "refused"  # its own per row: one row's leftover fails no other
    res = invoke([command, "--config", path, "--out", out])
    assert res.exit_code == 1
    assert_one_line_error(res, fragment, kind=kind)
    assert not out.exists()


# one input per command that the library refuses
REFUSED_BY_COMMAND = {
    "pretrain": ["--seed", "-1"],
    "finetune": ["--seed", "-1"],
    "eval": ["--seed", "-1"],
    "gradcheck": ["--seed", "-1"],  # used to end in a traceback
    "paramcount": ["--seed", "-1"],
    "ablate": ["--axes", "nonsense"],
}


def test_every_command_ends_a_refusal_in_one_line(tmp_path):
    assert set(REFUSED_BY_COMMAND) == set(main.commands)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    for command, args in REFUSED_BY_COMMAND.items():
        out = tmp_path / command
        outs = [] if command == "gradcheck" else ["--out", str(out)]
        res = subprocess.run([sys.executable, "-m", "adaptir.cli", command, *args, *outs],
                             capture_output=True, text=True, env=env, timeout=120)
        text = res.stdout + res.stderr
        assert res.returncode == 1, (command, text)
        assert "Traceback" not in text, (command, text)
        assert re.fullmatch(r"Error: \w+: [^\n]+\n", text), (command, text)
        assert not out.exists(), command


def with_first_field_twice(ckpt: bytes) -> bytes:
    """``ckpt`` with its first field declared again at the end, bytes and all."""
    head, _, body = ckpt.partition(b"\n")
    header = json.loads(head)
    first = header["fields"][0]
    header["fields"].append(first)
    return (json.dumps(header).encode() + b"\n" + body
            + body[:4 * int(np.prod(first["shape"]))])


@pytest.mark.parametrize("name,content,fragment", [
    # each used to name neither checkpoint
    ("cut", lambda ckpt: ckpt[:40] + b"\n",
     "corrupt checkpoint: the header is not UTF-8 JSON ("),
    ("latin1", lambda ckpt: b"\xff" + ckpt,
     "corrupt checkpoint: the header is not UTF-8 JSON ('utf-8' codec"),
    ("nested", lambda ckpt: b"[" * 100_000 + b"\n",
     "corrupt checkpoint: the header is not UTF-8 JSON (maximum recursion depth"),
    # used to read the whole file as its header
    ("no_newline", lambda ckpt: b"x" * serialize.MAX_HEADER_BYTES,
     f"corrupt checkpoint: no header line within {serialize.MAX_HEADER_BYTES} bytes"),
    # used to say "expected a adapter checkpoint"
    ("host_as_adapter", lambda ckpt: ckpt, "expected an adapter checkpoint, got kind 'host'"),
    # used to load, keeping the second copy's bytes
    ("duplicate", with_first_field_twice,
     "corrupt checkpoint: field head.sr2.conv1_w is declared twice"),
])
def test_checkpoint_refusals_name_the_file_once(workspace, name, content, fragment):
    # eval reads two checkpoints: its error line says which one it refused
    path = workspace / f"{name}.ckpt"
    path.write_bytes(content((workspace / "host" / "host.ckpt").read_bytes()))
    cfg = workspace / "named.cfg"
    cfg.write_text(TINY_RUN + f"host_checkpoint={workspace}/host/host.ckpt\n"
                   f"adapter_checkpoint={path}\n", encoding="utf-8")
    out = workspace / f"named_{name}"
    res = invoke(["eval", "--config", cfg, "--out", out])
    line = assert_one_line_error(res, f"{path}: {fragment}",
                                 kind="ConfigError" if name == "host_as_adapter" else "ValueError")
    assert line.count(str(path)) == 1
    assert not out.exists()


def test_non_utf8_config_file_names_the_file(workspace):
    # used to be "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff ..."
    path = workspace / "latin1.cfg"
    path.write_bytes(b"\xffseed=1\n")
    res = invoke(["pretrain", "--config", path, "--out", workspace / "latin1"])
    assert_one_line_error(res, f"{path}: not UTF-8 text (invalid start byte at byte 0)")
    assert not (workspace / "latin1").exists()


def test_gradcheck_failure_names_the_worst_group(monkeypatch):
    monkeypatch.setattr(pipeline, "gradcheck", lambda seed: [
        ("down_w", 2e-6, True), ("lim_u", 3e-3, False), ("up_w", 5e-4, False)])
    res = invoke(["gradcheck"])
    assert res.exit_code == 1
    assert "Traceback" not in res.output
    errors = [l for l in res.output.splitlines() if l.startswith("Error:")]
    assert errors == ["Error: gradient check failed: lim_u rel err 3.000e-03 > 1e-04"]
    assert res.output.count("FAIL") == 2


@pytest.mark.parametrize("command,extra,out,kind", [
    ("eval", "", "{ws}/afile", "FileExistsError"),
    ("pretrain", "", "{ws}/afile/sub", "NotADirectoryError"),
    ("eval", "adapter_checkpoint={ws}\n", "{ws}/dir_adapter", "IsADirectoryError"),
])
def test_os_errors_are_one_line(workspace, command, extra, out, kind):
    # each used to end in a traceback
    (workspace / "afile").write_text("a file, not a directory\n", encoding="utf-8")
    path = workspace / "oserror.cfg"
    path.write_text(write_ft_cfg(workspace).read_text(encoding="utf-8")
                    + extra.format(ws=workspace), encoding="utf-8")
    res = invoke([command, "--config", path, "--out", out.format(ws=workspace)])
    assert res.exit_code == 1
    assert_one_line_error(res, "", kind=kind)
    assert res.output.startswith("Error: ")


@pytest.mark.parametrize("command", ["paramcount", "pretrain"])
def test_a_failed_allocation_is_one_line(workspace, monkeypatch, command):
    # host.embed=400000 asks for a 10.5 TiB weight; that used to end in a
    # traceback.  The allocation is refused here rather than attempted, as a
    # system that overcommits memory might grant it
    def refuse(rng, shape, fan_in, dtype):
        raise MemoryError(f"Unable to allocate 10.5 TiB for an array with shape {shape}")

    monkeypatch.setattr(host, "_uniform", refuse)
    path = workspace / "huge_host.cfg"
    path.write_text(TINY_HOST.replace("host.embed=16", "host.embed=400000"),
                    encoding="utf-8")
    res = invoke([command, "--config", path, "--out", workspace / f"huge_{command}"])
    assert res.exit_code == 1
    line = assert_one_line_error(res, "Unable to allocate 10.5 TiB", kind="MemoryError")
    assert line.startswith("Error: MemoryError: ")


def test_a_corpus_that_cannot_fit_is_one_line(workspace):
    # the corpus used to grow image by image until memory ran out; as one
    # (images, 3, size, size) array it fails at its first allocation
    path = workspace / "huge_corpus.cfg"
    path.write_text(TINY_HOST.replace("images=8", f"images={10**12}"), encoding="utf-8")
    res = invoke(["pretrain", "--config", path, "--out", workspace / "huge_corpus"])
    line = assert_one_line_error(res, "Unable to allocate", kind="MemoryError")
    assert line.startswith("Error: MemoryError: ")


def test_pretrain_failing_to_build_its_host_leaves_no_out_dir(workspace, monkeypatch):
    # the host used to be built after --out and resolved.cfg were written
    def refuse(self):
        raise MemoryError("Unable to allocate 10.5 TiB for an array")

    monkeypatch.setattr(host.HostModel, "_init_params", refuse)
    out = workspace / "unbuilt_host"
    res = invoke(["pretrain", "--config", workspace / "tiny.cfg", "--out", out])
    assert res.exit_code == 1
    line = assert_one_line_error(res, "Unable to allocate 10.5 TiB", kind="MemoryError")
    assert line.startswith("Error: MemoryError: ")
    assert not out.exists()


def test_finetune_host_moved_writes_no_artifacts(workspace, monkeypatch):
    fit = cli.P._fit

    def moving_fit(model, *args):
        out = fit(model, *args)
        w = model.params["body.0.wq"]
        w.data = w.data + np.float32(1e-3)
        return out

    monkeypatch.setattr(cli.P, "_fit", moving_fit)
    out = workspace / "moved"
    res = invoke(["finetune", "--config", write_ft_cfg(workspace), "--out", out,
                  "--epochs", 1, "--task", "sr2"])
    assert res.exit_code == 1
    assert_one_line_error(res, "freeze contract violated", kind="ContractError")
    assert not (out / "adapter.ckpt").exists()
    assert not (out / "report.csv").exists()


def test_ablate_honours_batch_size(workspace):
    path = workspace / "ab4.cfg"
    path.write_text(write_ft_cfg(workspace).read_text(encoding="utf-8") + "batch_size=4\n",
                    encoding="utf-8")
    res = invoke(["ablate", "--config", path, "--out", workspace / "ab4",
                  "--seed", 5, "--epochs", 1, "--axes", "components", "--task", "sr2"])
    assert res.exit_code == 0, res.output
    rows = (workspace / "ab4" / "ablation_components.csv").read_text(
        encoding="utf-8").splitlines()
    assert rows[0].endswith(",steps")
    # 8 images in batches of 4 for one epoch
    assert [r.split(",")[-1] for r in rows[1:]] == ["2"] * 4


def invoke_recording_warnings(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = invoke(args)
    return res, [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_pretrain_divergence_stops_at_first_bad_step(workspace):
    # step 1 at lr 1e6 moves every weight by ~1e6; step 2 overflows
    path = workspace / "diverge.cfg"
    path.write_text(TINY_HOST + "base_lr=1e6\n", encoding="utf-8")
    out = workspace / "diverged_host"
    res, runtime_warnings = invoke_recording_warnings(
        ["pretrain", "--config", path, "--out", out, "--epochs", 3, "--seed", 1])
    assert runtime_warnings == []  # the ContractError line is the whole report
    assert_one_line_error(res, "non-finite after step 2 (epoch 0)", kind="ContractError")
    assert not (out / "host.ckpt").exists()
    assert not (out / "pretrain_log.csv").exists()


def test_finetune_divergence_stops_at_first_bad_step(workspace):
    path = workspace / "diverge_ft.cfg"
    path.write_text(write_ft_cfg(workspace).read_text(encoding="utf-8") + "base_lr=1e6\n",
                    encoding="utf-8")
    out = workspace / "diverged_ft"
    res, runtime_warnings = invoke_recording_warnings(
        ["finetune", "--config", path, "--out", out, "--epochs", 10,
         "--task", "sr2", "--seed", 1])
    assert runtime_warnings == []
    line = assert_one_line_error(res, "training diverged", kind="ContractError")
    step, epoch = map(int, re.search(r"after step (\d+) \(epoch (\d+)\)", line).groups())
    assert step == epoch + 1 < 10  # one step per epoch, stopped before the end
    assert not (out / "report.csv").exists()
    assert not (out / "adapter.ckpt").exists()


def test_finetune_honours_weight_decay(workspace):
    base = write_ft_cfg(workspace).read_text(encoding="utf-8")
    ckpts = []
    for wd in ("0", "0.5"):
        path = workspace / f"wd{wd}.cfg"
        path.write_text(base + f"weight_decay={wd}\n", encoding="utf-8")
        res = invoke(["finetune", "--config", path, "--out", workspace / f"wd{wd}",
                      "--seed", 3, "--epochs", 2, "--task", "sr2"])
        assert res.exit_code == 0, res.output
        ckpts.append((workspace / f"wd{wd}" / "adapter.ckpt").read_bytes())
    assert ckpts[0] != ckpts[1]


def test_eval_runs_one_host_forward_per_held_out_image(workspace, monkeypatch):
    # the qualitative dump used to re-run the host on its images after evaluate
    calls = []

    def counted(original):
        def host_forward(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)
        return host_forward

    for owner in (host, pipeline, cli):
        monkeypatch.setattr(owner, "host_forward", counted(owner.host_forward))
    res = invoke(["eval", "--config", write_ft_cfg(workspace), "--out",
                  workspace / "ev_forwards", "--task", "noise25"])  # eval_n=2, dump_images=1
    assert res.exit_code == 0, res.output
    assert calls == ["noise25"] * 2
    assert (workspace / "ev_forwards" / "sample0_pred.ppm").is_file()


def dump_qualitative(out, model, adapter, task, seed, dump_images):
    """The CLI's former qualitative dump: its own loop over the held-out images."""
    spec = parse_task(task)
    for i in range(dump_images):
        hq = synth_image(derive_seed(seed, "eval", task, i), pipeline.LQ_SIZE * spec.scale)
        lq = degrade(hq, spec, derive_seed(seed, "eval-noise", i))
        with no_grad():
            pred = host.host_forward(Tensor(lq[None]), task, model, adapter=adapter)
        save_ppm(lq, out / f"sample{i}_lq.ppm")
        save_ppm(hq, out / f"sample{i}_hq.ppm")
        save_ppm(np.clip(pred.data[0], 0, 1).astype(np.float32), out / f"sample{i}_pred.ppm")


@pytest.mark.parametrize("command,task,dump_images", [
    ("finetune", "sr2", 2),    # the adapted host, dump_images == eval_n
    ("eval", "noise25", 3),    # the bare host, dump_images > eval_n
])
def test_samples_match_the_former_dump_byte_for_byte(workspace, tmp_path, command, task,
                                                     dump_images):
    path = workspace / f"samples_{command}.cfg"
    path.write_text(write_ft_cfg(workspace).read_text(encoding="utf-8")
                    + f"dump_images={dump_images}\nepochs=1\n", encoding="utf-8")
    out = workspace / f"samples_{command}"
    res = invoke([command, "--config", path, "--out", out, "--task", task, "--seed", 6])
    assert res.exit_code == 0, res.output
    model = pipeline.load_host(workspace / "host" / "host.ckpt")
    adapter = (pipeline.load_adapter(out / "adapter.ckpt", model.config)
               if command == "finetune" else None)
    dump_qualitative(tmp_path, model, adapter, task, 6, dump_images)
    expected = sorted(p.name for p in tmp_path.iterdir())
    assert len(expected) == 3 * dump_images
    assert sorted(p.name for p in out.glob("sample*.ppm")) == expected
    for name in expected:
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


@pytest.mark.parametrize("command,extra,artifacts", [
    ("eval", [], ["report.csv"]),
    ("finetune", ["--epochs", 1], ["report.csv", "adapter.ckpt"]),
], ids=["eval", "finetune"])
def test_dump_images_past_eval_n_leaves_the_report_alone(workspace, command, extra,
                                                         artifacts):
    written = []
    for dump in (5, 0):
        path = workspace / f"dump{dump}_{command}.cfg"
        path.write_text(write_ft_cfg(workspace).read_text(encoding="utf-8")
                        + f"dump_images={dump}\n", encoding="utf-8")  # eval_n=2
        out = workspace / f"dump{dump}_{command}"
        res = invoke([command, "--config", path, "--out", out, "--task", "sr2", *extra])
        assert res.exit_code == 0, res.output
        assert len(list(out.glob("sample*.ppm"))) == 3 * dump
        for i in range(dump):
            assert all((out / f"sample{i}_{kind}.ppm").is_file() for kind in ("lq", "hq", "pred"))
        written.append([(out / name).read_bytes() for name in artifacts])
    assert written[0] == written[1]


def traced_eval_peak(workspace, dump_images: int) -> int:
    """Peak traced bytes of a CLI ``eval`` of the tiny host on
    second_order_s2_sig25 (eval_n=2), after one untraced warm-up run."""
    path = workspace / f"peak{dump_images}.cfg"
    path.write_text(write_ft_cfg(workspace).read_text(encoding="utf-8")
                    + f"dump_images={dump_images}\n", encoding="utf-8")
    args = ["eval", "--config", path, "--out", workspace / f"peak{dump_images}",
            "--task", "second_order_s2_sig25"]
    assert invoke(args).exit_code == 0
    tracemalloc.start()
    try:
        res = invoke(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    return peak


def test_a_dump_of_any_size_holds_one_sample(workspace):
    # evaluate used to keep every dumped (lq, hq, pred) triple until its loop
    # ended, so dump_images=100000000 ran for minutes and wrote no sample
    spec = parse_task("second_order_s2_sig25")
    hq = synth_image(0, pipeline.LQ_SIZE * spec.scale)
    sample = degrade(hq, spec, 0).nbytes + 2 * hq.nbytes  # lq + hq + pred
    assert traced_eval_peak(workspace, 8) - traced_eval_peak(workspace, 1) < sample
