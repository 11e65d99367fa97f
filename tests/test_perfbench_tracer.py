"""The benchmark's tracer patches adaptir names where callers look them up
(``perfbench/tracer.py``).  Installing it here makes a refactor that renames
or removes one of those names fail in this suite, not only in the benchmark,
and one traced training step checks that its backward wrappers still run."""

import importlib.util
from pathlib import Path

from adaptir import baselines, fft, tensor
from adaptir import pipeline as P
from adaptir.host import HostConfig, HostModel

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer()
    sites = [(owner, attr) for pairs in tracer.LAYER_SPANS.values()
             for owner, attr in pairs]
    # the op-level patches: every traced op, both node constructors and erf
    sites += [(tensor, name) for name in tracer.OP_CATEGORY]
    sites += [(tensor, "_node"), (fft, "_node"), (tensor, "_erf")]
    originals = [owner.__dict__[attr] for owner, attr in sites]
    defaults = baselines.bottleneck_forward.__defaults__
    tr = tracer.Tracer()
    try:
        tr.install()
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr), orig in zip(sites, originals))
        # bottleneck_forward's default activation is the traced gelu
        assert baselines.bottleneck_forward.__defaults__ == (tensor.gelu,)
    finally:
        tr.uninstall()
    assert all(owner.__dict__[attr] is orig
               for (owner, attr), orig in zip(sites, originals))
    assert baselines.bottleneck_forward.__defaults__ is defaults


def test_traced_training_step_charges_backward_time():
    tracer = load_tracer()
    model = HostModel(HostConfig(embed=16, layers=2, heads=2, mlp_ratio=2,
                                 tasks=("noise25",)))
    train = P.TrainConfig(epochs=1, images=8, batch_size=8)
    runs = [P._train_run("noise25", 0, train.images)]
    tr = tracer.Tracer()
    try:
        tr.install()
        steps, _ = P._fit(model, None, runs, train)
    finally:
        tr.uninstall()
    assert steps == 1
    assert tr.counts["tensor.nodes"] > 0
    assert any(s > 0.0 for (_, phase), s in tr.self_s.items() if phase == "bwd")
    assert tr.negative_self == 0
