"""The benchmark's tracer patches adaptir names where callers look them up
(``perfbench/tracer.py``).  Installing it here makes a refactor that renames
or removes one of those names fail in this suite, not only in the benchmark."""

import importlib.util
from pathlib import Path

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
    originals = [owner.__dict__[attr] for owner, attr in sites]
    tr = tracer.Tracer()
    try:
        tr.install()
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr), orig in zip(sites, originals))
    finally:
        tr.uninstall()
    assert all(owner.__dict__[attr] is orig
               for (owner, attr), orig in zip(sites, originals))
