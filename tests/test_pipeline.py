"""Training pipeline: optimizer closed forms, schedule exactness, budget
equalizer, determinism, checkpoint round trips, gradient-audit teeth."""

import functools
import json
import re
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

from adaptir import fft as fft_mod
from adaptir import pipeline as P
from adaptir import tensor as tensor_mod
from adaptir.adapter import AdaptIRConfig, ConfigError
from adaptir.host import (METHODS, AdapterStack, HostConfig, HostModel, PETLMethod, freeze,
                          host_checksum)
from adaptir.serialize import MAX_HEADER_BYTES, load_checkpoint, save_checkpoint
from adaptir.tensor import ContractError, Tensor

TINY = HostConfig(embed=16, layers=2, heads=2,
                  tasks=("sr2", "noise25"), seed=0)
TINY_ADAPTER = AdaptIRConfig(channels=16, reduction=4, lim_rank=2, seed=0)


# -- loss and schedule --------------------------------------------------------


def test_l1_loss_matches_numpy():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 3, 4, 4)), rng.standard_normal((2, 3, 4, 4))
    loss = P.l1_loss(Tensor(a), Tensor(b))
    assert abs(loss.item() - np.abs(a - b).mean()) < 1e-12
    with pytest.raises(Exception):
        P.l1_loss(Tensor(a), Tensor(b[:, :, :2]))


def test_lr_schedule_reference_run():
    # 500-epoch run decays by half at epochs 250/400/450/475 exactly
    for epoch, expect in [(0, 1e-4), (249, 1e-4), (250, 5e-5), (399, 5e-5),
                          (400, 2.5e-5), (449, 2.5e-5), (450, 1.25e-5),
                          (474, 1.25e-5), (475, 6.25e-6), (499, 6.25e-6)]:
        assert P.lr_at(epoch, 1e-4, 500) == expect


def test_lr_schedule_shape_invariants():
    lrs = [P.lr_at(e, 1e-3, 50) for e in range(50)]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))  # non-increasing
    drops = sum(1 for a, b in zip(lrs, lrs[1:]) if b < a)
    assert drops == 4
    assert lrs[-1] == 1e-3 * 0.5 ** 4
    with pytest.raises(ValueError):
        P.lr_at(50, 1e-3, 50)


# -- AdamW ----------------------------------------------------------------------


def with_grads(params, grads):
    """``params`` with each ``grads[name]`` set as that param's ``grad``."""
    for name, g in grads.items():
        params[name].grad = g
    return params


def test_adamw_first_step_closed_form():
    # with lambda=0: step = lr * g / (|g| + eps) after bias correction
    g = np.array([0.5, -3.0, 1e-4])
    p = Tensor(np.array([1.0, -2.0, 0.3]))
    st = P.TrainState()
    P.adamw_step(st, with_grads({"p": p}, {"p": g}), lr=1e-3)
    expect = np.array([1.0, -2.0, 0.3]) - 1e-3 * g / (np.abs(g) + 1e-8)
    assert np.abs(p.data - expect).max() < 1e-12
    assert p.grad is None  # the step consumed its grad


def test_adamw_decoupled_weight_decay():
    # decay applies to the parameter directly, not through the moments
    p = Tensor(np.array([2.0]))
    st = P.TrainState()
    P.adamw_step(st, with_grads({"p": p}, {"p": np.array([0.0])}), lr=1e-2, weight_decay=0.1)
    assert abs(p.data[0] - (2.0 - 1e-2 * 0.1 * 2.0)) < 1e-12
    assert p.grad is None


def test_adamw_converges_on_quadratic():
    p = Tensor(np.array([5.0]))
    st = P.TrainState()
    for _ in range(400):
        g = 2.0 * (p.data - 3.0)
        P.adamw_step(st, with_grads({"p": p}, {"p": g}), lr=0.1)
        assert p.grad is None
    assert abs(p.data[0] - 3.0) < 1e-3
    assert st.step == 400


def test_adamw_skips_missing_grads():
    p = Tensor(np.array([1.0]))
    q = Tensor(np.array([2.0]))
    st = P.TrainState()
    P.adamw_step(st, with_grads({"p": p, "q": q}, {"p": np.array([1.0])}), lr=0.1)
    assert q.data[0] == 2.0
    assert "q" not in st.m  # moments exist only for stepped parameters
    assert p.grad is None and q.grad is None


def test_adamw_rejects_non_finite_update():
    p = Tensor(np.array([1.0, 2.0]))
    st = P.TrainState(epoch=2)
    with pytest.raises(ContractError, match=r"w non-finite after step 1 \(epoch 2\)"):
        P.adamw_step(st, with_grads({"w": p}, {"w": np.array([np.nan, 0.0])}), lr=0.1)
    assert np.array_equal(p.data, [1.0, 2.0])  # the parameter is left as it was


@pytest.mark.parametrize("grad,weight_decay,term", [
    (np.nan, 0.0, "the Adam step went non-finite; lower base_lr"),
    # a sane lr, but lr * weight_decay * p overflows float32
    (1.0, 1e300, "the weight decay term went non-finite; lower weight_decay"),
])
def test_adamw_divergence_names_the_term(grad, weight_decay, term):
    p = Tensor(np.array([1.0, 2.0], dtype=np.float32))
    st = P.TrainState()
    with pytest.raises(ContractError, match=f"w non-finite after step 1 \\(epoch 0\\); {term}$"), \
            np.errstate(over="ignore", invalid="ignore"):
        P.adamw_step(st, with_grads({"w": p}, {"w": np.full(2, grad, dtype=np.float32)}),
                     lr=2e-3, weight_decay=weight_decay)
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adamw_names_an_overflowed_weight():
    # a finite first Adam step of about -3e38 on a float32 weight of 3e38
    p = Tensor(np.full(2, 3e38, dtype=np.float32))
    with pytest.raises(ContractError, match=r"w non-finite after step 1 \(epoch 0\);"
                                            " the updated weight overflowed; lower base_lr$"), \
            np.errstate(over="ignore"):
        P.adamw_step(P.TrainState(), with_grads({"w": p}, {"w": np.full(2, -1.0, np.float32)}),
                     lr=3e38)
    assert np.array_equal(p.data, np.full(2, 3e38, np.float32))


def test_adamw_failure_writes_nothing():
    # "a" would update cleanly, "b" does not: neither parameter, grad nor the state moves
    a, b = Tensor(np.array([1.0])), Tensor(np.array([2.0]))
    st = P.TrainState()
    P.adamw_step(st, with_grads({"a": a, "b": b}, {"a": np.array([1.0]), "b": np.array([1.0])}),
                 lr=0.1)
    assert a.grad is None and b.grad is None

    def snapshot():
        return [a.data, b.data, st.m["a"], st.m["b"], st.v["a"], st.v["b"]]

    before = [x.copy() for x in snapshot()]
    grads = {"a": np.array([1.0]), "b": np.array([np.inf])}
    with pytest.raises(ContractError, match=r"b non-finite after step 2"), \
            np.errstate(invalid="ignore"):
        P.adamw_step(st, with_grads({"a": a, "b": b}, grads), lr=0.1)
    assert all(np.array_equal(x, y) for x, y in zip(before, snapshot()))
    assert a.grad is grads["a"] and b.grad is grads["b"]  # the grads are left as they were
    assert st.step == 1


# -- budget equalizer -----------------------------------------------------------


def test_baseline_budgets_within_five_percent():
    # default scale: ±5% holds outright
    full = HostConfig()
    target = P.build_adapter(full, "adaptir", AdaptIRConfig(channels=full.embed)).param_count()
    for method in ("lora", "bottleneck"):
        n = P.build_adapter(full, method, AdaptIRConfig(channels=full.embed)).param_count()
        assert abs(n - target) / target <= 0.05, (method, n, target)
    # tiny hosts: LoRA's rank granularity is 4*embed params, so the bound
    # is ±5% or half a granularity unit, whichever is looser
    target = P.build_adapter(TINY, "adaptir", adapter_config=TINY_ADAPTER).param_count()
    for method, grain in (("lora", 4 * TINY.embed), ("bottleneck", 2 * TINY.embed + 1)):
        n = P.build_adapter(TINY, method, adapter_config=TINY_ADAPTER).param_count()
        assert abs(n - target) <= max(0.05 * target, grain / 2), (method, n, target)


@pytest.mark.parametrize("method", ["lora", "bottleneck"])
def test_baselines_are_seeded_from_the_adapter_config(method):
    # build_adapter has no seed of its own: every method reads the config's
    config = replace(TINY_ADAPTER, seed=5)
    target = P.build_adapter(TINY, "adaptir", config).param_count()
    expected = METHODS[method].with_budget(TINY, target, seed=5).parameters()
    built = P.build_adapter(TINY, method, config).parameters()
    assert all(np.array_equal(built[k].data, v.data) for k, v in expected.items())
    seed0 = P.build_adapter(TINY, method, TINY_ADAPTER).parameters()
    assert not all(np.array_equal(seed0[k].data, v.data) for k, v in expected.items())


def test_build_adapter_rejects_unknown_method():
    with pytest.raises(ConfigError):
        P.build_adapter(TINY, "prompt_tuning", AdaptIRConfig(channels=TINY.embed))


# -- end-to-end determinism on a tiny host ---------------------------------------


@pytest.fixture(scope="module")
def tiny_frozen():
    model, log = P.pretrain(HostModel(TINY), P.TrainConfig(epochs=2, seed=11, images=8))
    return model, log


def traced_fit_peak(epochs: int) -> int:
    """Peak traced bytes of ``_fit`` pretraining a fresh tiny host."""
    model = HostModel(HostConfig(embed=16, layers=2, heads=2, mlp_ratio=2,
                                 tasks=("noise25",)))
    train = P.TrainConfig(epochs=epochs, images=8, batch_size=8)
    runs = [P._train_run("noise25", 0, train.images)]
    tracemalloc.start()
    try:
        P._fit(model, None, runs, train)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_steps_tape_does_not_outlive_the_step():
    # one step per epoch: a step that kept the previous step's graph alive
    # while building its own would peak with two tapes
    assert traced_fit_peak(3) <= 1.1 * traced_fit_peak(1)


def traced_step_peak(model: HostModel, adapter, task: str) -> int:
    """Peak traced bytes of one batch-8 training step's forward and backward."""
    train = P.TrainConfig(images=8)
    _, spec, corpus, seed = P._train_run(task, 0, train.images)
    lq, hq = next(P._epoch_batches(corpus, spec, seed, 0, train.batch_size))
    tracemalloc.start()
    try:
        P.l1_loss(P.host_forward(lq, task, model, adapter=adapter), hq).backward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_default_host_step_keeps_only_what_backward_reads():
    # a tape that keeps every intermediate, frozen-weight activations or the
    # attention probabilities peaks at ~108 MB (fine-tune) and ~132 MB (pretrain);
    # with whole-batch attention scores and gelu keeping x and Phi(x) it peaked
    # at 48 and 72 MB, with attention walking its batch one block at a time and
    # gelu keeping only its slope at 31.3 and 52.4 MB, and with conv2d keeping
    # its input in place of the batch's im2col columns and gelu forming Phi(x)
    # one block at a time at 27.8 and 42.9 MB (LoRA 30.4, bottlenecks 30.8).
    # With attention and its projections one node that keeps x, not q, k and
    # v, the MLP one node that keeps no whole-batch pre-activation, both
    # walking the batch one image at a time, and the head's conv1 output not
    # outliving conv2, the peaks were 19.3, 33.2, 18.6 and 21.9 MB.  With the
    # MLP keeping only its input and recomputing GELU's value and slope one
    # image at a time in backward, they were 13.05, 17.6, 12.06 and 15.49 MB.
    # With the head one node that keeps only its image, attention's backward
    # walking one head at a time and no sublayer output outliving its
    # addition, they were 12.50, 11.81, 11.27 and 15.12 MB.  With attention
    # and the MLP rebuilding their normalized input from the layernorm's kept
    # x-hat, so the tape holds one normalized array per sublayer, not two,
    # they were 10.93, 8.27, 8.40 and 11.97 MB.  With the rebuild passed on
    # through the token -> map views into AdaptIR's down conv, which keeps it
    # in place of the map, and layernorm forming x-hat and its output in
    # place, they are 9.89, 8.14, 8.12 and 11.97 MB, and 10.01 MB (11.58
    # before) for AdaptIR after attention, whose map is LN1's output
    host = freeze(HostModel(HostConfig()))
    task = "second_order_s2_sig25"
    for method, position, bound in (("adaptir", "mlp", 10.9e6), ("adaptir", "attention", 11.0e6),
                                    ("lora", "mlp", 8.95e6), ("bottleneck", "mlp", 13.2e6)):
        adapter = P.build_adapter(host.config, method, AdaptIRConfig(
            channels=host.config.embed, position=position))
        assert traced_step_peak(host, adapter, task) <= bound, (method, position)
    assert traced_step_peak(HostModel(HostConfig()), None, "sr2") <= 8.95e6


def one_step_dtypes(model: HostModel, adapter, params: dict, task: str, monkeypatch) -> list:
    """Run one batch-2 training step; return every op whose recorded value is
    f64 although a parent is f32, or whose gradient's dtype is not its input's."""
    mixed = []

    def checked(node):
        def wrapped(data, parents, backward):
            dtypes = [p.dtype for p in parents]
            if data.dtype == np.float64 and np.float32 in dtypes:
                mixed.append((backward.__qualname__, "value", data.dtype, dtypes))

            def checked_backward(g):
                grads = backward(g)
                mixed.extend((backward.__qualname__, "grad", np.asarray(pg).dtype, dt)
                             for pg, dt in zip(grads, dtypes)
                             if pg is not None and np.asarray(pg).dtype != dt)
                return grads
            return node(data, parents, checked_backward)
        return wrapped

    monkeypatch.setattr(tensor_mod, "_node", checked(tensor_mod._node))
    monkeypatch.setattr(fft_mod, "_node", checked(fft_mod._node))
    _, spec, corpus, seed = P._train_run(task, 0, 2)
    lq, hq = next(P._epoch_batches(corpus, spec, seed, 0, 2))
    P.l1_loss(P.host_forward(lq, task, model, adapter=adapter), hq).backward()
    monkeypatch.undo()
    # a pretrain step leaves the other task's head and tail without a grad
    stepped = {k: p for k, p in params.items() if p.grad is not None}
    assert stepped and all(p.grad.dtype == p.dtype for p in stepped.values())
    state = P.TrainState()
    P.adamw_step(state, params, lr=2e-3)
    assert state.m.keys() == state.v.keys() == stepped.keys()
    assert all(state.m[k].dtype == state.v[k].dtype == p.dtype == np.float32
               for k, p in stepped.items())
    return mixed


@pytest.mark.parametrize("method", [None, "adaptir", "lora", "bottleneck"])
def test_an_f32_training_step_stays_f32(monkeypatch, method):
    # no op casts its value or its gradients, and adamw_step casts nothing:
    # on the default f32 host every recorded value, gradient and Adam moment
    # has its input's dtype (None is a pretrain step)
    model = HostModel(HostConfig())
    if method is None:
        adapter, params, task = None, model.params, "sr2"
    else:
        adapter = P.build_adapter(freeze(model).config, method,
                                  AdaptIRConfig(channels=model.config.embed))
        params, task = adapter.parameters(), "second_order_s2_sig25"
    assert one_step_dtypes(model, adapter, params, task, monkeypatch) == []


def test_configs_are_checked_when_built_and_frozen():
    for config, changes, message in (
            (HostConfig(), {"heads": 3}, "embed 64 not divisible by heads 3"),
            (AdaptIRConfig(), {"kernel": 4}, "kernel must be odd and positive, got 4"),
            (P.TrainConfig(), {"epochs": 0}, "epochs must be >= 1, got 0")):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            replace(config, **changes)
        with pytest.raises(FrozenInstanceError):
            setattr(config, *next(iter(changes.items())))


def test_pretrain_writes_log_and_freezes(tiny_frozen):
    model, log = tiny_frozen
    assert not any(p.requires_grad for p in model.params.values())
    assert len(log) == 2 * 2  # epochs x tasks
    assert all(np.isfinite(l) for _, _, l in log)


def test_finetune_is_deterministic(tiny_frozen):
    model, _ = tiny_frozen
    train = P.TrainConfig(epochs=2, seed=3, images=8, eval_n=2)
    r1 = P.finetune(model, "adaptir", "second_order_s2_sig25", train, TINY_ADAPTER)
    r2 = P.finetune(model, "adaptir", "second_order_s2_sig25", train, TINY_ADAPTER)
    assert r1.report.csv_row() == r2.report.csv_row()
    p1 = r1.adapter.parameters()
    p2 = r2.adapter.parameters()
    assert all(np.array_equal(p1[k].data, p2[k].data) for k in p1)
    assert r1.checksum == host_checksum(model)  # freeze held


def test_finetune_requires_frozen_host():
    with pytest.raises(ConfigError, match="finetune requires a frozen host"):
        P.finetune(HostModel(TINY), "adaptir", "sr2", P.TrainConfig(epochs=1))


def test_ablate_requires_frozen_host():
    with pytest.raises(ConfigError, match="ablate requires a frozen host"):
        P.ablate(HostModel(TINY), "sr2", "insertion", P.TrainConfig(epochs=1))


def test_pretrain_refuses_a_frozen_host(monkeypatch):
    # a frozen parameter would never update: a silent zero-update run
    monkeypatch.setattr(P, "_fit", lambda *args: pytest.fail("a frozen host was trained"))
    partly_frozen = HostModel(TINY)
    partly_frozen.params["body.0.wq"].requires_grad = False
    for model in (freeze(HostModel(TINY)), partly_frozen):
        with pytest.raises(ConfigError, match="pretrain requires a host with no frozen"
                                              " parameter"):
            P.pretrain(model, P.TrainConfig(epochs=1, images=8))


def test_samples_to_keep_need_an_out_directory(monkeypatch):
    # refused at entry: no corpus built, no epoch trained, no image predicted
    for name in ("_train_run", "_fit", "host_forward"):
        monkeypatch.setattr(P, name, lambda *a, _n=name, **k: pytest.fail(f"{_n} ran"))
    model = freeze(HostModel(TINY))
    with pytest.raises(ConfigError, match="^keep=1 samples need an out directory$"):
        P.evaluate(model, None, "noise25", 1, 0, keep=1)
    with pytest.raises(ConfigError, match="^keep=2 samples need an out directory$"):
        P.finetune(model, "adaptir", "sr2", P.TrainConfig(epochs=1, images=8), TINY_ADAPTER,
                   keep=2)


@pytest.fixture
def host_moved_by_fit(monkeypatch):
    """A frozen tiny host, with ``_fit`` patched to move one of its weights
    after training, as a training step that wrote to the host would; counts
    the ``evaluate`` calls."""
    fit, evaluate = P._fit, P.evaluate
    calls = []

    def moving_fit(model, *args):
        out = fit(model, *args)
        w = model.params["body.0.wq"]
        w.data = w.data + np.float32(1e-3)
        return out

    def counted_evaluate(*args, **kwargs):
        calls.append(args[1])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(P, "_fit", moving_fit)
    monkeypatch.setattr(P, "evaluate", counted_evaluate)
    return freeze(HostModel(TINY)), calls


def test_finetune_raises_when_the_host_moved(host_moved_by_fit, tmp_path):
    model, evaluated = host_moved_by_fit
    train = P.TrainConfig(epochs=1, images=8, eval_n=1)
    with pytest.raises(ContractError, match="freeze contract violated"):
        P.finetune(model, "adaptir", "sr2", train, TINY_ADAPTER, keep=1, out=tmp_path)
    assert evaluated == [None]  # the adapted host is never evaluated
    assert not list(tmp_path.glob("sample*.ppm"))


def test_every_ablation_row_checks_the_freeze_contract(host_moved_by_fit):
    model, _ = host_moved_by_fit
    with pytest.raises(ContractError, match="freeze contract violated"):
        P.ablate(model, "sr2", "insertion", P.TrainConfig(epochs=1, images=8, eval_n=1),
                 TINY_ADAPTER)


def test_ablate_evaluates_no_bare_host(tiny_frozen, monkeypatch):
    # every row used to evaluate the un-adapted host and drop the result
    evaluate, adapters = P.evaluate, []

    def counted_evaluate(*args, **kwargs):
        adapters.append(args[1])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(P, "evaluate", counted_evaluate)
    model, _ = tiny_frozen
    rows = P.ablate(model, "sr2", "insertion", P.TrainConfig(epochs=1, images=8, eval_n=1),
                    TINY_ADAPTER)
    assert len(rows) == len(adapters) == 4
    assert sum(a is None for a in adapters) == 0


def test_evaluate_deterministic_and_modes(tiny_frozen):
    model, _ = tiny_frozen
    a = P.evaluate(model, None, "noise25", n=2, seed=5)
    assert a == P.evaluate(model, None, "noise25", n=2, seed=5)
    assert a != P.evaluate(model, None, "noise25", n=2, seed=6)


@pytest.mark.parametrize("task,mode", [
    ("sr2", "y_channel"), ("noise25", "rgb"), ("noise0", "rgb"),
    ("second_order_s2_sig25", "y_channel"), ("darken_f0.5_g1.2", "y_channel"),
])
def test_evaluate_scores_noise_alone_in_rgb(tiny_frozen, monkeypatch, task, mode):
    psnr, modes = P.psnr, []

    def recorded_psnr(pred, hq, mode):
        modes.append(mode)
        return psnr(pred, hq, mode=mode)

    monkeypatch.setattr(P, "psnr", recorded_psnr)
    P.evaluate(tiny_frozen[0], None, task, n=2, seed=5)
    assert modes == [mode, mode]


def test_checkpoint_round_trips(tiny_frozen, tmp_path):
    model, _ = tiny_frozen
    P.save_host(tmp_path / "h.ckpt", model)
    back = P.load_host(tmp_path / "h.ckpt")
    assert host_checksum(back) == host_checksum(model)

    host_cfg = {**asdict(model.config), "tasks": list(model.config.tasks)}
    attn_seq = replace(TINY_ADAPTER, position="attention", form="sequential")
    for method, adapter_cfg in (("adaptir", TINY_ADAPTER), ("adaptir", attn_seq),
                                ("lora", TINY_ADAPTER), ("bottleneck", TINY_ADAPTER)):
        res = P.finetune(model, method, "sr2",
                         P.TrainConfig(epochs=1, seed=0, images=8, eval_n=2), adapter_cfg)
        path = tmp_path / f"{method}_{adapter_cfg.position}.ckpt"
        P.save_adapter(path, res.adapter, model.config)
        adapter = P.load_adapter(path, model.config)
        assert adapter.method == res.adapter.method == method
        if method == "adaptir":
            assert adapter.config == adapter_cfg
        assert adapter.to_config() == res.adapter.to_config()
        _, header_cfg, _ = load_checkpoint(path)
        assert header_cfg == {"method": method, "host": host_cfg, **res.adapter.to_config()}
        p1, p2 = res.adapter.parameters(), adapter.parameters()
        assert set(p1) == set(p2)
        assert all(np.array_equal(p1[k].data, p2[k].data) for k in p1)


def test_loading_a_checkpoint_copies_its_data_once(tmp_path):
    # a bytes object per field and a float32 copy of it peaked at 2x the data
    rng = np.random.default_rng(0)
    params = {"big": Tensor(rng.standard_normal((512, 1024)).astype(np.float32)),
              "small": Tensor(rng.standard_normal(3).astype(np.float32)),
              "empty": Tensor(np.zeros((0, 4), dtype=np.float32))}
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, "host", {}, params)
    data_bytes = sum(t.data.nbytes for t in params.values())
    loaded = []
    tracemalloc.start()
    try:
        loaded.append(load_checkpoint(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * data_bytes
    arrays = loaded[0][2]
    assert all(arrays[k].dtype == np.float32 and np.array_equal(arrays[k], t.data)
               for k, t in params.items())


def test_adapter_checkpoint_rejects_unknown_method(tmp_path):
    host_cfg = {**asdict(TINY), "tasks": list(TINY.tasks)}
    save_checkpoint(tmp_path / "a.ckpt", "adapter",
                    {"method": "prompt_tuning", "host": host_cfg}, {})
    with pytest.raises(ConfigError, match="prompt_tuning"):
        P.load_adapter(tmp_path / "a.ckpt", TINY)
    with pytest.raises(ConfigError):  # the bare slot is not a method
        P.save_adapter(tmp_path / "b.ckpt", PETLMethod(), TINY)


@pytest.mark.parametrize("method,extra", [
    ("lora", {"note": "unread"}),
    # the layout that kept the insertion site and branch set beside "adapter"
    ("adaptir", {"insertion": ["attention", "sequential"],
                 "branches": [True, True, True]}),
])
def test_adapter_checkpoint_rejects_unread_header_keys(tmp_path, method, extra):
    stack = P.build_adapter(TINY, method, adapter_config=TINY_ADAPTER)
    host_cfg = {**asdict(TINY), "tasks": list(TINY.tasks)}
    save_checkpoint(tmp_path / "a.ckpt", "adapter",
                    {"method": method, "host": host_cfg, **stack.to_config(), **extra},
                    stack.parameters())
    with pytest.raises(ConfigError, match="header does not match"):
        P.load_adapter(tmp_path / "a.ckpt", TINY)


def test_checkpoint_rejects_trailing_bytes(tiny_frozen, tmp_path):
    model, _ = tiny_frozen
    path = tmp_path / "h.ckpt"
    P.save_host(path, model)
    with open(path, "ab") as f:
        f.write(b"\0\0\0\0")
    with pytest.raises(ValueError, match="after the last declared field"):
        P.load_host(path)


def test_checkpoint_header_line_is_bounded(tmp_path):
    # a header line of MAX_HEADER_BYTES, newline included, is the longest read
    head = json.dumps({"kind": "t", "config": {}, "fields": []}).encode()
    for extra, loads in ((0, True), (1, False)):
        pad = b" " * (MAX_HEADER_BYTES - 1 - len(head) + extra)
        (tmp_path / "h.ckpt").write_bytes(head + pad + b"\n")
        if loads:
            assert load_checkpoint(tmp_path / "h.ckpt") == ("t", {}, {})
        else:
            with pytest.raises(ValueError, match=f"no header line within {MAX_HEADER_BYTES}"):
                load_checkpoint(tmp_path / "h.ckpt")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_refuses_a_non_finite_field(tmp_path, value):
    arr = np.array([[0.5, value]], dtype=np.float32)
    save_checkpoint(tmp_path / "a.ckpt", "t", {}, {"ok": Tensor(arr[:, :1]), "w": Tensor(arr)})
    with pytest.raises(ValueError) as err:
        load_checkpoint(tmp_path / "a.ckpt")
    assert str(err.value) == f"{tmp_path / 'a.ckpt'}: checkpoint field w holds NaN or infinity"


DELETE = object()


def edit_header(path, keys, value):
    """Set (or with ``DELETE`` remove) one entry of a checkpoint's JSON header."""
    head, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    if keys:
        *parents, last = keys
        node = header
        for k in parents:
            node = node[k]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    else:
        header = value
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


@pytest.mark.parametrize("kind,keys,value,error,fragment", [
    ("host", (), [], ValueError, "header is not an object of kind, config and fields"),
    ("host", ("fields",), DELETE, ValueError, "header is not an object of kind"),
    ("host", ("kind",), DELETE, ValueError, "header is not an object of kind"),
    ("host", ("fields", 0, "shape"), [-1], ValueError, "shape of non-negative ints"),
    ("host", ("fields", 0, "shape"), [2.5], ValueError, "shape of non-negative ints"),
    ("host", ("fields", 0, "shape"), [16, 3, 9], ConfigError,
     "checkpoint fields do not match the host configuration"),
    ("host", ("config", "layers"), 1.5, ConfigError, "HostConfig.layers expects int, got 1.5"),
    ("host", ("config", "heads"), 0, ConfigError, "HostConfig: heads must be >= 1, got 0"),
    # headers written while the host's and AdaptIR's dtype, LoRA's alpha and
    # AdaptIR's ffn_hidden were settings fail on the key, whatever its value
    ("host", ("config", "dtype"), "bf16", ConfigError, "HostConfig has no key 'dtype'"),
    # the layout written before the unread feat_h/feat_w fields were removed
    ("host", ("config", "feat_h"), 16, ConfigError, "HostConfig has no key 'feat_h'"),
    ("adaptir", ("config", "method"), DELETE, ConfigError, "unknown method None"),
    ("adaptir", ("config", "host"), DELETE, ConfigError,
     "HostConfig expects an object, got None"),
    ("adaptir", ("config", "host", "feat_w"), 16, ConfigError,
     "HostConfig has no key 'feat_w'"),
    ("adaptir", ("config", "adapter", "kernel"), "3", ConfigError,
     "AdaptIRConfig.kernel expects int, got '3'"),
    ("adaptir", ("config", "adapter", "gamma"), 8, ConfigError,
     "AdaptIRConfig has no key 'gamma'"),
    ("adaptir", ("config", "adapter"), DELETE, ConfigError,
     "AdaptIRConfig expects an object, got None"),
    ("lora", ("config", "ranks"), DELETE, ConfigError,
     "LoRAStack.ranks expects tuple[int, ...], got None"),
    ("lora", ("config", "ranks"), ["a", "a"], ConfigError,
     "LoRAStack.ranks[0] expects int, got 'a'"),
    ("lora", ("config", "alpha"), [2.0, 2.0], ConfigError, "header does not match"),
    ("bottleneck", ("config", "hidden"), DELETE, ConfigError,
     "BottleneckStack.hidden expects tuple[int, ...], got None"),
    ("adaptir", ("config", "adapter", "ffn_hidden"), None, ConfigError,
     "AdaptIRConfig has no key 'ffn_hidden'"),
    # conv1_b renamed conv1_w, same size: used to load the bias as the weight
    ("host", ("fields", 1), {"name": "head.sr2.conv1_w", "shape": [16]}, ValueError,
     "corrupt checkpoint: field head.sr2.conv1_w is declared twice"),
    ("adaptir", ("config", "adapter", "dtype"), "f32", ConfigError,
     "AdaptIRConfig has no key 'dtype'"),
    ("adaptir", ("config", "adapter", "channels"), 8, ConfigError,
     "adapter channels 8 != host embed 16"),
    ("adaptir", ("config", "adapter", "channels"), 0, ConfigError,
     "AdaptIRConfig: intrinsic width 0 must be >= 1"),
])
def test_malformed_checkpoint_header_is_one_line(tmp_path, kind, keys, value, error,
                                                 fragment):
    path = tmp_path / "m.ckpt"
    if kind == "host":
        P.save_host(path, HostModel(TINY))
        load = P.load_host
    else:
        P.save_adapter(path, P.build_adapter(TINY, kind, adapter_config=TINY_ADAPTER), TINY)
        load = functools.partial(P.load_adapter, host_config=TINY)
    load(path)  # the unedited checkpoint loads
    edit_header(path, keys, value)
    with pytest.raises(error, match=re.escape(fragment)) as err:
        load(path)
    assert "\n" not in str(err.value)


def test_checkpoint_saves_float32_only(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    save_checkpoint(tmp_path / "a.ckpt", "test", {"n": 1}, {"a": Tensor(arr)})
    header = json.dumps({"kind": "test", "config": {"n": 1},
                         "fields": [{"name": "a", "shape": [2, 3]}]}, sort_keys=True)
    assert (tmp_path / "a.ckpt").read_bytes() == header.encode() + b"\n" + arr.tobytes()
    f64_stack = AdapterStack(TINY, TINY_ADAPTER)
    for p in f64_stack.parameters().values():
        p.data = p.data.astype(np.float64)
    with pytest.raises(ValueError, match="checkpoint field layer0.down_w is float64,"
                                         " not float32"):
        P.save_adapter(tmp_path / "a.ckpt", f64_stack, TINY)


@pytest.mark.parametrize("changes,fragment", [
    (dict(base_lr=0.0), "base_lr must be > 0, got 0.0"),
    (dict(base_lr=-1.0), "base_lr must be > 0, got -1.0"),
    (dict(base_lr=1e-320), "base_lr 1e-320 rounds to 0 in float32"),
    (dict(weight_decay=-5.0), "weight_decay must be >= 0, got -5.0"),
    (dict(epochs=0), "epochs must be >= 1, got 0"),
    (dict(batch_size=16, images=8), "batch_size 16 exceeds images 8"),
    (dict(base_lr=float("nan")), "base_lr must be finite, got nan"),
    (dict(base_lr=float("inf")), "base_lr must be finite, got inf"),
    (dict(weight_decay=float("nan")), "weight_decay must be finite, got nan"),
    (dict(seed=-1), "seed must be >= 0, got -1"),
])
def test_train_config_rejects_bad_recipes(changes, fragment):
    with pytest.raises(ConfigError, match=fragment):
        P.TrainConfig(**changes)


def test_ablation_rejects_unknown_axis(tiny_frozen):
    model, _ = tiny_frozen
    with pytest.raises(ConfigError):
        P.ablate(model, "sr2", "typography", P.TrainConfig())


# -- gradient audit -------------------------------------------------------------


def test_gradcheck_default_passes():
    rows = P.gradcheck()
    assert len(rows) >= 10
    assert all(ok for _, _, ok in rows)
    assert max(rel for _, rel, _ in rows) < 1e-4


def test_gradcheck_detects_injected_backward_bug(monkeypatch):
    """Mutation test: sign-flip the cosine backward rule and the audit
    must flag the frequency branch parameters."""
    real_cos = tensor_mod.cos

    def broken_cos(x):
        data = np.cos(x.data)

        def backward(g):
            return (g * np.sin(x.data),)  # wrong sign

        return tensor_mod._node(data, (x,), backward)

    monkeypatch.setattr(tensor_mod, "cos", broken_cos)
    rows = P.gradcheck()
    monkeypatch.setattr(tensor_mod, "cos", real_cos)
    bad = [name for name, _, ok in rows if not ok]
    assert bad, "sabotaged backward pass went undetected"
    assert any(name.startswith("fam_") or name in ("down_w", "down_b") for name in bad)
