"""Training-loop and checkpoint tests."""

import hashlib
import importlib
import os
import struct
import sys
import threading
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from tvadapt.checkpoint import (
    DIGEST_SIZE,
    load_checkpoint,
    load_model,
    restore_model,
    save_checkpoint,
)
from tvadapt.cli import main
from tvadapt.config import toy_config
from tvadapt.data import generate_dataset
from tvadapt.exceptions import ConfigError, ContractError, NumericError, VersionError
from tvadapt.model import AdapterModel
from tvadapt.modulation import DecomposeMode
from tvadapt.retrieval import metrics_report
from tvadapt.tensor import no_grad, rng_for
from tvadapt.train import Adam, evaluate_model, lr_at, train

train_module = importlib.import_module("tvadapt.train")  # the package rebinds .train
model_module = importlib.import_module("tvadapt.model")
backbone_module = importlib.import_module("tvadapt.backbone")
attention_module = importlib.import_module("tvadapt.attention")

CFG = toy_config(pairs=6, batch_size=6, epochs=8, lr=1e-2)
DATA = generate_dataset(CFG.seed, CFG.pairs, CFG)


def params_bytes(model):
    return {name: t.data.tobytes() for name, t in model.store.items()}


def test_zero_epochs_returns_initialization(tmp_path):
    cfg = replace(CFG, epochs=0)
    model, history, steps = train(cfg, DATA)
    assert steps == 0 and history == []
    fresh = AdapterModel(cfg)
    assert params_bytes(model) == params_bytes(fresh)


def test_frozen_only_config_keeps_loss_constant():
    cfg = replace(CFG, decompose="none", asa=False, text_modulation=False, epochs=4)
    model = AdapterModel(cfg)
    for t in (model.proj_w, model.proj_b, model.log_tau):
        t.requires_grad = False
    model, history, _ = train(cfg, DATA, model=model, eval_each_epoch=False)
    losses = [h["loss"] for h in history]
    assert max(losses) == min(losses)
    assert model.store.num_elements(trainable=True) == 0


def test_train_under_no_grad_raises():
    model = AdapterModel(CFG)
    before = model.store.hash_bytes()
    with no_grad():
        with pytest.raises(ContractError):
            train(CFG, DATA, model=model, max_steps=2, eval_each_epoch=False)
    assert model.store.hash_bytes() == before


def test_training_reduces_loss_and_logs_reports():
    model, history, steps = train(CFG, DATA)
    assert steps == CFG.epochs
    assert history[-1]["loss"] < history[0]["loss"]
    reports = history[-1]["reports"]
    assert set(reports) == {"video->text", "text->video"}


def test_training_is_bitwise_deterministic():
    m1, h1, _ = train(CFG, DATA, eval_each_epoch=False)
    m2, h2, _ = train(CFG, DATA, eval_each_epoch=False)
    assert params_bytes(m1) == params_bytes(m2)
    assert [h["loss"] for h in h1] == [h["loss"] for h in h2]


def test_backbone_bytes_unchanged_by_training():
    model, _, _ = train(CFG, DATA, eval_each_epoch=False)
    assert model.store.hash_bytes("backbone/") == AdapterModel(CFG).store.hash_bytes("backbone/")


SHORT_RUNS = [dict(decompose=mode.value) for mode in DecomposeMode] + [
    dict(offsets="fractional"),
]


@pytest.mark.parametrize("case", SHORT_RUNS, ids=lambda c: "-".join(map(str, c.values())))
def test_short_run_is_finite_falling_and_repeatable(case):
    # zero offsets never move (their exact-path gradient is 0), so the
    # fractional run starts them off-grid to check that the offsets train
    case = dict(case)
    fractional = case.pop("offsets", None) == "fractional"
    cfg = replace(CFG, epochs=4, **case)

    def run():
        model = AdapterModel(cfg)
        if fractional:
            rng = rng_for(8, "short-run")
            for offset in (model.offsets.gamma, model.offsets.delta):
                offset.data[:] = rng.uniform(0.15, 0.45, size=offset.shape)
        start = model.store.hash_bytes("adapter/asa/")
        _, history, steps = train(cfg, DATA, model=model, eval_each_epoch=False)
        return [h["loss"] for h in history], steps, model.store, start

    losses, steps, store, start = run()
    assert steps == cfg.epochs  # one full-batch step per epoch
    assert np.isfinite(losses).all()
    assert all(np.isfinite(t.data).all() for _, t in store.trainable_items())
    assert losses[-1] < losses[0]
    if fractional:
        assert store.hash_bytes("adapter/asa/") != start  # the offsets train
    losses2, _, store2, _ = run()
    assert np.array(losses).tobytes() == np.array(losses2).tobytes()
    assert store.hash_bytes() == store2.hash_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_loss_aborts_with_dump(capsys):
    model = AdapterModel(CFG)
    model.log_tau.data[:] = 710.0  # exp overflow -> non-finite loss
    with pytest.raises(NumericError):
        train(CFG, DATA, model=model, eval_each_epoch=False)
    err = capsys.readouterr().err
    assert "aborted" in err and "param_norms" in err


def test_lr_schedule_warmup_then_cosine():
    total, base = 100, 1.0
    warm = [lr_at(s, total, base, 0.1) for s in range(10)]
    assert warm[0] == pytest.approx(0.1) and warm[-1] == pytest.approx(1.0)
    assert all(a < b for a, b in zip(warm, warm[1:]))
    tail = [lr_at(s, total, base, 0.1) for s in range(10, 100)]
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    assert tail[-1] < 0.01


def test_adam_moves_only_trainable():
    model = AdapterModel(CFG)
    loss = model.batch_loss(DATA.videos, DATA.tokens, sel_key=("train", 0))
    model.store.zero_grad()
    loss.backward()
    before_frozen = model.store.hash_bytes("backbone/")
    before_proj = model.proj_w.data.copy()
    Adam().step(model.store, 1e-2)
    assert model.store.hash_bytes("backbone/") == before_frozen
    assert not np.allclose(model.proj_w.data, before_proj)


def reference_train(config, dataset, model, max_steps=None, progress=None):
    """The loop without forward reuse: each step runs its own forward, and
    every epoch ends with a separate ``evaluate_model``."""
    n = len(dataset)
    batch = min(config.batch_size, n)
    total = config.epochs * -(-n // batch)
    if max_steps is not None:
        total = min(total, max_steps)
    opt, history, step = Adam(), [], 0
    for epoch in range(1, config.epochs + 1):
        if step >= total:
            break
        if batch >= n:
            order = np.arange(n)
        else:
            order = rng_for(config.seed, "order", epoch).permutation(n)
        losses = []
        for start in range(0, n, batch):
            if step >= total:
                break
            idx = order[start : start + batch]
            loss = model.batch_loss(dataset.videos[idx], dataset.tokens[idx],
                                    sel_key=("train", step))
            losses.append(loss.item())
            model.store.zero_grad()
            loss.backward()
            opt.step(model.store, lr_at(step, total, config.lr, config.warmup))
            step += 1
        entry = {"epoch": epoch, "steps": step, "loss": float(np.mean(losses)),
                 "reports": evaluate_model(model, dataset)}
        history.append(entry)
        if progress is not None:
            progress(entry)
    return model, history, step


class _Stop(Exception):
    pass


def run_summary(loop, config, max_steps=None, stop_at=None):
    """Everything a training run hands back, as bits, for one loop, plus the
    score matrix behind every report (R@K alone is too coarse to tell two
    patch selections apart)."""
    model = AdapterModel(config)
    if config.asa:  # at zero offsets the warp is the identity and selection is moot
        rng = rng_for(7, "offsets")
        for offset in (model.offsets.gamma, model.offsets.delta):
            offset.data[:] = rng.uniform(0.15, 0.45, size=offset.shape)
    seen, ranked = [], []

    def report(sim, direction):
        ranked.append((direction, sim.scores.tobytes()))
        return metrics_report(sim, direction)

    def progress(entry):
        seen.append(entry)
        if entry["epoch"] == stop_at:
            raise _Stop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train_module, "metrics_report", report)
        try:
            _, history, steps = loop(config, DATA, model=model, max_steps=max_steps,
                                     progress=progress)
        except _Stop:
            history, steps = seen, seen[-1]["steps"]
    assert [e["epoch"] for e in seen] == [e["epoch"] for e in history]
    return {
        "steps": steps,
        "store": model.store.hash_bytes(),
        "history": [
            (e["epoch"], e["steps"], np.float64(e["loss"]).view(np.uint64),
             {k: r.to_dict() for k, r in e["reports"].items()})
            for e in history
        ],
        "ranked": ranked,
    }


REUSE_CFG = replace(CFG, epochs=5)


@pytest.mark.parametrize("config, max_steps, stop_at", [
    pytest.param(REUSE_CFG, None, None, id="text_top_k-full-batch"),
    pytest.param(replace(REUSE_CFG, asa=False), None, None, id="asa-off"),
    pytest.param(replace(REUSE_CFG, selection="random"), None, None, id="random-fallback"),
    pytest.param(replace(REUSE_CFG, batch_size=4), None, None, id="batch-lt-pairs-fallback"),
    pytest.param(REUSE_CFG, 3, None, id="max-steps"),
    pytest.param(REUSE_CFG, None, 2, id="progress-raises"),
    # the frozen prefix ends at block f, the first modulated layer of a tower
    pytest.param(replace(REUSE_CFG, adapter_layers="3,4"), None, None, id="prefix-f3"),
    pytest.param(replace(REUSE_CFG, layers=1), None, None, id="prefix-last-block-cls-rows"),
    pytest.param(replace(REUSE_CFG, decompose="none"), None, None, id="prefix-frozen-video"),
    pytest.param(replace(REUSE_CFG, text_modulation=False), None, None, id="prefix-frozen-text"),
    pytest.param(replace(REUSE_CFG, text_lowrank=True), None, None, id="prefix-text-lowrank"),
    pytest.param(replace(REUSE_CFG, batch_size=5, asa=False), None, None,
                 id="prefix-ragged-batch-asa-off"),
])
def test_full_batch_forward_reuse_matches_reference_loop(config, max_steps, stop_at):
    got = run_summary(train, config, max_steps, stop_at)
    want = run_summary(reference_train, config, max_steps, stop_at)
    assert got == want
    assert len(got["history"]) == (stop_at or min(config.epochs, max_steps or config.epochs))


def test_full_batch_epoch_runs_one_sentence_pick(monkeypatch):
    calls = []
    pick = AdapterModel._pick_sentences

    def counted(self, videos, candidates, states=None):
        calls.append(len(videos))
        return pick(self, videos, candidates, states)

    monkeypatch.setattr(AdapterModel, "_pick_sentences", counted)
    train(REUSE_CFG, DATA)
    # one prepass per step, plus the evaluation after the last step
    assert calls == [len(DATA)] * (REUSE_CFG.epochs + 1)


def _log_tower_work(monkeypatch, call_log):
    """Log every tower pass the model runs and every block a pass runs."""
    for name in ("encode_video", "encode_text"):
        encode = getattr(model_module, name)

        def counted(*args, name=name, encode=encode, **kwargs):
            call_log.add(name)
            return encode(*args, **kwargs)

        monkeypatch.setattr(model_module, name, counted)
    block = backbone_module.vit_block

    def counted_block(x, store, prefix, *args, **kwargs):
        call_log.add(prefix)
        return block(x, store, prefix, *args, **kwargs)

    monkeypatch.setattr(backbone_module, "vit_block", counted_block)


def test_training_runs_each_frozen_first_block_once(monkeypatch, call_log):
    cfg = replace(REUSE_CFG, asa=False)  # every video pass can start from the prefix
    _log_tower_work(monkeypatch, call_log)
    _, history, steps = train(cfg, DATA)
    assert steps == cfg.epochs and len(history) == cfg.epochs
    ran = call_log.records()
    # block 1 is the first modulated layer of both towers, so it ends the
    # prefix, which one call builds before the first step
    assert ran.count("backbone/visual/block1") == 1
    assert ran.count("backbone/text/block1") == 1
    # one full batch: each tower's prefix, then one pass from it in the first
    # step, in the evaluations carried into the next 4 steps and in the final one
    passes = 1 + cfg.epochs
    assert ran.count("encode_video") == ran.count("encode_text") == 1 + passes
    assert ran.count("backbone/visual/block2") == ran.count("backbone/text/block2") == passes


def test_each_asa_pass_builds_its_warp_plans_once(monkeypatch):
    # the offsets are fixed during a tower pass, so the pass builds both
    # axis plans when it starts, not in every ASA layer or block
    plans = []
    axis_plan = attention_module._axis_plan

    def counted(offset, size, axis):
        plans.append(axis)
        return axis_plan(offset, size, axis)

    monkeypatch.setattr(attention_module, "_axis_plan", counted)
    model = AdapterModel(CFG)
    model.batch_loss(DATA.videos, DATA.tokens, ("train", 0))  # taped: one block
    assert plans == [-2, -3]
    # tape-free: three blocks of two videos, every block inline in the caller
    rows = 2 * CFG.frames * (CFG.patches + 1)
    monkeypatch.setattr(model_module, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    blocks = []
    tower = model_module.encode_video

    def counted_tower(videos, *args, **kwargs):
        blocks.append(len(videos))
        return tower(videos, *args, **kwargs)

    monkeypatch.setattr(model_module, "encode_video", counted_tower)
    plans.clear()
    evaluate_model(model, DATA)
    assert blocks == [2, 2, 2] * 2  # each block's sentence pick, then its ASA pass
    assert plans == [-2, -3]


@pytest.mark.parametrize("config, max_steps", [
    pytest.param(replace(REUSE_CFG, epochs=0), None, id="epochs-0"),
    pytest.param(REUSE_CFG, 0, id="max-steps-0"),
])
def test_training_without_steps_runs_no_tower_pass(config, max_steps, monkeypatch, call_log):
    _log_tower_work(monkeypatch, call_log)
    _, history, steps = train(config, DATA, max_steps=max_steps)
    assert (history, steps) == ([], 0)
    assert call_log.records() == []


def test_evaluate_includes_dsl_rows_when_asked():
    model = AdapterModel(CFG)
    reports = evaluate_model(model, DATA, use_dsl=True)
    assert set(reports) == {
        "video->text", "text->video", "video->text (dsl)", "text->video (dsl)",
    }


def test_non_finite_scores_raise_instead_of_perfect_reports(tmp_path, capsys):
    model = AdapterModel(CFG)
    model.proj_w.data[0, 0] = np.nan
    with pytest.raises(NumericError, match="video->text"):
        evaluate_model(model, DATA, use_dsl=True)
    path = str(tmp_path / "nan.ckpt")
    save_checkpoint(path, model)
    assert main(["eval", "--ckpt", path, "--dsl"]) == 2
    captured = capsys.readouterr()
    assert "R@1" not in captured.out
    assert captured.err.startswith("numeric failure:") and "non-finite" in captured.err


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    model, _, steps = train(CFG, DATA, eval_each_epoch=False)
    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(path, model, steps=steps)
    restored, ckpt = load_model(path)
    assert ckpt.steps == steps
    assert ckpt.config == CFG
    assert params_bytes(restored) == params_bytes(model)
    live = evaluate_model(model, DATA)
    loaded = evaluate_model(restored, DATA)
    for key in live:
        assert live[key].to_dict() == loaded[key].to_dict()


def run_digest(config):
    """blake2b of a training run's ``trainable_items`` and final reports.

    The offsets that move start off the grid: at zero offsets every sampling
    position takes the exact path, whose offset gradient is 0, and the warp
    stays the identity.
    """
    model = AdapterModel(config)
    rng = rng_for(7, "offsets")
    for name, t in model.store.trainable_items():
        if name.startswith("adapter/asa/"):
            t.data[:] = rng.uniform(0.15, 0.45, size=t.shape)
    model, history, _ = train(config, DATA, model=model)
    h = hashlib.blake2b(digest_size=16)
    for name, t in model.store.trainable_items():
        h.update(name.encode())
        h.update(t.data.tobytes())
    reports = {k: r.to_dict() for k, r in history[-1]["reports"].items()}
    h.update(repr(sorted(reports.items())).encode())
    return h.hexdigest()


# Pinned before a one-axis warp stopped registering the fixed axis's offset
# as a frozen tensor: that change leaves every trained bit and report as it was.
RUN_DIGESTS = {
    ("both", "text_top_k"): "1fc34776dda6b9d0f4df350731d35ed0",
    ("temporal", "text_top_k"): "05367f30655a43b7db0f7c35b888fd66",
    ("spatial", "text_top_k"): "a8a1ff8f5811944bae7665219cc236e2",
    ("both", "random"): "45402210152be4c0d085479763a2e244",
    ("temporal", "random"): "94491a7796e51892b8d2492356aa7fa9",
    ("spatial", "random"): "761881ee9817cb0242bb97d97d45252b",
}


@pytest.mark.parametrize("warp_axes, selection", sorted(RUN_DIGESTS))
def test_trained_adapters_and_reports_match_pinned_digests(warp_axes, selection):
    cfg = replace(CFG, epochs=6, warp_axes=warp_axes, selection=selection)
    assert run_digest(cfg) == RUN_DIGESTS[warp_axes, selection]


# The config axes RUN_DIGESTS leaves at CFG's values, one at a time.
AXIS_DIGESTS = {
    "spatial_temporal": (dict(decompose="spatial_temporal"), "e478b755fefa0ab0a337bbe207dcf23f"),
    "spatial_temporal_layer": (dict(decompose="spatial_temporal_layer"),
                               "ccfedfaff7e535baca0e2b0711ebccb1"),
    "no-decompose": (dict(decompose="none"), "3193cb201949414540d311ed09b4b348"),
    "frozen-prefix": (dict(adapter_layers="3,4"), "725fa1653fd7586e6bae9c505e29dc2f"),
    "text-lowrank": (dict(text_lowrank=True), "98ac02c72b0f343ca53167778312fcf3"),
    "no-asa": (dict(asa=False), "69f28a3e440e71210c286a5dca61f6c7"),
    "vision_top_k": (dict(selection="vision_top_k"), "0164c8122bc3e6a9b48652a2a6398a98"),
    "mini-batches": (dict(batch_size=4), "30ad0bd8be807061dbb789f40d98758c"),
}


@pytest.mark.parametrize("case", list(AXIS_DIGESTS))
def test_each_config_axis_matches_its_pinned_digest(case):
    kw, digest = AXIS_DIGESTS[case]
    assert run_digest(replace(CFG, epochs=6, **kw)) == digest


@pytest.mark.parametrize("warp_axes", ["both", "temporal", "spatial"])
def test_checkpoint_holds_the_adapter_set_only(tmp_path, warp_axes):
    model = AdapterModel(replace(CFG, warp_axes=warp_axes))
    rng = rng_for(5, "ckpt", warp_axes)
    for _, t in model.store.trainable_items():
        t.data += rng.normal(size=t.shape)
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model)
    assert path.stat().st_size < 17_000  # 628,440 bytes when the backbone was stored too
    params = load_checkpoint(str(path)).params
    trainable = [name for name, _ in model.store.trainable_items()]
    # every adapter tensor trains, and the checkpoint holds exactly those
    assert [name for name in model.store.names() if name.startswith("adapter/")] == trainable
    assert sorted(params) == trainable
    assert ("adapter/asa/gamma" in params) is (warp_axes != "temporal")
    assert ("adapter/asa/delta" in params) is (warp_axes != "spatial")
    assert params_bytes(load_model(str(path))[0]) == params_bytes(model)


@pytest.mark.parametrize("name", ["adapter/temperature/log_tau", "backbone/text/block1/wq"])
def test_checkpoint_refuses_a_model_it_could_not_restore(tmp_path, name):
    # the file would hold the trainable set, and restore_model expects the adapter set
    model = AdapterModel(CFG)
    model.store[name].requires_grad = not model.store[name].requires_grad
    path = tmp_path / "m.ckpt"
    with pytest.raises(ContractError, match=name):
        save_checkpoint(str(path), model)
    assert not path.exists()


def test_checkpoint_on_another_backbone_is_a_version_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), AdapterModel(CFG))
    init_backbone = model_module.init_backbone

    def perturbed(store, *args):
        init_backbone(store, *args)
        store["backbone/text/block2/mlp_b1"].data[3] += 1e-12

    monkeypatch.setattr(model_module, "init_backbone", perturbed)
    with pytest.raises(VersionError, match="backbone"):
        load_model(str(path))
    assert main(["eval", "--ckpt", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "backbone" in err and "Traceback" not in err


def test_checkpoint_rejects_bad_magic_and_version(tmp_path):
    path = os.path.join(tmp_path, "bad.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(VersionError):
        load_checkpoint(path)
    model = AdapterModel(CFG)
    good = os.path.join(tmp_path, "good.ckpt")
    save_checkpoint(good, model)
    with open(good, "rb") as fh:
        blob = bytearray(fh.read())
    # 2 also stored the frozen backbone, 3 a frozen flag per entry
    for version in (2, 3, 99):
        struct.pack_into("<I", blob, 4, version)  # version field
        with open(good, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(VersionError, match=f"format version {version}, expected 4"):
            load_checkpoint(good)


def test_checkpoint_restore_requires_matching_model(tmp_path):
    model = AdapterModel(CFG)
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(path, model)
    ckpt = load_checkpoint(path)
    ckpt.params.pop("adapter/proj/w")
    with pytest.raises(VersionError):
        restore_model(ckpt)



def test_truncated_or_padded_checkpoint_is_a_version_error(tmp_path, capsys):
    good = tmp_path / "good.ckpt"
    save_checkpoint(str(good), AdapterModel(CFG))
    blob = good.read_bytes()
    cfg_end = 12 + int.from_bytes(blob[8:12], "little")
    for cut in (0, 3, 6, 10, cfg_end // 2, cfg_end + 5, len(blob) // 2, len(blob) - 1):
        path = tmp_path / f"cut{cut}.ckpt"
        path.write_bytes(blob[:cut])
        with pytest.raises(VersionError):
            load_checkpoint(str(path))
        assert main(["eval", "--ckpt", str(path)]) == 1, cut
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, cut
    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(blob + b"\x00")
    with pytest.raises(VersionError):
        load_checkpoint(str(padded))


def test_invalid_stored_config_is_a_config_error(tmp_path, capsys):
    cfg = replace(CFG)
    model = AdapterModel(cfg)
    # a config is validated once, when built, and cannot change afterwards
    with pytest.raises(FrozenInstanceError):
        cfg.lr = float("nan")
    assert cfg.lr == CFG.lr

    # an intact file whose stored config fails validation: same length, digest re-sealed
    nan_path = tmp_path / "nan.ckpt"
    save_checkpoint(str(nan_path), model)
    blob = bytearray(nan_path.read_bytes())
    field = b"lr = 0.01\n"
    at = blob.index(field)
    blob[at:at + len(field)] = b"lr = nan \n"
    blob[-DIGEST_SIZE:] = hashlib.blake2b(blob[:-DIGEST_SIZE], digest_size=DIGEST_SIZE).digest()
    nan_path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match="lr must be positive and finite, got nan"):
        load_checkpoint(str(nan_path))
    assert main(["eval", "--ckpt", str(nan_path), "--dsl"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {nan_path}: stored config is invalid: lr")
    assert "corrupt" not in err and "Traceback" not in err

    # stored configs naming removed keys: length and digest re-sealed
    stale_path = tmp_path / "stale.ckpt"
    for line in (b"warp_interp = bilinear\n", b"dsl_inv_temp = 100.0\n"):
        save_checkpoint(str(stale_path), model)
        blob = bytearray(stale_path.read_bytes())
        (cfg_len,) = struct.unpack_from("<I", blob, 8)
        blob[12 + cfg_len:12 + cfg_len] = line
        struct.pack_into("<I", blob, 8, cfg_len + len(line))
        blob[-DIGEST_SIZE:] = hashlib.blake2b(blob[:-DIGEST_SIZE], digest_size=DIGEST_SIZE).digest()
        stale_path.write_bytes(bytes(blob))
        key = line.split(b" ")[0].decode()
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_checkpoint(str(stale_path))
        assert main(["eval", "--ckpt", str(stale_path)]) == 1
        err = capsys.readouterr().err
        assert key in err and "corrupt" not in err and "Traceback" not in err


def test_flipped_payload_bit_is_a_version_error(tmp_path, capsys):
    good = tmp_path / "good.ckpt"
    save_checkpoint(str(good), AdapterModel(CFG))
    blob = good.read_bytes()
    name = b"adapter/proj/w"
    payload = blob.index(name) + len(name) + 1 + 4 * 2  # ndim, two u32 dims
    cfg_byte = 12 + 3
    for offset, bit in ((cfg_byte, 0), (blob.index(name), 1), (payload, 0), (payload + 8, 7),
                        (len(blob) - DIGEST_SIZE - 1, 3), (len(blob) - 1, 5)):
        flipped = bytearray(blob)
        flipped[offset] ^= 1 << bit
        path = tmp_path / f"flip{offset}.ckpt"
        path.write_bytes(bytes(flipped))
        with pytest.raises(VersionError, match="digest"):
            load_checkpoint(str(path))
        assert main(["eval", "--ckpt", str(path)]) == 1, offset
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, offset


def _repeat_log_tau(blob):
    """Append a second ``log_tau`` entry holding 7.0 and count it."""
    count_at = 12 + struct.unpack_from("<I", blob, 8)[0] + 24
    struct.pack_into("<I", blob, count_at, struct.unpack_from("<I", blob, count_at)[0] + 1)
    name = b"adapter/temperature/log_tau"
    entry = struct.pack("<H", len(name)) + name + struct.pack("<BId", 1, 1, 7.0)
    blob[-DIGEST_SIZE:-DIGEST_SIZE] = entry
    return name


def _overflow_dims(blob):
    """Give the first entry's two dims 2**32 - 1 each: a product past ssize_t."""
    name_at = 12 + struct.unpack_from("<I", blob, 8)[0] + 24 + 4
    (name_len,) = struct.unpack_from("<H", blob, name_at)
    ndim_at = name_at + 2 + name_len
    assert blob[ndim_at] == 2
    struct.pack_into("<II", blob, ndim_at + 1, 2**32 - 1, 2**32 - 1)
    return bytes(blob[name_at + 2:ndim_at])


@pytest.mark.parametrize("craft, reason", [
    (_repeat_log_tau, "is repeated"),
    (_overflow_dims, r"holds \d+ values, past the end of the file"),
], ids=["repeated-name", "dims-overflow"])
def test_malformed_entry_in_a_resealed_checkpoint_is_a_version_error(tmp_path, capsys,
                                                                      craft, reason):
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), AdapterModel(CFG))
    blob = bytearray(path.read_bytes())
    name = craft(blob).decode()
    # re-seal: the digest carries no key, so an edited file passes it
    blob[-DIGEST_SIZE:] = hashlib.blake2b(blob[:-DIGEST_SIZE], digest_size=DIGEST_SIZE).digest()
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionError, match=f"entry '{name}' {reason}"):
        load_checkpoint(str(path))
    assert main(["eval", "--ckpt", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err and "Traceback" not in err


def _append_zeros(blob):
    """Eight zero bytes after the last entry, before the digest."""
    blob[-DIGEST_SIZE:-DIGEST_SIZE] = bytes(8)


def _transpose_gamma(blob):
    """Store ``adapter/asa/gamma``'s (4, 1) dims as (1, 4): same size, other shape."""
    name = b"adapter/asa/gamma"
    ndim_at = blob.index(name) + len(name)
    assert blob[ndim_at] == 2 and struct.unpack_from("<II", blob, ndim_at + 1) == (4, 1)
    struct.pack_into("<II", blob, ndim_at + 1, 1, 4)


@pytest.mark.parametrize("craft, reason", [
    (_append_zeros, "8 trailing bytes after the last entry"),
    (_transpose_gamma, r"shape mismatch for adapter/asa/gamma: \(4, 1\) vs \(1, 4\)"),
], ids=["trailing-bytes", "transposed-dims"])
def test_resealed_checkpoint_with_extra_bytes_or_other_dims_is_a_version_error(
        tmp_path, capsys, craft, reason):
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), AdapterModel(CFG))
    blob = bytearray(path.read_bytes())
    craft(blob)
    blob[-DIGEST_SIZE:] = hashlib.blake2b(blob[:-DIGEST_SIZE], digest_size=DIGEST_SIZE).digest()
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionError, match=reason):
        load_model(str(path))
    assert main(["eval", "--ckpt", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_max_steps_can_stop_training_inside_an_epoch():
    cfg = toy_config(pairs=16, batch_size=4, epochs=3)
    _, history, steps = train(cfg, generate_dataset(cfg.seed, cfg.pairs, cfg), max_steps=6)
    assert steps == 6
    assert [(e["epoch"], e["steps"]) for e in history] == [(1, 4), (2, 6)]
    assert all(e["reports"] for e in history)


def test_concurrent_evaluation_while_training_matches_serial_runs():
    eval_cfg = replace(CFG, selection="random")
    evaluated = AdapterModel(eval_cfg)
    rng = rng_for(3, "concurrent")
    for _, t in evaluated.store.trainable_items():
        t.data += rng.normal(size=t.shape) * 0.1

    def report_dicts():
        return {k: r.to_dict() for k, r in evaluate_model(evaluated, DATA, use_dsl=True).items()}

    want_reports = report_dicts()
    serial, _, _ = train(CFG, DATA, eval_each_epoch=False)
    want_params = params_bytes(serial)

    results, errors = {}, []

    def run(name, fn):
        try:
            results[name] = fn()
        except Exception as err:
            errors.append((name, err))

    def trainer():
        model, _, _ = train(CFG, DATA, eval_each_epoch=False)
        return params_bytes(model)

    def evaluator():
        return [report_dicts() for _ in range(3)]

    threads = [threading.Thread(target=run, args=("train", trainer))]
    threads += [threading.Thread(target=run, args=(f"eval{i}", evaluator)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often so their steps interleave
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert results.pop("train") == want_params
    for runs in results.values():
        assert runs == [want_reports] * 3
