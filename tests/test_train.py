"""Training-loop and checkpoint tests."""

import os
from dataclasses import replace

import numpy as np
import pytest

from tvadapt.checkpoint import load_checkpoint, load_model, save_checkpoint
from tvadapt.config import toy_config
from tvadapt.data import generate_dataset
from tvadapt.exceptions import ContractError, NumericError, VersionError
from tvadapt.model import AdapterModel
from tvadapt.tensor import no_grad
from tvadapt.train import Adam, evaluate_model, lr_at, train

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
    cfg = replace(CFG, decompose="none", asa=False, text_modulation=False,
                  train_head=False, epochs=4)
    model, history, _ = train(cfg, DATA, eval_each_epoch=False)
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
    assert model.backbone_hash() == AdapterModel(CFG).backbone_hash()


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
    before_frozen = model.backbone_hash()
    before_proj = model.proj_w.data.copy()
    Adam().step(model.store, 1e-2)
    assert model.backbone_hash() == before_frozen
    assert not np.allclose(model.proj_w.data, before_proj)


def test_evaluate_includes_dsl_rows_when_asked():
    model = AdapterModel(CFG)
    reports = evaluate_model(model, DATA, use_dsl=True)
    assert set(reports) == {
        "video->text", "text->video", "video->text (dsl)", "text->video (dsl)",
    }


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


def test_checkpoint_rejects_bad_magic_and_version(tmp_path):
    path = os.path.join(tmp_path, "bad.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(VersionError):
        load_checkpoint(path)
    model = AdapterModel(CFG)
    good = os.path.join(tmp_path, "good.ckpt")
    save_checkpoint(good, model)
    blob = bytearray(open(good, "rb").read())
    blob[4] = 99  # version field
    with open(good, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(VersionError):
        load_checkpoint(good)


def test_checkpoint_restore_requires_matching_model(tmp_path):
    model = AdapterModel(CFG)
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(path, model)
    ckpt = load_checkpoint(path)
    ckpt.params.pop("adapter/proj/w")
    from tvadapt.checkpoint import restore_model

    with pytest.raises(VersionError):
        restore_model(ckpt)
