"""Assembled-model tests: identity behavior, hooks, gradient reach."""

import hashlib
import weakref
from dataclasses import replace

import numpy as np
import pytest

from tvadapt import tensor as T
from tvadapt.config import toy_config
from tvadapt.data import generate_dataset
from tvadapt.exceptions import InputError
from tvadapt.model import AdapterModel
from tvadapt.tensor import fd_check, no_grad, rng_for

CFG = toy_config(pairs=6, batch_size=6)
DATA = generate_dataset(CFG.seed, CFG.pairs, CFG)
BASELINE = replace(CFG, decompose="none", asa=False, text_modulation=False)


def baseline_embeddings():
    model = AdapterModel(BASELINE)
    with no_grad():
        z = model.encode_texts(DATA.tokens)
        v = model.encode_videos(DATA.videos)
    return v.data, z.data


def test_identity_init_matches_frozen_backbone_for_every_selection_mode():
    v_base, z_base = baseline_embeddings()
    for mode in ("text_top_k", "text_bottom_k", "vision_top_k",
                 "vision_bottom_k", "random", "none"):
        model = AdapterModel(replace(CFG, selection=mode))
        with no_grad():
            z = model.encode_texts(DATA.tokens)
            v = model.encode_videos(DATA.videos, candidates=z.data)
        assert (z.data == z_base).all(), mode
        assert (v.data == v_base).all(), mode


def test_nonzero_offsets_change_video_embeddings():
    model = AdapterModel(CFG)
    model.offsets.delta.data[:] = 0.6
    v_base, _ = baseline_embeddings()
    with no_grad():
        z = model.encode_texts(DATA.tokens)
        v = model.encode_videos(DATA.videos, candidates=z.data)
    assert not np.allclose(v.data, v_base)


def test_modulation_changes_both_towers():
    model = AdapterModel(CFG)
    for layer in model.video_mod.layers:
        model.video_mod.params[layer]["c_a"].data[:] += 0.2
    for layer in model.text_mod.layers:
        model.text_mod.params[layer]["s_t"].data[:] += 0.1
    v_base, z_base = baseline_embeddings()
    with no_grad():
        z = model.encode_texts(DATA.tokens)
        v = model.encode_videos(DATA.videos, candidates=z.data)
    assert not np.allclose(z.data, z_base)
    assert not np.allclose(v.data, v_base)


def test_encoding_is_deterministic_across_calls():
    model = AdapterModel(replace(CFG, selection="random"))
    with no_grad():
        z = model.encode_texts(DATA.tokens)
        v1 = model.encode_videos(DATA.videos, candidates=z.data, sel_key=("eval",))
        v2 = model.encode_videos(DATA.videos, candidates=z.data, sel_key=("eval",))
    assert (v1.data == v2.data).all()


def test_text_selection_requires_candidates():
    model = AdapterModel(CFG)
    with pytest.raises(InputError):
        model.encode_videos(DATA.videos)


def test_gradients_reach_every_adapter_group():
    model = AdapterModel(CFG)
    rng = rng_for(1, "nudge")
    model.offsets.gamma.data[:] = rng.uniform(0.2, 0.4, size=model.offsets.gamma.shape)
    model.offsets.delta.data[:] = rng.uniform(0.2, 0.4, size=model.offsets.delta.shape)
    for name, t in model.store.trainable_items():
        if name.startswith(("adapter/lorm", "adapter/textmod")):
            t.data += rng.normal(size=t.shape) * 0.05
    loss = model.batch_loss(DATA.videos, DATA.tokens, sel_key=("train", 0))
    loss.backward()
    for group, prefix in (
        ("lorm", "adapter/lorm/"),
        ("textmod", "adapter/textmod/"),
        ("offsets", "adapter/asa/"),
        ("proj", "adapter/proj/"),
        ("temperature", "adapter/temperature/"),
    ):
        total = 0.0
        for name, t in model.store.trainable_items():
            if name.startswith(prefix) and t.grad is not None:
                total += float(np.abs(t.grad).sum())
        assert total > 0.0, group


def test_lorm_factor_gradients_nonzero_per_layer():
    model = AdapterModel(CFG)
    rng = rng_for(2, "factors")
    for layer in model.video_mod.layers:
        for key in ("c_a", "c_b", "s_a", "s_b"):
            model.video_mod.params[layer][key].data += rng.normal(
                size=model.video_mod.params[layer][key].shape) * 0.05
    loss = model.batch_loss(DATA.videos, DATA.tokens, sel_key=("train", 0))
    loss.backward()
    for layer in model.video_mod.layers:
        for key in ("c_a", "c_b", "s_a", "s_b"):
            grad = model.video_mod.params[layer][key].grad
            assert grad is not None and np.abs(grad).max() > 0, (layer, key)


def test_backbone_untouched_by_backward():
    model = AdapterModel(CFG)
    before = model.store.hash_bytes("backbone/")
    loss = model.batch_loss(DATA.videos, DATA.tokens, sel_key=("train", 0))
    loss.backward()
    assert model.store.hash_bytes("backbone/") == before
    for name, t in model.store.items():
        if name.startswith("backbone/"):
            assert t.grad is None


# blake2b of every trainable gradient after one taped loss on DATA, taken
# before the tape stopped holding forward values
HELD_VALUES_GRAD_DIGEST = "a809fd7d81465d365b1a66f5889f0694"


def test_tape_holds_only_what_backward_reads(monkeypatch):
    # ASA on: the video blocks are hooked, the text blocks are not. While the
    # loss graph is alive, the values no backward reads are already freed:
    # every taped LN output and GELU output (each feeds a frozen linear) and
    # every taped attention-score array (softmax's input, read by nothing)
    refs = {"layer_norm": [], "gelu": [], "scores": []}

    def watch(kind, fn, value):
        def watched(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out.requires_grad:
                refs[kind].append(weakref.ref(value(args, out)))
            return out
        return watched

    monkeypatch.setattr(T, "layer_norm", watch("layer_norm", T.layer_norm, lambda a, out: out.data))
    monkeypatch.setattr(T, "gelu", watch("gelu", T.gelu, lambda a, out: out.data))
    monkeypatch.setattr(T, "softmax", watch("scores", T.softmax, lambda a, out: a[0].data))
    model = AdapterModel(CFG)
    loss = model.batch_loss(DATA.videos, DATA.tokens, sel_key=("train", 0))
    for kind, held in refs.items():
        assert held, kind
        assert [ref() for ref in held] == [None] * len(held), kind
    model.store.zero_grad()
    loss.backward()
    digest = hashlib.blake2b(digest_size=16)
    for name, t in model.store.trainable_items():
        assert t.grad is not None, name
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(t.grad).tobytes())
    assert digest.hexdigest() == HELD_VALUES_GRAD_DIGEST


def test_light_layer_subset_restricts_hooks():
    cfg = replace(CFG, adapter_layers="3,4")
    model = AdapterModel(cfg)
    assert model.video_mod.layers == [3, 4]
    assert "adapter/lorm/layer1/c_a" not in model.store
    with no_grad():
        z = model.encode_texts(DATA.tokens)
        v = model.encode_videos(DATA.videos, candidates=z.data)
    assert v.shape == (len(DATA), CFG.dim_t)


def test_identity_init_holds_across_random_configurations():
    # randomized small dims guard against shape coupling at odd sizes
    rng = rng_for(7, "cfg-fuzz")
    for trial in range(6):
        heads = int(rng.choice([1, 2]))
        dim_v = int(rng.choice([8, 12, 16]))
        while dim_v % heads:
            dim_v += 1
        patch = int(rng.choice([1, 2]))
        grid = int(rng.choice([2, 3]))
        frames = int(rng.integers(2, 5))
        cfg = toy_config(
            seed=trial, layers=int(rng.integers(1, 4)), dim_v=dim_v, heads_v=heads,
            patch=patch, frame_h=patch * grid, frame_w=patch * grid, frames=frames,
            channels=int(rng.integers(1, 3)), text_layers=int(rng.integers(1, 3)),
            dim_t=8, heads_t=2, vocab=32, max_words=5,
            rank=int(rng.integers(1, min(frames, dim_v) + 1)),
            top_k=int(rng.integers(0, grid * grid + 1)),
            selection=str(rng.choice(["text_top_k", "vision_bottom_k", "random", "none"])),
            decompose=str(rng.choice(["temporal", "spatial_temporal",
                                      "spatial_temporal_layer"])),
            pairs=3, batch_size=3,
        )
        data = generate_dataset(cfg.seed, cfg.pairs, cfg)
        model = AdapterModel(cfg)
        base = AdapterModel(replace(cfg, decompose="none", asa=False,
                                    text_modulation=False))
        with no_grad():
            z = model.encode_texts(data.tokens)
            v = model.encode_videos(data.videos, candidates=z.data)
            zb = base.encode_texts(data.tokens)
            vb = base.encode_videos(data.videos)
        assert (z.data == zb.data).all(), cfg
        assert (v.data == vb.data).all(), cfg


@pytest.mark.parametrize("overrides", [
    {"decompose": "spatial_temporal"},
    {"decompose": "spatial_temporal_layer"},
    {"text_lowrank": True},
], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
def test_whole_model_gradients_pass_fd_for_identity_built_modes(overrides):
    cfg = toy_config(pairs=2, batch_size=2, layers=2, text_layers=2, asa=False, **overrides)
    data = generate_dataset(cfg.seed, cfg.pairs, cfg)
    model = AdapterModel(cfg)
    for t in (model.proj_w, model.proj_b, model.log_tau):  # check the modulation alone
        t.requires_grad = False
    rng = rng_for(8, "fd-modes")
    # a generic point: 0.3-scale noise leaves no gradient coordinate near
    # fd_check's 1e-8 floor, where central differences are all rounding
    for _, t in model.store.trainable_items():
        t.data += rng.normal(size=t.shape) * 0.3

    def fn(store):
        return model.batch_loss(data.videos, data.tokens, sel_key=("fd",))

    assert fd_check(fn, model.store, eps=1e-5) < 1e-4
