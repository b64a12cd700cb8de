"""Tape-free video-tower passes run over blocks of videos, bitwise one pass.

Oracle: the same call made while taping, which runs one block by
design. A tape-free ``encode_videos`` or ``batch_scores`` must be
bitwise equal to it for every selection mode and with ASA off, at corpus
sizes that fill one block exactly, leave one video over, or end on a
one-video remainder block. ``_pick_sentences`` always runs tape-free;
its oracle is the same call with a block that holds the whole corpus.
The block is shrunk to a few videos so that small corpora span several.
"""

from dataclasses import replace

import numpy as np
import pytest

from tvadapt import model as model_mod
from tvadapt.config import toy_config
from tvadapt.data import generate_dataset
from tvadapt.model import AdapterModel
from tvadapt.tensor import no_grad, rng_for

BASE = toy_config()
ROWS_PER_VIDEO = BASE.frames * (BASE.visual().patches + 1)  # 6 x 5 on the toy config
PER_BLOCK = 4
SIZES = (1, PER_BLOCK - 1, PER_BLOCK + 1, 3 * PER_BLOCK + 1)
CONFIGS = {mode: replace(BASE, selection=mode) for mode in (
    "text_top_k", "text_bottom_k", "vision_top_k", "vision_bottom_k", "random", "none")}
CONFIGS["asa_off"] = replace(BASE, asa=False)
DATA = generate_dataset(BASE.seed, max(SIZES), BASE)


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(model_mod, "_BLOCK_ROWS", PER_BLOCK * ROWS_PER_VIDEO)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _model(cfg):
    """A model off its identity init, with fractional warp offsets."""
    model = AdapterModel(cfg)
    for name, t in model.store.trainable_items():
        t.data += rng_for(cfg.seed, "blocks", name).normal(size=t.shape) * 0.05
    if cfg.asa:
        rng = rng_for(cfg.seed, "blocks", "offsets")
        for offset in (model.offsets.gamma, model.offsets.delta):
            offset.data[:] = rng.uniform(0.15, 0.45, size=offset.shape)
    return model


def _batch(count):
    """The first ``count`` pairs: synthetic data, so picked sentences differ."""
    return DATA.videos[:count], DATA.tokens[:count]


def _counting_encode(monkeypatch):
    calls = []
    encode = model_mod.encode_video

    def counted(videos, *args, **kwargs):
        calls.append(np.shape(videos))
        return encode(videos, *args, **kwargs)

    monkeypatch.setattr(model_mod, "encode_video", counted)
    return calls


@pytest.mark.parametrize("count", SIZES)
@pytest.mark.parametrize("mode", list(CONFIGS))
def test_tape_free_scores_are_bitwise_the_taped_pass(mode, count, small_blocks, monkeypatch):
    model = _model(CONFIGS[mode])
    videos, tokens = _batch(count)
    taped, v_taped, z_taped = model.batch_scores(videos, tokens, sel_key=("train", 3))
    assert v_taped.requires_grad
    calls = _counting_encode(monkeypatch)
    with no_grad():
        free, v_free, z_free = model.batch_scores(videos, tokens, sel_key=("train", 3))
    blocks = -(-count // PER_BLOCK)
    prepass = blocks if mode.startswith("text") else 0
    assert len(calls) == prepass + blocks
    assert [s[0] for s in calls[prepass:]] == [min(PER_BLOCK, count - i * PER_BLOCK)
                                               for i in range(blocks)]
    for got, want in ((free, taped), (v_free, v_taped), (z_free, z_taped)):
        assert got.shape == want.shape
        assert (_bits(got.data) == _bits(want.data)).all()


@pytest.mark.parametrize("count", SIZES)
@pytest.mark.parametrize("mode", ["text_top_k", "random", "asa_off"])
def test_tape_free_encode_videos_is_bitwise_the_taped_pass(mode, count, small_blocks):
    model = _model(CONFIGS[mode])
    videos, _ = _batch(count)
    candidates = rng_for(BASE.seed, "blocks", "cands").normal(size=(5, BASE.dim_t))
    taped = model.encode_videos(videos, candidates, sel_key=("eval",))
    with no_grad():
        free = model.encode_videos(videos, candidates, sel_key=("eval",))
    assert taped.requires_grad and not free.requires_grad
    assert (_bits(free.data) == _bits(taped.data)).all()


@pytest.mark.parametrize("count", SIZES)
def test_blocked_sentence_pick_is_bitwise_one_block(count, small_blocks, monkeypatch):
    model = _model(BASE)
    videos, _ = _batch(count)
    candidates = rng_for(BASE.seed, "blocks", "cands").normal(size=(5, BASE.dim_t))
    calls = _counting_encode(monkeypatch)
    got = model._pick_sentences(videos, candidates)
    assert len(calls) == -(-count // PER_BLOCK)
    monkeypatch.setattr(model_mod, "_BLOCK_ROWS", len(videos) * ROWS_PER_VIDEO)
    calls.clear()
    want = model._pick_sentences(videos, candidates)
    assert len(calls) == 1
    np.testing.assert_array_equal(got, want)


def test_unbatched_video_is_one_block(monkeypatch):
    monkeypatch.setattr(model_mod, "_BLOCK_ROWS", 1)  # smaller than one frame
    model = _model(BASE)
    videos, _ = _batch(1)
    candidates = rng_for(BASE.seed, "blocks", "cands").normal(size=(5, BASE.dim_t))
    taped = model.encode_videos(videos[0], candidates)
    calls = _counting_encode(monkeypatch)
    with no_grad():
        free = model.encode_videos(videos[0], candidates)
    # the prepass and the forward each see the whole (T, H, W, C) video
    assert calls == [videos[0].shape] * 2
    assert (_bits(free.data) == _bits(taped.data)).all()


@pytest.mark.parametrize("mode", ["random", "asa_off"])
def test_taped_forward_is_one_tower_call(mode, small_blocks, monkeypatch):
    model = _model(CONFIGS[mode])
    videos, _ = _batch(3 * PER_BLOCK + 1)
    calls = _counting_encode(monkeypatch)
    emb = model.encode_videos(videos, sel_key=("train", 0))
    assert emb.requires_grad
    assert calls == [videos.shape]


def test_empty_corpus_is_one_empty_pass(monkeypatch):
    model = _model(BASE)
    videos = DATA.videos[:0]
    calls = _counting_encode(monkeypatch)
    candidates = rng_for(BASE.seed, "blocks", "cands").normal(size=(5, BASE.dim_t))
    with no_grad():
        emb = model.encode_videos(videos, candidates)
    assert emb.shape == (0, BASE.dim_t)
    assert calls == [videos.shape] * 2
