"""Tape-free video-tower passes run over blocks of videos, bitwise one pass.

Oracle: the same call made while taping, which runs one block by
design. A tape-free ``encode_videos`` or ``batch_scores`` must be
bitwise equal to it for every selection mode, with ASA off and with
layer-shared modulation factors, at corpus sizes that fill one block
exactly, leave one video over, or end on a one-video remainder block.
``_pick_sentences`` always runs tape-free; its oracle is the same call
with a block that holds the whole corpus. The block is shrunk to a few
videos so that small corpora span several. The blocks run on helper
threads as well as the caller's; the ``threaded`` cases force two
helpers, so that a one-core host checks that path too.
"""

import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from tvadapt import model as model_mod
from tvadapt import tensor as T
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
CONFIGS["layer_shared"] = replace(BASE, decompose="spatial_temporal_layer")
DATA = generate_dataset(BASE.seed, max(SIZES), BASE)


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(model_mod, "_BLOCK_ROWS", PER_BLOCK * ROWS_PER_VIDEO)


@pytest.fixture
def two_helpers(monkeypatch):
    """Two helper threads on any host, so a one-core machine runs the threaded path too."""
    monkeypatch.setattr(model_mod, "_helper_threads", lambda: 2)


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
    _assert_scores_bitwise_taped(mode, count, monkeypatch)


@pytest.mark.parametrize("count", SIZES)
@pytest.mark.parametrize("mode", list(CONFIGS))
def test_threaded_scores_are_bitwise_the_taped_pass(mode, count, small_blocks, two_helpers,
                                                    monkeypatch):
    _assert_scores_bitwise_taped(mode, count, monkeypatch)


def _assert_scores_bitwise_taped(mode, count, monkeypatch):
    cfg = CONFIGS[mode]
    model = _model(cfg)
    videos, tokens = _batch(count)
    taped, v_taped, z_taped = model.batch_scores(videos, tokens, sel_key=("train", 3))
    assert v_taped.requires_grad
    calls = _counting_encode(monkeypatch)
    with no_grad():
        free, v_free, z_free = model.batch_scores(videos, tokens, sel_key=("train", 3))
    blocks = -(-count // PER_BLOCK)
    prepass = blocks if cfg.asa and cfg.selection.startswith("text") else 0
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
    _assert_pick_bitwise_one_block(count, monkeypatch)


@pytest.mark.parametrize("count", SIZES)
def test_threaded_sentence_pick_is_bitwise_one_block(count, small_blocks, two_helpers,
                                                     monkeypatch):
    _assert_pick_bitwise_one_block(count, monkeypatch)


def _assert_pick_bitwise_one_block(count, monkeypatch):
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


def test_helper_blocks_record_no_tape(small_blocks, two_helpers, monkeypatch):
    model = _model(CONFIGS["random"])  # no prepass: every call below is a forward block
    videos, _ = _batch(3 * PER_BLOCK + 1)
    seen = []
    # the first three blocks each hold their thread until three threads hold one,
    # so the caller and both helpers run a block
    meet = threading.Barrier(3, timeout=30)
    encode = model_mod.encode_video

    def spying(block, *args, **kwargs):
        seen.append((threading.get_ident(), T.recording()))
        if len(seen) <= 3:
            meet.wait()
        out = encode(block, *args, **kwargs)
        assert not out.requires_grad and out._backward is None
        return out

    monkeypatch.setattr(model_mod, "encode_video", spying)
    with no_grad():
        emb = model.encode_videos(videos, sel_key=("train", 3))
    assert len(seen) == 4
    assert len({ident for ident, _ in seen}) == 3
    assert not any(recording for _, recording in seen)
    assert not emb.requires_grad and emb._backward is None and emb._parents == ()


class BlockFailure(RuntimeError):
    pass


@pytest.mark.parametrize("failing", [(0,), (3,), (1, 3)])
def test_block_error_reaches_the_caller_after_every_helper_stopped(failing, small_blocks,
                                                                   two_helpers, monkeypatch):
    model = _model(CONFIGS["asa_off"])
    videos, _ = _batch(3 * PER_BLOCK + 1)
    started = []
    encode = model_mod.encode_video

    def failing_encode(block, *args, **kwargs):
        index = next(i for i in range(4) if np.may_share_memory(block, videos[i * PER_BLOCK]))
        started.append(index)
        if index in failing:
            if index == min(failing):
                time.sleep(0.1)  # so that a later block fails first
            raise BlockFailure(f"block {index}")
        return encode(block, *args, **kwargs)

    monkeypatch.setattr(model_mod, "encode_video", failing_encode)
    threads = threading.active_count()
    with no_grad(), pytest.raises(BlockFailure, match=f"block {min(failing)}$"):
        model.encode_videos(videos)
    ran = list(started)
    assert threading.active_count() == threads
    time.sleep(0.05)
    assert started == ran  # no block started after the call returned
    assert min(failing) in ran and len(set(ran)) == len(ran)


def test_one_usable_core_starts_no_thread(small_blocks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started on one core")

    monkeypatch.setattr(model_mod, "ThreadPoolExecutor", no_pool)
    model = _model(BASE)
    videos, tokens = _batch(3 * PER_BLOCK + 1)
    taped, _, _ = model.batch_scores(videos, tokens)
    calls = _counting_encode(monkeypatch)
    with no_grad():
        free, _, _ = model.batch_scores(videos, tokens)
    assert len(calls) == 2 * 4  # the prepass and the forward, four blocks each, all inline
    assert (_bits(free.data) == _bits(taped.data)).all()


def test_map_blocks_keeps_block_order_under_thread_switches(monkeypatch):
    monkeypatch.setattr(model_mod, "_helper_threads", lambda: 8)  # more workers than cores
    runs = []

    def block(rows):
        runs.append(rows)
        return sum(range(rows * 50))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.monotonic()
        for _ in range(20):
            runs.clear()
            got = model_mod._map_blocks(block, list(range(64)))
            assert got == [sum(range(rows * 50)) for rows in range(64)]
            assert sorted(runs) == list(range(64))  # each block ran exactly once
        assert time.monotonic() - started < 60
    finally:
        sys.setswitchinterval(interval)
