"""Tape-free video-tower passes run over blocks of videos, bitwise one pass.

Oracle: the same call made while taping, which runs one block by
design. A tape-free ``encode_videos`` or ``batch_scores`` must be
bitwise equal to it for every selection mode, with ASA off and with
layer-shared modulation factors, at corpus sizes that fill one block
exactly, leave one video over, or end on a one-video remainder block.
``_pick_sentences`` always runs tape-free; its oracle is the same call
with a block that holds the whole corpus. The block is shrunk to a few
videos so that small corpora span several. The caller and one forked
worker process per further usable core each run an equal share of the
videos in blocks; with text selection each block picks its sentences
in the same process just before its warped pass, so a pass forks its
workers once. The ``forked`` cases force three processes, so that a
one-core host checks that path too; the ``threaded`` cases keep another
thread alive, so that every block runs inline in the caller. Each test
ends with no child process left.
"""

import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import _bits, assert_no_child_left

from tvadapt import model as model_mod
from tvadapt import tensor as T
from tvadapt import workers
from tvadapt.config import toy_config
from tvadapt.data import generate_dataset
from tvadapt.model import AdapterModel
from tvadapt.tensor import no_grad, rng_for

BASE = toy_config()
ROWS_PER_VIDEO = BASE.frames * (BASE.patches + 1)  # 6 x 5 on the toy config
PER_BLOCK = 4
SIZES = (1, PER_BLOCK - 1, PER_BLOCK + 1, 3 * PER_BLOCK + 1)
CONFIGS = {mode: replace(BASE, selection=mode) for mode in (
    "text_top_k", "text_bottom_k", "vision_top_k", "vision_bottom_k", "random", "none")}
CONFIGS["asa_off"] = replace(BASE, asa=False)
CONFIGS["layer_shared"] = replace(BASE, decompose="spatial_temporal_layer")
DATA = generate_dataset(BASE.seed, max(SIZES), BASE)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert_no_child_left()


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(model_mod, "_BLOCK_ROWS", PER_BLOCK * ROWS_PER_VIDEO)


@pytest.fixture
def three_processes(monkeypatch):
    """Three usable cores on any host, so a one-core machine forks workers too."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


@pytest.fixture
def another_thread():
    """A second live thread, so that every block runs inline in the caller."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    yield
    release.set()
    thread.join(timeout=60)
    assert not thread.is_alive()


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


def _block_sizes(count, processes):
    """Tower calls of a tape-free pass, in corpus order: one equal share of
    the videos per process (no more shares than blocks), each share cut
    into blocks of at most PER_BLOCK videos."""
    parts = min(processes, count, -(-count // PER_BLOCK))
    bounds = [i * count // parts for i in range(parts + 1)]
    return [min(PER_BLOCK, hi - i) for lo, hi in zip(bounds, bounds[1:])
            for i in range(lo, hi, PER_BLOCK)]


def test_block_sizes_follow_equal_shares():
    assert _block_sizes(13, 1) == [4, 4, 4, 1]
    assert _block_sizes(13, 3) == [4, 4, 4, 1]
    assert _block_sizes(5, 2) == [2, 3]
    assert _block_sizes(3, 3) == [3]
    assert _block_sizes(128, 2) == [4] * 32


def _counting_encode(monkeypatch, call_log):
    """Log (address of the first video, shape, process id, hooked) of every
    tower call, in the caller and in the workers; a block is a view of the
    corpus array, at the same address in a forked worker. ``hooked`` is
    whether the call attends through any hook: the sentence pick's does not."""
    encode = model_mod.encode_video

    def counted(videos, *args, **kwargs):
        call_log.add((np.asarray(videos).__array_interface__["data"][0], np.shape(videos),
                      os.getpid(), bool(kwargs.get("attention"))))
        return encode(videos, *args, **kwargs)

    monkeypatch.setattr(model_mod, "encode_video", counted)


def _in_corpus_order(calls):
    """The shapes of the logged calls of one pass, in corpus order."""
    return [call[1] for call in sorted(calls)]


def _shapes(calls):
    return [call[1] for call in calls]


@pytest.mark.parametrize("count", SIZES)
@pytest.mark.parametrize("mode", list(CONFIGS))
def test_tape_free_scores_are_bitwise_the_taped_pass(mode, count, small_blocks, monkeypatch,
                                                     call_log):
    _assert_scores_bitwise_taped(mode, count, monkeypatch, call_log)


@pytest.mark.parametrize("count", SIZES)
@pytest.mark.parametrize("mode", list(CONFIGS))
def test_forked_scores_are_bitwise_the_taped_pass(mode, count, small_blocks, three_processes,
                                                  monkeypatch, call_log):
    _assert_scores_bitwise_taped(mode, count, monkeypatch, call_log)


@pytest.mark.parametrize("count", SIZES)
@pytest.mark.parametrize("mode", list(CONFIGS))
def test_threaded_scores_are_bitwise_the_taped_pass(mode, count, small_blocks, three_processes,
                                                    another_thread, monkeypatch, call_log):
    _assert_scores_bitwise_taped(mode, count, monkeypatch, call_log)


def _assert_scores_bitwise_taped(mode, count, monkeypatch, call_log):
    cfg = CONFIGS[mode]
    model = _model(cfg)
    videos, tokens = _batch(count)
    taped, v_taped, z_taped = model.batch_scores(videos, tokens, sel_key=("train", 3))
    assert v_taped.requires_grad
    _counting_encode(monkeypatch, call_log)
    sizes = _block_sizes(count, workers.processes())
    with no_grad():
        free, v_free, z_free = model.batch_scores(videos, tokens, sel_key=("train", 3))
    calls = call_log.records()
    prepass = cfg.asa and cfg.selection.startswith("text")
    assert len(calls) == (1 + prepass) * len(sizes)
    forward = []
    for pid in {call[2] for call in calls}:
        mine = [call for call in calls if call[2] == pid]  # in call order
        if prepass:  # each block's warped call directly follows its pick's, on that block
            picks, mine = mine[::2], mine[1::2]
            assert [call[:2] for call in picks] == [call[:2] for call in mine]
            assert not any(hooked for *_, hooked in picks)
        assert all(hooked == cfg.asa for *_, hooked in mine)
        forward += mine
    assert [s[0] for s in _in_corpus_order(forward)] == sizes
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


@pytest.mark.parametrize("decompose, rows", [("temporal", BASE.patches + 1),
                                             ("none", 1)])  # f = 1, or the last block's CLS rows
def test_forked_frozen_prefix_is_bitwise_the_inline_prefix(decompose, rows, small_blocks,
                                                           three_processes, monkeypatch,
                                                           call_log):
    model = _model(replace(BASE, decompose=decompose))
    videos, tokens = _batch(3 * PER_BLOCK + 1)
    encode = model_mod.encode_video

    def logging_pid(*args, **kwargs):
        call_log.add(os.getpid())
        return encode(*args, **kwargs)

    monkeypatch.setattr(model_mod, "encode_video", logging_pid)
    forked = model.frozen_prefix(videos, tokens)
    assert_no_child_left()
    assert len(set(call_log.records())) == 3  # the caller and two forked workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    call_log.clear()
    inline = model.frozen_prefix(videos, tokens)
    assert set(call_log.records()) == {os.getpid()}
    assert forked[0].shape == (len(videos), BASE.frames, rows, BASE.dim_v)
    for got, want in zip(forked, inline):
        assert got.shape == want.shape
        assert (_bits(got) == _bits(want)).all()


@pytest.mark.parametrize("count", SIZES)
def test_blocked_sentence_pick_is_bitwise_one_block(count, small_blocks, monkeypatch, call_log):
    _assert_pick_bitwise_one_block(count, monkeypatch, call_log)


@pytest.mark.parametrize("count", SIZES)
def test_forked_sentence_pick_is_bitwise_one_block(count, small_blocks, three_processes,
                                                   monkeypatch, call_log):
    _assert_pick_bitwise_one_block(count, monkeypatch, call_log)


@pytest.mark.parametrize("count", SIZES)
def test_threaded_sentence_pick_is_bitwise_one_block(count, small_blocks, three_processes,
                                                     another_thread, monkeypatch, call_log):
    _assert_pick_bitwise_one_block(count, monkeypatch, call_log)


def _assert_pick_bitwise_one_block(count, monkeypatch, call_log):
    model = _model(BASE)
    videos, _ = _batch(count)
    candidates = rng_for(BASE.seed, "blocks", "cands").normal(size=(5, BASE.dim_t))
    _counting_encode(monkeypatch, call_log)
    sizes = _block_sizes(count, workers.processes())
    got = model._pick_sentences(videos, candidates)
    assert [s[0] for s in _in_corpus_order(call_log.records())] == sizes
    monkeypatch.setattr(model_mod, "_BLOCK_ROWS", len(videos) * ROWS_PER_VIDEO)
    call_log.clear()
    want = model._pick_sentences(videos, candidates)
    assert len(call_log.records()) == 1
    np.testing.assert_array_equal(got, want)


def test_unbatched_video_is_one_block(monkeypatch, call_log):
    monkeypatch.setattr(model_mod, "_BLOCK_ROWS", 1)  # smaller than one frame
    model = _model(BASE)
    videos, _ = _batch(1)
    candidates = rng_for(BASE.seed, "blocks", "cands").normal(size=(5, BASE.dim_t))
    taped = model.encode_videos(videos[0], candidates)
    _counting_encode(monkeypatch, call_log)
    with no_grad():
        free = model.encode_videos(videos[0], candidates)
    # the prepass and the forward each see the whole (T, H, W, C) video
    assert _shapes(call_log.records()) == [videos[0].shape] * 2
    assert (_bits(free.data) == _bits(taped.data)).all()


@pytest.mark.parametrize("mode", ["random", "asa_off"])
def test_taped_forward_is_one_tower_call(mode, small_blocks, monkeypatch, call_log):
    model = _model(CONFIGS[mode])
    videos, _ = _batch(3 * PER_BLOCK + 1)
    _counting_encode(monkeypatch, call_log)
    emb = model.encode_videos(videos, sel_key=("train", 0))
    assert emb.requires_grad
    assert _shapes(call_log.records()) == [videos.shape]


def test_empty_corpus_is_one_empty_pass(monkeypatch, call_log):
    model = _model(BASE)
    videos = DATA.videos[:0]
    _counting_encode(monkeypatch, call_log)
    candidates = rng_for(BASE.seed, "blocks", "cands").normal(size=(5, BASE.dim_t))
    with no_grad():
        emb = model.encode_videos(videos, candidates)
    assert emb.shape == (0, BASE.dim_t)
    assert _shapes(call_log.records()) == [videos.shape] * 2


def test_helper_blocks_record_no_tape(small_blocks, three_processes, monkeypatch, call_log):
    model = _model(CONFIGS["random"])  # no prepass: every call below is a forward block
    videos, _ = _batch(3 * PER_BLOCK + 1)
    encode = model_mod.encode_video

    def spying(block, *args, **kwargs):
        out = encode(block, *args, **kwargs)
        call_log.add((os.getpid(), T.recording(), out.requires_grad or out._backward is not None))
        return out

    monkeypatch.setattr(model_mod, "encode_video", spying)
    with no_grad():
        emb = model.encode_videos(videos, sel_key=("train", 3))
    seen = call_log.records()
    assert len(seen) == 4  # shares of 4, 4 and 5 videos: blocks of 4 | 4 | 4, 1
    assert len({pid for pid, _, _ in seen}) == 3  # the caller and two workers
    assert not any(recording or taped for _, recording, taped in seen)
    assert not emb.requires_grad and emb._backward is None and emb._parents == ()


class BlockFailure(RuntimeError):
    pass


@pytest.mark.parametrize("failing", [(0,), (3,), (1, 3)])
def test_block_error_reaches_the_caller_after_every_helper_stopped(failing, small_blocks,
                                                                   three_processes, monkeypatch,
                                                                   call_log):
    # three shares of 4, 4 and 5 videos: block 0 runs in the caller, block 1
    # in the first worker, blocks 2 and 3 in the second
    model = _model(CONFIGS["asa_off"])
    videos, _ = _batch(3 * PER_BLOCK + 1)
    encode = model_mod.encode_video

    def failing_encode(block, *args, **kwargs):
        index = next(i for i in range(4) if np.may_share_memory(block, videos[i * PER_BLOCK]))
        call_log.add(index)
        if index in failing:
            if index == min(failing):
                time.sleep(0.1)  # so that a later block fails first
            raise BlockFailure(f"block {index}")
        return encode(block, *args, **kwargs)

    monkeypatch.setattr(model_mod, "encode_video", failing_encode)
    threads = threading.active_count()
    with no_grad(), pytest.raises(BlockFailure, match=f"block {min(failing)}$"):
        model.encode_videos(videos)
    assert_no_child_left()  # so no block can start after the call returned
    assert threading.active_count() == threads
    ran = call_log.records()
    assert min(failing) in ran and len(set(ran)) == len(ran)


def test_one_usable_core_starts_no_thread(small_blocks, monkeypatch, call_log):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_fork():
        raise AssertionError("a worker was forked on one core")

    monkeypatch.setattr(os, "fork", no_fork)
    model = _model(BASE)
    videos, tokens = _batch(3 * PER_BLOCK + 1)
    taped, _, _ = model.batch_scores(videos, tokens)
    _counting_encode(monkeypatch, call_log)
    threads = threading.active_count()
    with no_grad():
        free, _, _ = model.batch_scores(videos, tokens)
    assert threading.active_count() == threads
    assert len(call_log.records()) == 2 * 4  # the prepass and the forward, four blocks each, all inline
    assert (_bits(free.data) == _bits(taped.data)).all()


def test_tape_free_scores_fork_once_per_further_process(small_blocks, three_processes,
                                                       monkeypatch):
    # each block picks its sentences inside its own share, so the pick and
    # the warped pass share one fan-out
    model = _model(CONFIGS["text_top_k"])
    videos, tokens = _batch(3 * PER_BLOCK + 1)
    forks = []
    fork = workers._fork

    def counting_fork(fn, share):
        forks.append(share)
        return fork(fn, share)

    monkeypatch.setattr(workers, "_fork", counting_fork)
    with no_grad():
        model.batch_scores(videos, tokens)
    assert len(forks) == workers.processes() - 1 == 2
    assert_no_child_left()


def test_map_shares_keeps_share_order_with_more_workers_than_cores(monkeypatch, call_log):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    started = time.monotonic()
    for _ in range(5):
        call_log.clear()

        def share(part):
            call_log.add((part.start, part.stop, os.getpid()))
            return [sum(range(i * 50)) for i in range(part.start, part.stop)]

        got = workers.map_shares(share, 64)
        assert [x for part in got for x in part] == [sum(range(i * 50)) for i in range(64)]
        shares = sorted(call_log.records())
        assert [(lo, hi) for lo, hi, _ in shares] == [(8 * i, 8 * i + 8) for i in range(8)]
        assert len({pid for _, _, pid in shares}) == 8  # the caller and seven workers
        assert_no_child_left()
    assert time.monotonic() - started < 60
