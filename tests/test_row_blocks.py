"""Taped frozen blocks split by rows over threads, bitwise one pass.

Oracle: the same taped step (forward, contrastive loss, backward) on one
usable core, where every block runs as one. With two or three usable
cores forced through ``os.sched_getaffinity``, each taped block with no
attention hook runs its leading rows in blocks on helper threads
(``tensor.row_blocks``). The video and text embeddings,
the loss and every trainable leaf's gradient must keep their bits. The
split floor ``_SPLIT_MIN`` is lowered to one element except where the
default rule itself is checked, so that the small batches split too.
The thread tests check that every helper is joined, that a failed block
raises the lowest-numbered block's error, and that no helper starts
while another thread is alive or on one core.
"""

import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import _bits

from tvadapt import backbone
from tvadapt import tensor as T
from tvadapt.config import toy_config
from tvadapt.data import generate_dataset
from tvadapt.exceptions import ContractError
from tvadapt.model import AdapterModel
from tvadapt.retrieval import contrastive_loss
from tvadapt.tensor import Tensor, rng_for

# the train_wide_noasa benchmark shape
WIDE = toy_config(layers=4, dim_v=64, frame_h=12, frame_w=12, patch=4, frames=8, dim_t=48,
                  pairs=16, batch_size=16, asa=False, seed=7)
DATA = generate_dataset(WIDE.seed, 16, WIDE)
CORES = {1: {0}, 2: {0, 1}, 3: {0, 1, 2}}


def _use_cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: CORES[count])


def _model(cfg):
    """A model off its identity init, so that every gradient path carries signal."""
    model = AdapterModel(cfg)
    for name, t in model.store.trainable_items():
        t.data += rng_for(cfg.seed, "row-blocks", name).normal(size=t.shape) * 0.05
    return model


def _spy_splits(monkeypatch):
    """Log ``parts`` of every ``row_blocks`` call, paired with whether its block was hooked."""
    calls = []
    row_blocks, vit_block = T.row_blocks, backbone.vit_block

    def logging_block(x, store, prefix, heads, hook=None, row=None):
        calls.append([hook is not None, None])
        return vit_block(x, store, prefix, heads, hook, row=row)

    def logging_split(fn, x, parts):
        calls[-1][1] = parts
        return row_blocks(fn, x, parts)

    monkeypatch.setattr(backbone, "vit_block", logging_block)
    monkeypatch.setattr(T, "row_blocks", logging_split)
    return calls


def _step(model, count, monkeypatch, cores, spy=False):
    """Bits of (video emb, text emb, loss, {leaf: grad}) of one taped step on ``cores``
    cores, and with ``spy`` the logged ``row_blocks`` calls of the step."""
    videos, tokens = DATA.videos[:count], DATA.tokens[:count]
    _use_cores(monkeypatch, 1)
    prefix = model.frozen_prefix(videos, tokens)
    _use_cores(monkeypatch, cores)
    calls = _spy_splits(monkeypatch) if spy else None
    model.store.zero_grad()
    scores, v, z = model.batch_scores(videos, tokens, sel_key=("train", 0), prefix=prefix)
    loss = contrastive_loss(scores, model.log_tau)
    loss.backward()
    grads = {name: _bits(t.grad) for name, t in model.store.trainable_items()
             if t.grad is not None}
    return (_bits(v.data), _bits(z.data), _bits(loss.data), grads), calls


def _assert_split_is_bitwise(cfg, count, cores, monkeypatch):
    model = _model(cfg)
    want, _ = _step(model, count, monkeypatch, 1)
    threads = threading.active_count()
    got, calls = _step(model, count, monkeypatch, cores, spy=True)
    assert threading.active_count() == threads
    assert any(parts > 1 for _, parts in calls)  # some block did split
    for hooked, parts in calls:
        assert parts >= 1 and (parts == 1 or not hooked)
    for g, w in zip(got[:3], want[:3]):
        assert g.shape == w.shape and (g == w).all()
    assert got[3].keys() == want[3].keys() and len(want[3]) > 0
    for name in want[3]:
        assert (got[3][name] == want[3][name]).all(), name
    return calls


@pytest.fixture
def split_every_block(monkeypatch):
    monkeypatch.setattr(backbone, "_SPLIT_MIN", 1)


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("decompose",
                         ["temporal", "spatial_temporal", "spatial_temporal_layer", "none"])
def test_wide_step_split_is_bitwise_one_block(decompose, cores, split_every_block,
                                              monkeypatch):
    _assert_split_is_bitwise(replace(WIDE, decompose=decompose), 16, cores, monkeypatch)


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("count", [4, 5, 16])  # 5 rows do not divide into equal blocks
def test_split_is_bitwise_at_every_batch_size(count, cores, split_every_block, monkeypatch):
    calls = _assert_split_is_bitwise(WIDE, count, cores, monkeypatch)
    assert max(parts for _, parts in calls) == min(cores, count // 2)


@pytest.mark.parametrize("cores", [2, 3])
def test_text_lowrank_split_is_bitwise(cores, split_every_block, monkeypatch):
    _assert_split_is_bitwise(replace(WIDE, text_lowrank=True), 16, cores, monkeypatch)


@pytest.mark.parametrize("cores", [2, 3])
def test_cls_only_last_block_split_is_bitwise(cores, split_every_block, monkeypatch):
    store = AdapterModel(WIDE).store
    x = Tensor(rng_for(1, "cls", "x").normal(size=(6, WIDE.frames, 10, WIDE.dim_v)),
               requires_grad=True)
    weight = rng_for(1, "cls", "w").normal(size=(6, WIDE.frames, 1, WIDE.dim_v))
    runs = []
    for count in (1, cores):
        _use_cores(monkeypatch, count)
        x.grad = None
        out = backbone.vit_block(x, store, "backbone/visual/block4", WIDE.heads_v, row=0)
        T.tsum(out * weight).backward()
        runs.append((_bits(out.data), _bits(x.grad)))
    (out_split, grad_split), (out_one, grad_one) = runs[1], runs[0]
    assert out_split.shape == weight.shape
    assert (out_split == out_one).all() and (grad_split == grad_one).all()


def test_identity_hook_keeps_a_split_size_block_whole(monkeypatch):
    # the split reads whether a hook is present, not what the hook computes
    store = AdapterModel(WIDE).store
    x = Tensor(rng_for(1, "hooked", "x").normal(size=(8, WIDE.frames, 10, WIDE.dim_v)),
               requires_grad=True)
    assert x.data.size >= backbone._SPLIT_MIN
    _use_cores(monkeypatch, 2)
    calls = _spy_splits(monkeypatch)
    for hook in (lambda x_in, q, k, v: (k, v), None):
        backbone.vit_block(x, store, "backbone/visual/block2", WIDE.heads_v, hook)
    assert calls == [[True, 1], [False, 2]]


@pytest.mark.parametrize("cores", [2, 3])
def test_hooked_asa_layers_stay_one_block(cores, split_every_block, monkeypatch):
    cfg = replace(WIDE, asa=True, selection="random")
    calls = _assert_split_is_bitwise(cfg, 8, cores, monkeypatch)
    hooked = [parts for hooked, parts in calls if hooked]
    assert hooked and set(hooked) == {1}


def test_default_floor_splits_the_wide_video_blocks_only(monkeypatch):
    # at batch 16 a wide video block input holds 81,920 elements and a text
    # block input 6,912, so only the three video blocks after the prefix split
    calls = _assert_split_is_bitwise(WIDE, 16, 2, monkeypatch)
    assert [parts for _, parts in calls] == [1, 1, 2, 2, 2]  # text blocks 2-3, video 2-4


# -- threads -------------------------------------------------------------------


class BlockFailure(RuntimeError):
    pass


def _rows(n=6, width=4):
    return Tensor(rng_for(2, "rows").normal(size=(n, width)), requires_grad=True)


@pytest.mark.parametrize("failing", [(0,), (2,), (1, 2)])
def test_forward_failure_raises_the_lowest_block_error(failing):
    x = _rows()

    def fn(block):
        index = int(np.flatnonzero((x.data == block.data[0]).all(axis=1))[0]) // 2
        if index in failing:
            if index == min(failing):
                time.sleep(0.1)  # so that a later block fails first
            raise BlockFailure(f"block {index}")
        return T.exp(block)

    threads = threading.active_count()
    with pytest.raises(BlockFailure, match=f"block {min(failing)}$"):
        T.row_blocks(fn, x, 3)
    assert threading.active_count() == threads


@pytest.mark.parametrize("failing", [(0,), (2,), (1, 2)])
def test_backward_failure_raises_the_lowest_block_error(failing):
    x = _rows()

    def fn(block):
        index = int(np.flatnonzero((x.data == block.data[0]).all(axis=1))[0]) // 2
        if index not in failing:
            return T.exp(block)

        def _bw(g):
            if index == min(failing):
                time.sleep(0.1)  # so that a later block fails first
            raise BlockFailure(f"block {index}")

        return T._make(block.data * 2.0, (block,), _bw)

    threads = threading.active_count()
    out = T.row_blocks(fn, x, 3)
    with pytest.raises(BlockFailure, match=f"block {min(failing)}$"):
        T.tsum(out).backward()
    assert threading.active_count() == threads
    assert x.grad is None


def test_split_keeps_grad_mode_and_thread_count():
    x = _rows()
    seen = []

    def fn(block):
        seen.append(T.recording())
        return T.softmax(block, axis=-1) * block

    threads = threading.active_count()
    out = T.row_blocks(fn, x, 3)
    assert threading.active_count() == threads
    T.tsum(out * out).backward()
    assert threading.active_count() == threads
    with T.no_grad():
        free = T.row_blocks(fn, x, 3)
    assert seen == [True] * 3 + [False] * 3
    assert not free.requires_grad and free._backward is None
    want = _rows()
    ref = fn(want)
    T.tsum(ref * ref).backward()
    assert (_bits(out.data) == _bits(ref.data)).all()
    assert (_bits(x.grad) == _bits(want.grad)).all()


def test_negative_zero_gradients_keep_their_sign():
    # a gradient buffer filled by adding into zeros would turn -0.0 into +0.0
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    out = T.row_blocks(lambda block: block * -0.0, x, 2)
    T.tsum(out).backward()
    assert (_bits(x.grad) == _bits(np.full((4, 3), -0.0))).all()


@pytest.mark.parametrize("parts", [0, 7])
def test_row_blocks_rejects_more_blocks_than_rows(parts):
    with pytest.raises(ContractError):
        T.row_blocks(T.exp, _rows(), parts)


def _count_thread_starts(monkeypatch):
    starts = []
    start = threading.Thread.start

    def counting(thread):
        starts.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return starts


@pytest.mark.parametrize("cores", [1, 2])
def test_one_helper_thread_per_split_block_call(cores, monkeypatch):
    model = _model(WIDE)
    starts = _count_thread_starts(monkeypatch)
    _, calls = _step(model, 16, monkeypatch, cores, spy=True)
    splits = sum(parts > 1 for _, parts in calls)
    assert splits == (3 if cores == 2 else 0)
    assert len(starts) == 2 * splits  # one helper in the forward, one in the backward


def test_no_helper_thread_while_another_thread_is_alive(monkeypatch):
    model = _model(WIDE)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        starts = _count_thread_starts(monkeypatch)
        _, calls = _step(model, 16, monkeypatch, 2, spy=True)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert starts == [] and {parts for _, parts in calls} == {1}
