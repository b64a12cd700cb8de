"""The video tower's last block computes only the CLS rows the heads read.

Oracle: a test-local copy of the last block as it was before it took a
``row``. It runs ``wo``, ``ln2`` and the MLP on all N+1 tokens, applies
the last layer's modulate hook to every row, and only then reads
``[..., 0, :]``. The tower output, the video embeddings and the gradient
of every trainable leaf must be bitwise equal to it.
"""

from dataclasses import replace

import numpy as np
import pytest
from conftest import _bits

from tvadapt import model as model_mod
from tvadapt import tensor as T
from tvadapt import workers
from tvadapt.backbone import encode_video, patchify, vanilla_attention, vit_block
from tvadapt.config import toy_config
from tvadapt.model import AdapterModel
from tvadapt.tensor import rng_for

MODES = ("temporal", "spatial_temporal", "spatial_temporal_layer", "none")
ASA = {"off": dict(asa=False), "bilinear": dict()}
SHAPES = {
    "toy": toy_config(),  # 8x8 frames, patch 4: N+1 = 5
    "wide": toy_config(layers=4, dim_v=64, frame_h=12, frame_w=12, patch=4, frames=8,
                       dim_t=48),  # N+1 = 10
}


def full_rows_last_block(x, store, prefix, heads, attention_fn):
    """The last block before it learned ``row``: every token after attention."""
    p = lambda name: store[f"{prefix}/{name}"]
    h = T.layer_norm(x, p("ln1_g"), p("ln1_b"))
    q = T.linear(h, p("wq"), p("bq"))
    k = T.linear(h, p("wk"), p("bk"))
    v = T.linear(h, p("wv"), p("bv"))
    ctx = attention_fn(x, q, k, v, heads)
    x = x + T.linear(ctx, p("wo"), p("bo"))
    h = T.layer_norm(x, p("ln2_g"), p("ln2_b"))
    h = T.linear(T.gelu(T.linear(h, p("mlp_w1"), p("mlp_b1"))), p("mlp_w2"), p("mlp_b2"))
    return x + h


def encode_video_full_rows(video, store, config, modulate=None, attention=None, start=0, stop=None):
    """``encode_video`` with the full-rows last block and its hook on every row."""
    assert (start, stop) == (0, None)  # the passes below run whole towers from raw videos
    attention = attention or {}
    x = patchify(video, store, config)
    for layer in range(1, config.layers + 1):
        fn = attention.get(layer, vanilla_attention)
        prefix = f"backbone/visual/block{layer}"
        if layer < config.layers:
            x = vit_block(x, store, prefix, config.heads_v, fn)
        else:
            x = full_rows_last_block(x, store, prefix, config.heads_v, fn)
        if modulate is not None:
            x = modulate(layer, x)
    return x[..., 0, :]


def _videos(cfg, count, tag):
    shape = (count, cfg.frames, cfg.frame_h, cfg.frame_w, cfg.channels)
    return rng_for(cfg.seed, "last-block", tag).normal(size=shape)


def _perturbed_model(cfg):
    """A model off its identity init, with fractional warp offsets."""
    model = AdapterModel(cfg)
    for name, t in model.store.trainable_items():
        t.data += rng_for(cfg.seed, "last-block", name).normal(size=t.shape) * 0.05
    if cfg.asa:
        rng = rng_for(cfg.seed, "last-block", "offsets")
        model.offsets.gamma.data[:] = rng.uniform(0.15, 0.45, size=model.offsets.gamma.shape)
        model.offsets.delta.data[:] = rng.uniform(0.15, 0.45, size=model.offsets.delta.shape)
    return model


def _forward_backward(cfg, videos, encode, monkeypatch, call_log):
    """Tower output, embeddings and trainable-leaf gradients under ``encode``."""
    model = _perturbed_model(cfg)
    call_log.clear()

    def recording_encode(*args, **kwargs):
        out = encode(*args, **kwargs)
        call_log.add((args[0].tobytes(), out.data))  # also seen from a forked worker
        return out

    monkeypatch.setattr(model_mod, "encode_video", recording_encode)
    candidates = rng_for(cfg.seed, "last-block", "cands").normal(size=(4, cfg.dim_t))
    emb = model.encode_videos(videos, candidates=candidates, sel_key=("train", 0))
    adjoint = rng_for(cfg.seed, "last-block", "adjoint").normal(size=emb.shape)
    T.tsum(emb * adjoint).backward()
    # the text tower is not in this loss, so its leaves hold no gradient
    grads = {name: t.grad for name, t in model.store.trainable_items() if t.grad is not None}
    # prepass blocks finish in any order across processes: pair them by their
    # input videos (a stable sort keeps a one-block prepass before the forward)
    outputs = [out for _, out in sorted(call_log.records(), key=lambda item: item[0])]
    return outputs, emb.data, grads


def _assert_bitwise_as_full_rows(cfg, videos, monkeypatch, call_log):
    got = _forward_backward(cfg, videos, encode_video, monkeypatch, call_log)
    want = _forward_backward(cfg, videos, encode_video_full_rows, monkeypatch, call_log)
    (f_got, emb_got, g_got), (f_want, emb_want, g_want) = got, want
    # with ASA the sentence-pick prepass, one call per block of videos (an
    # equal share of the videos per process, each share in blocks), then the
    # taped forward in one call
    per_block = model_mod._BLOCK_ROWS // (cfg.frames * (cfg.patches + 1))
    blocks = -(-len(videos) // per_block)
    parts = min(workers.processes(), len(videos), blocks)
    shares = [(i + 1) * len(videos) // parts - i * len(videos) // parts for i in range(parts)]
    prepass = sum(-(-share // per_block) for share in shares) if cfg.asa else 0
    assert len(f_got) == len(f_want) == prepass + 1
    for a, b in zip(f_got, f_want):
        assert a.shape == b.shape
        assert (_bits(a) == _bits(b)).all()
    assert (_bits(emb_got) == _bits(emb_want)).all()
    assert g_got.keys() == g_want.keys()
    assert "adapter/proj/w" in g_want
    for name in g_want:
        assert (_bits(g_got[name]) == _bits(g_want[name])).all(), name


@pytest.mark.parametrize("adapter_layers", ["all", "1,2,3"])
@pytest.mark.parametrize("asa", list(ASA))
@pytest.mark.parametrize("decompose", MODES)
def test_row_only_last_block_bitwise_for_every_mode(decompose, asa, adapter_layers, monkeypatch,
                                                   call_log):
    cfg = toy_config(decompose=decompose, adapter_layers=adapter_layers, **ASA[asa])
    videos = _videos(cfg, 16, "modes")
    _assert_bitwise_as_full_rows(cfg, videos, monkeypatch, call_log)


@pytest.mark.parametrize("count", [1, 16, 128])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_row_only_last_block_bitwise_for_every_batch_shape(shape, count, monkeypatch, call_log):
    # the wide workload's setting, then per-token factors with the warp
    for decompose, asa in (("temporal", "off"), ("spatial_temporal", "bilinear")):
        cfg = replace(SHAPES[shape], decompose=decompose, **ASA[asa])
        videos = _videos(cfg, count, shape)
        _assert_bitwise_as_full_rows(cfg, videos, monkeypatch, call_log)
