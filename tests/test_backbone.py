"""Backbone tests against dense loop-based reference implementations."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf
from conftest import _bits

from tvadapt import tensor as T
from tvadapt.backbone import (
    attention_core,
    encode_text,
    encode_video,
    init_backbone,
    patchify,
    vanilla_attention,
    vit_block,
)
from tvadapt.config import toy_config
from tvadapt.data import generate_dataset
from tvadapt.exceptions import ConfigError, InputError
from tvadapt.model import AdapterModel, ASAPass
from tvadapt.tensor import ParamStore, Tensor, no_grad, rng_for

CFG = toy_config(layers=2, dim_v=8, heads_v=2, patch=2, frame_h=4, frame_w=4, frames=3, channels=1,
                 text_layers=2, dim_t=8, vocab=16, max_words=5, heads_t=2)


def make_store():
    store = ParamStore()
    init_backbone(store, CFG)
    return store


def recording_hook():
    """An identity modulate hook, and the list of what it saw at each layer."""
    seen = []
    return lambda layer, x: seen.append(x) or x, seen


# -- reference implementations (explicit loops, no engine code) -----------


def ref_layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return g * (x - mu) / np.sqrt(var + eps) + b


def ref_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def ref_attention(q, k, v, heads):
    s, d = q.shape
    dh = d // heads
    out = np.zeros_like(q)
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        for i in range(s):
            scores = np.array([q[i, sl] @ k[j, sl] for j in range(s)]) / np.sqrt(dh)
            w = np.exp(scores - scores.max())
            w /= w.sum()
            out[i, sl] = sum(w[j] * v[j, sl] for j in range(s))
    return out


def ref_block(x, ps, heads):
    out = np.zeros_like(x)
    for t in range(x.shape[0]):
        xt = x[t]
        h = ref_layer_norm(xt, ps["ln1_g"], ps["ln1_b"])
        q, k, v = (h @ ps[w] + ps[b] for w, b in (("wq", "bq"), ("wk", "bk"), ("wv", "bv")))
        xt = xt + ref_attention(q, k, v, heads) @ ps["wo"] + ps["bo"]
        h = ref_layer_norm(xt, ps["ln2_g"], ps["ln2_b"])
        out[t] = xt + ref_gelu(h @ ps["mlp_w1"] + ps["mlp_b1"]) @ ps["mlp_w2"] + ps["mlp_b2"]
    return out


def block_params(store, prefix):
    return {n: store[f"{prefix}/{n}"].data for n in
            ("ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
             "ln2_g", "ln2_b", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2")}


# -- patchify --------------------------------------------------------------


def test_patchify_zero_video_zero_weights():
    store = make_store()
    for name in ("patch_w", "patch_b", "pos"):
        store[f"backbone/visual/{name}"].data[:] = 0.0
    out = patchify(np.zeros((3, 4, 4, 1)), store, CFG)
    cls = store["backbone/visual/cls"].data[0]
    np.testing.assert_array_equal(out.data[:, 0, :], np.tile(cls, (3, 1)))
    np.testing.assert_array_equal(out.data[:, 1:, :], 0.0)


def test_patchify_single_patch_shape():
    cfg = replace(CFG, layers=1, patch=4, frames=1, rank=1, top_k=1)
    store = ParamStore()
    init_backbone(store, cfg)
    out = patchify(np.zeros((1, 4, 4, 1)), store, cfg)
    assert cfg.patches == 1
    assert out.shape == (1, 2, 8)


def test_patchify_row_major_patch_order():
    # P=1 on a 2x2 frame: patch n must be the pixel at row-major position n
    cfg = replace(CFG, layers=1, dim_v=4, heads_v=1, patch=1, frame_h=2, frame_w=2, frames=1, rank=1)
    store = ParamStore()
    init_backbone(store, cfg)
    store["backbone/visual/patch_w"].data[:] = np.ones((1, 4))
    store["backbone/visual/patch_b"].data[:] = 0.0
    store["backbone/visual/pos"].data[:] = 0.0
    video = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])
    out = patchify(video, store, cfg)
    np.testing.assert_array_equal(out.data[0, 1:, 0], [1.0, 2.0, 3.0, 4.0])


def test_patchify_rejects_bad_dims():
    store = make_store()
    with pytest.raises(ConfigError):
        patchify(np.zeros((3, 4, 5, 1)), store, CFG)


# -- blocks ----------------------------------------------------------------


def test_block_zero_weights_is_identity():
    store = make_store()
    prefix = "backbone/visual/block1"
    for name in block_params(store, prefix):
        store[f"{prefix}/{name}"].data[:] = 0.0
    x = rng_for(0, "blk").normal(size=(3, 5, 8))
    out = vit_block(Tensor(x), store, prefix, CFG.heads_v, lambda xi, q, k, v, h: attention_core(q, k, v, h))
    np.testing.assert_array_equal(out.data, x)


def test_encode_with_all_blocks_zeroed_returns_patchify_output():
    store = make_store()
    for layer in range(1, CFG.layers + 1):
        prefix = f"backbone/visual/block{layer}"
        for name in block_params(store, prefix):
            store[f"{prefix}/{name}"].data[:] = 0.0
    video = rng_for(21, "zeroall").normal(size=(3, 4, 4, 1))
    record, feats = recording_hook()
    f = encode_video(video, store, CFG, modulate=record)
    x0 = patchify(video, store, CFG).data
    assert len(feats) == CFG.layers
    for x in feats[:-1]:
        np.testing.assert_array_equal(x.data, x0)
    # the last block computes only the CLS rows
    np.testing.assert_array_equal(feats[-1].data, x0[..., :1, :])
    np.testing.assert_array_equal(f.data, x0[..., 0, :])


def test_single_token_attention_weight_is_one():
    q = Tensor(rng_for(1, "st").normal(size=(1, 1, 8)))
    v = Tensor(rng_for(2, "st").normal(size=(1, 1, 8)))
    out = attention_core(q, q, v, heads=1)
    np.testing.assert_allclose(out.data, v.data, rtol=0, atol=0)


def test_block_matches_dense_reference():
    store = make_store()
    prefix = "backbone/visual/block1"
    x = rng_for(3, "ref").normal(size=(3, 5, 8))
    got = vit_block(Tensor(x), store, prefix, CFG.heads_v, vanilla_attention)
    want = ref_block(x, block_params(store, prefix), CFG.heads_v)
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def _taped_nodes(out):
    """Number of tape nodes ``backward`` would run from ``out``."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward is not None:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_vanilla_block_records_one_node_per_fused_op():
    # two layer_norms, one gelu and six biased linears are one node each,
    # 24 nodes in all with the 13 of attention_core and the 2 residual
    # adds; split back into their composites they record 54
    store = make_store()
    x = Tensor(rng_for(5, "tape").normal(size=(3, 5, 8)), requires_grad=True)
    out = vit_block(x, store, "backbone/visual/block1", CFG.heads_v, vanilla_attention)
    assert _taped_nodes(out) == 24


# -- encode_video ------------------------------------------------------------


def test_encode_video_purity_and_shapes():
    store = make_store()
    video = rng_for(4, "vid").normal(size=(3, 4, 4, 1))
    record1, feats1 = recording_hook()
    record2, feats2 = recording_hook()
    f1 = encode_video(video, store, CFG, modulate=record1)
    f2 = encode_video(video, store, CFG, modulate=record2)
    assert len(feats1) == CFG.layers
    for x in feats1[:-1]:
        assert x.shape == (3, CFG.patches + 1, 8)
    # the last block computes only the CLS rows
    assert feats1[-1].shape == (3, 1, 8)
    assert f1.shape == (3, 8)
    np.testing.assert_array_equal(f1.data, f2.data)
    for x1, x2 in zip(feats1, feats2):
        np.testing.assert_array_equal(x1.data, x2.data)


def test_encode_video_frame_permutation_equivariance():
    store = make_store()
    video = rng_for(5, "perm").normal(size=(3, 4, 4, 1))
    perm = np.array([2, 0, 1])
    record, feats = recording_hook()
    record_p, feats_p = recording_hook()
    encode_video(video, store, CFG, modulate=record)
    encode_video(video[perm], store, CFG, modulate=record_p)
    assert len(feats) == len(feats_p) == CFG.layers
    for x, x_p in zip(feats, feats_p):
        np.testing.assert_array_equal(x_p.data, x.data[perm])


def test_encode_video_batched_matches_single():
    store = make_store()
    videos = rng_for(6, "batch").normal(size=(2, 3, 4, 4, 1))
    f_batch = encode_video(videos, store, CFG)
    for i in range(2):
        f_one = encode_video(videos[i], store, CFG)
        np.testing.assert_allclose(f_batch.data[i], f_one.data, atol=1e-12)


def test_encode_video_rejects_bad_hook_layer():
    store = make_store()
    video = np.zeros((3, 4, 4, 1))
    for layer in (0, CFG.layers + 1):
        with pytest.raises(ConfigError):
            encode_video(video, store, CFG, attention={layer: vanilla_attention})


# -- encode_text -------------------------------------------------------------


def test_encode_text_empty_caption():
    store = make_store()
    record, feats = recording_hook()
    z = encode_text(np.array([], dtype=int), store, CFG, modulate=record)
    assert z.shape == (1, 8)
    assert [x.shape for x in feats] == [(1, 1, 8)] * CFG.text_layers  # the EOS row alone


def test_encode_text_determinism():
    store = make_store()
    tokens = np.array([3, 1, 4])
    z1 = encode_text(tokens, store, CFG)
    z2 = encode_text(tokens, store, CFG)
    np.testing.assert_array_equal(z1.data, z2.data)


def test_encode_text_rejects_overlong_and_bad_ids():
    store = make_store()
    with pytest.raises(InputError):
        encode_text(np.arange(6), store, CFG)
    with pytest.raises(InputError):
        encode_text(np.array([99]), store, CFG)
    with pytest.raises(InputError, match="1-D or 2-D"):
        encode_text(np.zeros((2, 2, 3), dtype=int), store, CFG)


def test_encode_text_matches_dense_reference():
    store = make_store()
    tokens = np.array([3, 1, 4])
    z = encode_text(tokens, store, CFG)

    seq = np.concatenate([tokens, [CFG.vocab - 1]])
    x = store["backbone/text/embed"].data[seq] + store["backbone/text/pos"].data[: len(seq)]
    for layer in (1, 2):
        x = ref_block(x[None], block_params(store, f"backbone/text/block{layer}"), CFG.heads_t)[0]
    np.testing.assert_allclose(z.data[0], x[-1], atol=1e-12)


def test_text_modulate_hook_sees_every_row_of_every_block():
    store = make_store()
    tokens = np.array([[3, 1, 4], [0, 7, 2]])
    seen = []

    def hook(layer, x):
        seen.append((layer, x.shape))
        return x * 2.0 if layer == CFG.text_layers else x

    z_plain = encode_text(tokens, store, CFG)
    z_hooked = encode_text(tokens, store, CFG, modulate=hook)
    assert seen == [(1, (2, 4, 8)), (2, (2, 4, 8))]  # three words and the EOS row
    np.testing.assert_allclose(z_hooked.data, 2.0 * z_plain.data, atol=0)


def test_encode_text_batch_matches_single():
    store = make_store()
    tokens = np.array([[3, 1, 4], [0, 7, 2]])
    z = encode_text(tokens, store, CFG)
    for i in range(2):
        zi = encode_text(tokens[i], store, CFG)
        np.testing.assert_allclose(z.data[i], zi.data[0], atol=1e-12)


# -- partial passes ------------------------------------------------------------


def _adapted_model(text_lowrank):
    """A toy model whose every adapter is off identity, with fractional offsets."""
    model = AdapterModel(toy_config(text_lowrank=text_lowrank))
    rng = rng_for(5, "resume")
    for _, t in model.store.trainable_items():
        t.data += rng.normal(size=t.shape) * 0.1
    return model


@pytest.mark.parametrize("text_lowrank", [False, True], ids=["sentence", "lowrank"])
def test_each_tower_resumes_bitwise_from_its_own_stop(text_lowrank):
    model = _adapted_model(text_lowrank)
    data = generate_dataset(model.config.seed, 3, model.config)
    with no_grad():
        candidates = model.encode_texts(data.tokens).data
        hooks = ASAPass(model, data.videos, candidates).hooks(slice(None))
        for f in range(1, model.config.layers + 1):
            above = {layer: hook for layer, hook in hooks.items() if layer > f}
            run = dict(modulate=model.video_mod.apply, attention=above)
            whole = encode_video(data.videos, model.store, model.config, **run)
            states = encode_video(data.videos, model.store, model.config, stop=f, **run)
            resumed = encode_video(states.data, model.store, model.config, start=f, **run)
            assert (_bits(resumed.data) == _bits(whole.data)).all(), f
        for f in range(1, model.config.text_layers + 1):
            run = dict(modulate=model.text_mod.apply)
            whole = encode_text(data.tokens, model.store, model.config, **run)
            states = encode_text(data.tokens, model.store, model.config, stop=f, **run)
            resumed = encode_text(states.data, model.store, model.config, start=f, **run)
            assert (_bits(resumed.data) == _bits(whole.data)).all(), f


# -- generated weights ------------------------------------------------------


@pytest.mark.parametrize("cfg, backbone, adapter", [
    (toy_config(), "3aaf03ad08135d8c98e7e9ec8ad49aac", "d6cb40f5f4b16ec8f8ccd01d74e54eeb"),
    (replace(CFG, seed=7), "a942d1146615bd6be385921fcb0bedfa", "d6462ce41584c9087e6abecca3db9d29"),
], ids=["toy", "small-seed7"])
def test_generated_weights_match_pinned_digests(cfg, backbone, adapter):
    # restore_model rejects a backbone whose digest differs from the one a
    # checkpoint stored, so these pin that checkpoints written before stay loadable
    store = AdapterModel(cfg).store
    assert store.hash_bytes("backbone/") == backbone
    assert store.hash_bytes("adapter/") == adapter


# -- freeze ------------------------------------------------------------------


def test_freeze_blocks_backbone_grads_but_not_adapters():
    store = make_store()  # init_backbone registers every tensor frozen
    adapter = store.add("adapter/scale", Tensor(np.ones((1, 8))))
    video = rng_for(7, "fz").normal(size=(3, 4, 4, 1))
    f = encode_video(video, store, CFG,
                     modulate=lambda layer, x: x * adapter if layer == 1 else x)
    T.tsum(f * f).backward()
    assert adapter.grad is not None
    for name, t in store.items():
        if name.startswith("backbone/"):
            assert t.grad is None, name


def test_trainable_count_matches_enumeration():
    store = make_store()
    store.add("adapter/a", Tensor(np.zeros((2, 3))))
    store.add("adapter/b", Tensor(np.zeros(5)))
    assert store.num_elements(trainable=True) == 11
    assert store.trainable_count == 2
