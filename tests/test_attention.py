"""Warped-attention tests: selection oracles, warp exactness, gradients."""

import numpy as np
import pytest
from conftest import _bits

from tvadapt import tensor as T
from tvadapt.attention import (
    OffsetParams,
    WarpAxes,
    asa_block_attention,
    selection_masks,
    warp_kv,
)
from tvadapt.backbone import attention_core, encode_video, vanilla_attention
from tvadapt.config import toy_config
from tvadapt.data import generate_dataset
from tvadapt.exceptions import ConfigError, InputError
from tvadapt.model import AdapterModel
from tvadapt.tensor import ParamStore, Tensor, fd_check, no_grad, rng_for

FRAMES, PATCHES, DIM = 4, 5, 6


def make_offsets(axes=WarpAxes.BOTH):
    store = ParamStore()
    return store, OffsetParams(store, PATCHES, FRAMES, axes=axes)


def ref_warp_integer(k, gamma, delta, mask):
    out = k.copy()
    t_n, n_n, _ = k.shape
    for t in range(t_n):
        for n in range(n_n):
            if mask[t, n]:
                tt = int(np.clip(t + delta[t], 0, t_n - 1))
                nn = int(np.clip(n + gamma[n], 0, n_n - 1))
                out[t, n] = k[tt, nn]
    return out


# -- sentence selection -------------------------------------------------------

PICK_CFG = toy_config(pairs=3, batch_size=3)
PICK_VIDEOS = generate_dataset(PICK_CFG.seed, PICK_CFG.pairs, PICK_CFG).videos


def pick_model():
    model = AdapterModel(PICK_CFG)
    rng = rng_for(4, "sent-model")
    model.proj_w.data += rng.normal(size=model.proj_w.shape) * 0.1
    model.proj_b.data += rng.normal(size=model.proj_b.shape) * 0.1
    return model


def loop_probes(model, videos):
    """Proj(mean over frames of the last-layer frame features), by explicit loops."""
    with no_grad():
        f_last = encode_video(videos, model.store, model.config, modulate=model.video_mod.apply)
    probes = []
    for feats in f_last.data:
        pooled = sum(feats[t] for t in range(feats.shape[0])) / feats.shape[0]
        probes.append(pooled @ model.proj_w.data + model.proj_b.data)
    return np.array(probes)


def loop_argmax(probe, cands):
    best, best_score = 0, None
    for i, cand in enumerate(cands):
        score = float(sum(probe[d] * cand[d] for d in range(len(probe))))
        if best_score is None or score > best_score:  # ties keep the lower index
            best, best_score = i, score
    return best


def test_select_sentence_single_and_sign():
    model = pick_model()
    single = rng_for(4, "sent").normal(size=(1, PICK_CFG.dim_t))
    np.testing.assert_array_equal(model._pick_sentences(PICK_VIDEOS, single), [0, 0, 0])

    probes = loop_probes(model, PICK_VIDEOS)
    for v, probe in enumerate(probes):
        videos = PICK_VIDEOS[v : v + 1]
        assert model._pick_sentences(videos, np.vstack([probe, -probe]))[0] == 0
        assert model._pick_sentences(videos, np.vstack([-probe, probe]))[0] == 1


def test_select_sentence_matches_bruteforce():
    model = pick_model()
    cands = rng_for(5, "sent").normal(size=(5, PICK_CFG.dim_t))
    want = [loop_argmax(probe, cands) for probe in loop_probes(model, PICK_VIDEOS)]
    np.testing.assert_array_equal(model._pick_sentences(PICK_VIDEOS, cands), want)


def test_pick_sentences_ties_go_to_lowest_index():
    model = pick_model()
    row = rng_for(6, "sent").normal(size=(1, PICK_CFG.dim_t))
    cands = np.vstack([-row, row, row, -row])
    want = [loop_argmax(probe, cands) for probe in loop_probes(model, PICK_VIDEOS)]
    assert set(want) <= {0, 1}
    np.testing.assert_array_equal(model._pick_sentences(PICK_VIDEOS, cands), want)


def test_select_sentence_empty_candidates():
    model = pick_model()
    with pytest.raises(InputError):
        model.encode_videos(PICK_VIDEOS, candidates=np.zeros((0, PICK_CFG.dim_t)))


def test_pick_sentences_rejects_wrong_width():
    model = pick_model()
    with pytest.raises(InputError):
        model.encode_videos(PICK_VIDEOS, candidates=np.zeros((3, PICK_CFG.dim_t + 1)))


# -- patch selection ----------------------------------------------------------


def crafted_frame(scores):
    # one-frame (1, N, D) features whose Proj(u) . w* scores equal the given
    # values, and the text-mode arguments that score them
    n = len(scores)
    u = np.zeros((1, n, DIM))
    u[0, :, 0] = scores
    proj = np.zeros((DIM, 3))
    proj[0, 0] = 1.0
    return u, dict(w_star=np.array([1.0, 0.0, 0.0]), proj_w=proj, proj_b=np.zeros(3))


def selected(mask):
    return np.flatnonzero(mask[0]).tolist()


def test_select_patches_exhaustive_and_empty():
    u, text = crafted_frame([3.0, 1.0, 4.0, 2.0])
    inputs = dict(text, cls_feats=np.ones((1, DIM)), rng=rng_for(9, "sel"))
    for mode in ("text_top_k", "text_bottom_k", "vision_top_k", "vision_bottom_k", "random"):
        assert selected(selection_masks(mode, 4, u, **inputs)) == [0, 1, 2, 3], mode
        assert selected(selection_masks(mode, 0, u, **inputs)) == [], mode
    assert selected(selection_masks("none", 0, u)) == [0, 1, 2, 3]


def test_select_patches_topk_sort_oracle():
    u, text = crafted_frame([3.0, 1.0, 4.0, 2.0])
    assert selected(selection_masks("text_top_k", 2, u, **text)) == [0, 2]
    assert selected(selection_masks("text_bottom_k", 2, u, **text)) == [1, 3]


def test_select_patches_tie_breaks_low_index():
    u, text = crafted_frame([1.0, 1.0, 1.0, 0.0])
    assert selected(selection_masks("text_top_k", 2, u, **text)) == [0, 1]


def test_select_patches_vision_modes():
    rng = rng_for(6, "vis")
    u = rng.normal(size=(1, PATCHES, DIM))
    cls = rng.normal(size=(1, DIM))
    scores = u[0] @ cls[0]
    mask = selection_masks("vision_top_k", 2, u, cls_feats=cls)
    assert selected(mask) == sorted(np.argsort(-scores, kind="stable")[:2])
    mask = selection_masks("vision_bottom_k", 2, u, cls_feats=cls)
    assert selected(mask) == sorted(np.argsort(scores, kind="stable")[:2])


def test_select_patches_random_deterministic_and_k_validation():
    u = rng_for(7, "rand").normal(size=(1, PATCHES, DIM))
    m1 = selection_masks("random", 3, u, rng=rng_for(9, "sel"))
    m2 = selection_masks("random", 3, u, rng=rng_for(9, "sel"))
    np.testing.assert_array_equal(m1, m2)
    assert m1.sum() == 3
    with pytest.raises(ConfigError):
        selection_masks("random", PATCHES + 1, u, rng=rng_for(9, "sel"))


class CountingRng:
    """A generator that counts the calls made to it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.calls += 1
            return getattr(self.rng, name)(*args, **kwargs)
        return call


def test_select_patches_random_is_one_draw():
    rng, k, n = CountingRng(rng_for(9, "one-draw")), 3, 4
    mask = selection_masks("random", k, np.empty((256, 6, n, 0)), rng=rng)
    assert rng.calls == 1
    rows = mask.reshape(-1, n)
    assert (rows.sum(axis=1) == k).all()
    # each patch's count is Binomial(1536, K/N): mean 1152, sd 17; the bound is 6 sd
    assert np.abs(rows.sum(axis=0) - len(rows) * k / n).max() <= 102


def test_selection_none_warps_all():
    mask = selection_masks("none", 3, np.zeros((FRAMES, PATCHES, DIM)))
    assert mask.all()


# -- warping -------------------------------------------------------------------


def test_warp_zero_offsets_is_bitwise_identity():
    store, off = make_offsets()
    rng = rng_for(8, "warp")
    k = Tensor(rng.normal(size=(FRAMES, PATCHES, DIM)))
    v = Tensor(rng.normal(size=(FRAMES, PATCHES, DIM)))
    mask = rng.random((FRAMES, PATCHES)) < 0.5
    k_hat, v_hat = warp_kv(k, v, off, mask)
    assert (k_hat.data == k.data).all()
    assert (v_hat.data == v.data).all()


def test_warp_integer_offsets_match_direct_indexing():
    rng = rng_for(9, "warpdir")
    for _ in range(50):
        store, off = make_offsets()
        gamma = rng.integers(-PATCHES, PATCHES + 1, size=PATCHES).astype(float)
        delta = rng.integers(-FRAMES, FRAMES + 1, size=FRAMES).astype(float)
        off.gamma.data[:] = gamma[:, None]
        off.delta.data[:] = delta[:, None]
        k = rng.normal(size=(FRAMES, PATCHES, DIM))
        mask = rng.random((FRAMES, PATCHES)) < 0.7
        k_hat, _ = warp_kv(Tensor(k), Tensor(k), off, mask)
        want = ref_warp_integer(k, gamma, delta, mask)
        assert (k_hat.data == want).all()


def test_warp_clamps_out_of_range():
    store, off = make_offsets()
    off.delta.data[:] = FRAMES + 100.0
    k = rng_for(10, "clamp").normal(size=(FRAMES, PATCHES, DIM))
    mask = np.ones((FRAMES, PATCHES), dtype=bool)
    k_hat, _ = warp_kv(Tensor(k), Tensor(k), off, mask)
    np.testing.assert_array_equal(k_hat.data, np.broadcast_to(k[-1], k.shape))


def test_warp_fractional_stays_in_neighbor_hull():
    rng = rng_for(11, "hull")
    for _ in range(30):
        store, off = make_offsets()
        off.gamma.data[:] = rng.uniform(-PATCHES, PATCHES, size=(PATCHES, 1))
        off.delta.data[:] = rng.uniform(-FRAMES, FRAMES, size=(FRAMES, 1))
        k = rng.normal(size=(FRAMES, PATCHES, DIM))
        mask = np.ones((FRAMES, PATCHES), dtype=bool)
        k_hat, _ = warp_kv(Tensor(k), Tensor(k), off, mask)
        for t in range(FRAMES):
            tc = np.clip(t + off.delta.data[t, 0], 0, FRAMES - 1)
            t0, t1 = int(np.floor(tc)), min(int(np.floor(tc)) + 1, FRAMES - 1)
            for n in range(PATCHES):
                nc = np.clip(n + off.gamma.data[n, 0], 0, PATCHES - 1)
                n0, n1 = int(np.floor(nc)), min(int(np.floor(nc)) + 1, PATCHES - 1)
                corners = k[[t0, t0, t1, t1], [n0, n1, n0, n1]]
                assert (k_hat.data[t, n] >= corners.min(0) - 1e-12).all()
                assert (k_hat.data[t, n] <= corners.max(0) + 1e-12).all()


def test_warp_unselected_rows_untouched():
    store, off = make_offsets()
    off.gamma.data[:] = 0.7
    off.delta.data[:] = -0.3
    rng = rng_for(12, "unsel")
    k = Tensor(rng.normal(size=(FRAMES, PATCHES, DIM)))
    mask = rng.random((FRAMES, PATCHES)) < 0.4
    k_hat, _ = warp_kv(k, k, off, mask)
    assert (k_hat.data[~mask] == k.data[~mask]).all()
    assert not np.allclose(k_hat.data[mask], k.data[mask])


def test_warp_offset_gradients_pass_fd_at_safe_points():
    # offsets placed strictly inside grid cells, away from clamps; the
    # fields are trainable too
    store, off = make_offsets()
    rng = rng_for(13, "fdw")
    off.gamma.data[:] = rng.uniform(0.2, 0.45, size=(PATCHES, 1))
    off.gamma.data[-1, 0] = -0.3  # keep final patch interior
    off.delta.data[:] = rng.uniform(0.2, 0.45, size=(FRAMES, 1))
    off.delta.data[-1, 0] = -0.3
    store.add("k", Tensor(rng.normal(size=(FRAMES, PATCHES, DIM))))
    store.add("v", Tensor(rng.normal(size=(FRAMES, PATCHES, DIM))))
    mask = rng.random((FRAMES, PATCHES)) < 0.8
    probe = rng.normal(size=(FRAMES, PATCHES, DIM))

    def fn(s):
        k_hat, v_hat = warp_kv(s["k"], s["v"], off, mask)
        return T.tsum(k_hat * Tensor(probe)) + T.tsum(v_hat * v_hat)

    assert fd_check(fn, store, eps=1e-5) < 1e-4


def test_warp_axis_restriction_freezes_other_axis():
    """A one-axis warp registers only the offset it moves, trainable; the
    other axis has no offset and keeps its grid position."""
    k = Tensor(rng_for(14, "ax").normal(size=(FRAMES, PATCHES, DIM)))
    everywhere = np.ones((FRAMES, PATCHES), bool)
    store, off = make_offsets(axes=WarpAxes.TEMPORAL_ONLY)
    assert off.gamma is None and store.names() == ["adapter/asa/delta"]
    assert off.delta.requires_grad
    off.delta.data[:] = 1.0  # one frame on, clamped at the last
    frames = np.minimum(np.arange(FRAMES) + 1, FRAMES - 1)
    assert (warp_kv(k, k, off, everywhere)[0].data == k.data[frames]).all()
    store, off = make_offsets(axes=WarpAxes.SPATIAL_ONLY)
    assert off.delta is None and store.names() == ["adapter/asa/gamma"]
    assert off.gamma.requires_grad
    off.gamma.data[:] = 1.0  # one patch on, clamped at the last
    patches = np.minimum(np.arange(PATCHES) + 1, PATCHES - 1)
    assert (warp_kv(k, k, off, everywhere)[0].data == k.data[:, patches]).all()


# -- the warp node against the composite of tape ops it replaces ---------------


def _take(a, idx, axis):
    """Gather along ``axis``; backward adds one slice per index, in index order."""
    def _bw(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            dst, src = np.moveaxis(ga, axis, 0), np.moveaxis(g, axis, 0)
            for i, j in enumerate(idx):
                dst[j] += src[i]
            a._accumulate(ga)

    return T._make(np.take(a.data, idx, axis=axis), (a,), _bw)


def _where_const(mask, a, b):
    def _bw(g):
        if a.requires_grad:
            a._accumulate(T._unbroadcast(g * mask, a.data.shape))
        if b.requires_grad:
            b._accumulate(T._unbroadcast(g * ~mask, b.data.shape))

    return T._make(np.where(mask, a.data, b.data), (a, b), _bw)


def _clip(a, lo, hi):
    passes = (a.data >= lo) & (a.data <= hi)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g * passes)

    return T._make(np.clip(a.data, lo, hi), (a,), _bw)


def _composite_axis(offset, size):
    coords = Tensor(np.arange(size, dtype=np.float64))
    if offset is not None:  # an axis without an offset keeps its grid position
        coords = _clip(coords + T.reshape(offset, (size,)), 0.0, float(size - 1))
    lo = np.floor(coords.data).astype(np.intp)
    frac = coords - Tensor(lo.astype(np.float64))
    return lo, np.minimum(lo + 1, size - 1), frac, coords.data == lo


def composite_warp_kv(k, v, offsets, selection):
    """The warp as a chain of primitive tape ops, one frac chain per field:
    the reference that ``warp_kv``'s one node per field must match bit for bit."""
    t_n, n_n = k.shape[-3], k.shape[-2]

    def bilinear(field):
        n_lo, n_hi, n_frac, n_exact = _composite_axis(offsets.gamma, n_n)
        t_lo, t_hi, t_frac, t_exact = _composite_axis(offsets.delta, t_n)
        fn = T.reshape(n_frac, (n_n, 1))
        ft = T.reshape(t_frac, (t_n, 1, 1))
        g0, g1 = _take(field, n_lo, -2), _take(field, n_hi, -2)
        stage_n = _where_const(n_exact[:, None], g0, (1.0 - fn) * g0 + fn * g1)
        h0, h1 = _take(stage_n, t_lo, -3), _take(stage_n, t_hi, -3)
        return _where_const(t_exact[:, None, None], h0, (1.0 - ft) * h0 + ft * h1)

    mask = np.asarray(selection, dtype=bool)[..., None]
    return _where_const(mask, bilinear(k), k), _where_const(mask, bilinear(v), v)


def _warp_case(warp, fields, axes, gamma, delta):
    """Outputs and gradients of one warp under a loss with signed-zero adjoints.

    ``fields``: "leaves" (K and V trainable leaves), "shared" (both built
    from one upstream leaf, so the order K and V add into it shows) or
    "frozen_k" (K without gradient, as at the first adapted layer).
    """
    rng = rng_for(22, "oracle")
    store, off = make_offsets(axes)
    for offset, value in ((off.gamma, gamma), (off.delta, delta)):
        if offset is not None:
            offset.data[:] = value
    shape = (2, FRAMES, PATCHES, DIM)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    k = Tensor(rng.normal(size=shape), requires_grad=fields == "leaves")
    v = Tensor(rng.normal(size=shape), requires_grad=fields == "leaves")
    if fields == "shared":
        k, v = x * 1.5, x * x
    elif fields == "frozen_k":
        v = x * 2.0
    mask = rng.random((2, FRAMES, PATCHES)) < 0.6
    p, q = rng.normal(size=shape), rng.normal(size=shape)
    p[..., ::3] *= 0.0
    q[..., 1::3] *= -0.0
    k_hat, v_hat = warp(k, v, off, mask)
    T.tsum(k_hat * Tensor(p) + v_hat * Tensor(q) + x * x).backward()
    offset_grads = [None if o is None else o.grad for o in (off.gamma, off.delta)]
    return [k_hat.data, v_hat.data, x.grad, *offset_grads, k.grad, v.grad]


@pytest.mark.parametrize("axes", list(WarpAxes))
def test_warp_node_bitwise_matches_composite(axes):
    rng = rng_for(23, "oracle-offsets")
    offsets = {
        "zero": (np.zeros((PATCHES, 1)), np.zeros((FRAMES, 1))),
        "integer": (rng.integers(-2, 3, size=(PATCHES, 1)).astype(float),
                    rng.integers(-2, 3, size=(FRAMES, 1)).astype(float)),
        "fractional": (rng.uniform(-0.9, 0.9, size=(PATCHES, 1)),
                       rng.uniform(-0.9, 0.9, size=(FRAMES, 1))),
        # most coordinates clamped, so scatters hit one edge row repeatedly
        "beyond_grid": (rng.normal(size=(PATCHES, 1)) * 3.0,
                        rng.normal(size=(FRAMES, 1)) * 3.0),
    }
    for name, (gamma, delta) in offsets.items():
        for fields in ("leaves", "shared", "frozen_k"):
            got = _warp_case(warp_kv, fields, axes, gamma, delta)
            want = _warp_case(composite_warp_kv, fields, axes, gamma, delta)
            for i, (a, b) in enumerate(zip(got, want)):
                case = (name, fields, i)
                assert (a is None) == (b is None), case
                if a is not None:
                    assert (_bits(a) == _bits(b)).all(), case


# -- attention ------------------------------------------------------------------


def test_asa_zero_offsets_equals_vanilla_bitwise():
    rng = rng_for(16, "asa")
    for heads in (1, 2):
        store, off = make_offsets()
        x = Tensor(rng.normal(size=(FRAMES, PATCHES + 1, DIM)))
        q = Tensor(rng.normal(size=(FRAMES, PATCHES + 1, DIM)))
        k = Tensor(rng.normal(size=(FRAMES, PATCHES + 1, DIM)))
        v = Tensor(rng.normal(size=(FRAMES, PATCHES + 1, DIM)))
        mask = rng.random((FRAMES, PATCHES)) < 0.5
        got = asa_block_attention(x, q, k, v, heads, off, mask)
        want = vanilla_attention(x, q, k, v, heads)
        assert (got.data == want.data).all()


def test_asa_single_patch_returns_value():
    q = Tensor(rng_for(17, "one").normal(size=(1, DIM)))
    v = Tensor(rng_for(18, "one").normal(size=(1, DIM)))
    out = attention_core(q, q, v, heads=1)
    np.testing.assert_array_equal(out.data, v.data)


def test_asa_matches_loop_oracle():
    rng = rng_for(19, "loop")
    q = rng.normal(size=(3, DIM))
    k = rng.normal(size=(3, DIM))
    v = rng.normal(size=(3, DIM))
    got = attention_core(Tensor(q), Tensor(k), Tensor(v), heads=1)
    want = np.zeros_like(q)
    for i in range(3):
        scores = np.array([q[i] @ k[j] for j in range(3)]) / np.sqrt(DIM)
        w = np.exp(scores - scores.max())
        w /= w.sum()
        want[i] = sum(w[j] * v[j] for j in range(3))
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_asa_output_continuous_in_offsets():
    store, off = make_offsets()
    rng = rng_for(20, "lip")
    off.gamma.data[:] = rng.uniform(0.2, 0.4, size=(PATCHES, 1))
    off.delta.data[:] = rng.uniform(0.2, 0.4, size=(FRAMES, 1))
    x = Tensor(rng.normal(size=(FRAMES, PATCHES + 1, DIM)))
    q = Tensor(rng.normal(size=(FRAMES, PATCHES + 1, DIM)))
    mask = np.ones((FRAMES, PATCHES), bool)
    base = asa_block_attention(x, q, x, x, 1, off, mask).data
    off.gamma.data[0, 0] += 1e-6
    bumped = asa_block_attention(x, q, x, x, 1, off, mask).data
    assert np.abs(bumped - base).max() <= 100.0 * 1e-6
