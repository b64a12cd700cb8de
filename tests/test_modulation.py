"""Modulation tests: composition oracles, identity init, rank bound."""

import numpy as np
import pytest
from conftest import _bits

from tvadapt import tensor as T
from tvadapt.exceptions import ConfigError
from tvadapt.modulation import (
    DecomposeMode,
    TextModulation,
    VideoModulation,
    identity_init,
)
from tvadapt.tensor import ParamStore, Tensor, rng_for

FRAMES, TOKENS, DIM, RANK = 4, 5, 6, 2


def make_video_mod(mode="temporal", layers=(1, 2), rank=RANK, seed=0):
    store = ParamStore()
    mod = VideoModulation(store, mode, list(layers), rank, FRAMES, TOKENS, DIM, seed)
    return store, mod


def test_compose_rank1_ones_factorization():
    store, mod = make_video_mod()
    c_a = mod.params[1]["c_a"]
    c_b = mod.params[1]["c_b"]
    c_a.data[:] = 0.0
    c_a.data[:, 0] = 1.0
    c_b.data[:] = 0.0
    c_b.data[0] = 1.0
    c, _ = mod.compose(1)
    np.testing.assert_array_equal(c.data, np.ones((FRAMES, DIM)))


def test_compose_annihilation():
    store, mod = make_video_mod()
    mod.params[1]["c_b"].data[:] = 0.0
    c, _ = mod.compose(1)
    np.testing.assert_array_equal(c.data, 0.0)


def test_compose_matches_matmul_oracle_and_rank_bound():
    rng = rng_for(1, "cmp")
    store, mod = make_video_mod(rank=2)
    for tag in ("c", "s"):
        mod.params[1][f"{tag}_a"].data[:] = rng.normal(size=(FRAMES, 2))
        mod.params[1][f"{tag}_b"].data[:] = rng.normal(size=(2, DIM))
    c, s = mod.compose(1)
    np.testing.assert_allclose(
        c.data, mod.params[1]["c_a"].data @ mod.params[1]["c_b"].data, atol=1e-15
    )
    for m in (c.data, s.data):
        sv = np.linalg.svd(m, compute_uv=False)
        assert (sv[2:] < 1e-10).all()


def test_modulate_video_identity_and_pure_shift():
    x = Tensor(rng_for(2, "mv").normal(size=(FRAMES, TOKENS, DIM)))
    store, mod = make_video_mod()
    np.testing.assert_array_equal(mod.apply(1, x).data, x.data)
    mod.params[1]["c_b"].data[:] = 0.0  # scale 0: the output is the shift alone
    rng = rng_for(3, "mv")
    mod.params[1]["s_a"].data[:] = rng.normal(size=(FRAMES, RANK))
    mod.params[1]["s_b"].data[:] = rng.normal(size=(RANK, DIM))
    _, shift = mod.compose(1)
    out = mod.apply(1, x)
    np.testing.assert_array_equal(out.data, np.broadcast_to(shift.data[:, None, :], x.shape))


def test_modulate_video_scalar_oracle():
    # T=1, D=2, x = ones: u tokens must be [3, 4]
    store = ParamStore()
    mod = VideoModulation(store, "temporal", [1], 1, 1, 3, 2, seed=0)
    mod.params[1]["c_a"].data[:] = 1.0
    mod.params[1]["c_b"].data[:] = [[2.0, 3.0]]
    mod.params[1]["s_a"].data[:] = 1.0
    mod.params[1]["s_b"].data[:] = [[1.0, 1.0]]
    out = mod.apply(1, Tensor(np.ones((1, 3, 2))))
    np.testing.assert_array_equal(out.data, np.broadcast_to([3.0, 4.0], (1, 3, 2)))


def test_modulate_text_oracle():
    store = ParamStore()
    tm = TextModulation(store, [1], 2, seed=0)
    w = Tensor(np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(tm.apply(1, w).data, w.data)  # identity init
    tm.params[1]["c_t"].data[:] = [3.0, 0.5]
    tm.params[1]["s_t"].data[:] = [-1.0, 0.0]
    np.testing.assert_array_equal(tm.apply(1, w).data, [[2.0, 1.0]])
    tm.params[1]["s_t"].data[:] = [0.5, 0.25]
    np.testing.assert_array_equal(tm.apply(1, Tensor(np.zeros((1, 2)))).data, [[0.5, 0.25]])


def test_identity_init_is_exact_for_all_modes():
    x = rng_for(4, "init").normal(size=(FRAMES, TOKENS, DIM))
    for mode in ("temporal", "spatial_temporal", "spatial_temporal_layer"):
        store, mod = make_video_mod(mode=mode)
        out = mod.apply(1, Tensor(x))
        np.testing.assert_array_equal(out.data, x)
        # re-randomize then reset
        for t in (t for _, t in store.items()):
            t.data[:] = rng_for(5, "noise", mode).normal(size=t.shape)
        identity_init(mod)
        out = mod.apply(2, Tensor(x))
        np.testing.assert_array_equal(out.data, x)


def test_identity_init_text():
    store = ParamStore()
    tm = TextModulation(store, [1, 2], DIM, seed=0)
    w = Tensor(rng_for(6, "tm").normal(size=(3, 1, DIM)))
    np.testing.assert_array_equal(tm.apply(1, w).data, w.data)
    tm.params[1]["c_t"].data[:] = 7.0
    identity_init(tm)
    np.testing.assert_array_equal(tm.apply(1, w).data, w.data)


def test_spatial_temporal_replication_degenerates_to_temporal():
    store_t, mod_t = make_video_mod(mode="temporal", layers=(1,))
    store_s, mod_s = make_video_mod(mode="spatial_temporal", layers=(1,))
    rng = rng_for(7, "deg")
    for tag in ("c", "s"):
        a = rng.normal(size=(FRAMES, RANK))
        b = rng.normal(size=(RANK, DIM))
        mod_t.params[1][f"{tag}_a"].data[:] = a
        mod_t.params[1][f"{tag}_b"].data[:] = b
        mod_s.params[1][f"{tag}_a"].data[:] = np.repeat(a[:, None, :], TOKENS, axis=1).reshape(
            FRAMES * TOKENS, RANK)
        mod_s.params[1][f"{tag}_b"].data[:] = b
    x = Tensor(rng.normal(size=(FRAMES, TOKENS, DIM)))
    np.testing.assert_allclose(mod_s.apply(1, x).data, mod_t.apply(1, x).data, atol=1e-12)


def test_spatial_temporal_matches_brute_force_contraction():
    store, mod = make_video_mod(mode="spatial_temporal", layers=(1,))
    rng = rng_for(8, "bf")
    a = rng.normal(size=(FRAMES, TOKENS, RANK))
    b = rng.normal(size=(RANK, DIM))
    mod.params[1]["c_a"].data[:] = a.reshape(FRAMES * TOKENS, RANK)
    mod.params[1]["c_b"].data[:] = b
    c, _ = mod.compose(1)
    want = np.zeros((FRAMES, TOKENS, DIM))
    for t in range(FRAMES):
        for n in range(TOKENS):
            for d in range(DIM):
                want[t, n, d] = sum(a[t, n, r] * b[r, d] for r in range(RANK))
    np.testing.assert_allclose(c.data, want.reshape(FRAMES * TOKENS, DIM), atol=1e-12)


def test_layer_shared_mode_composes_and_bounds_rank():
    store, mod = make_video_mod(mode="spatial_temporal_layer", layers=(1, 2, 3))
    rng = rng_for(9, "stl")
    for tag in ("c", "s"):
        mod.params[f"{tag}_a"].data[:] = rng.normal(size=mod.params[f"{tag}_a"].shape)
        mod.params[f"{tag}_b"].data[:] = rng.normal(size=mod.params[f"{tag}_b"].shape)
        mod.params[f"{tag}_c"].data[:] = rng.normal(size=mod.params[f"{tag}_c"].shape)
    a = mod.params["c_a"].data
    b = mod.params["c_b"].data
    cmat = mod.params["c_c"].data
    want = np.einsum("mi,itsj,jd->mtsd", a, b, cmat)
    for idx, layer in enumerate((1, 2, 3)):
        c, s = mod.compose(layer)
        np.testing.assert_allclose(c.data, want[idx].reshape(FRAMES * TOKENS, DIM), atol=1e-12)
        sv = np.linalg.svd(c.data, compute_uv=False)
        assert (sv[RANK:] < 1e-10 * max(1.0, sv[0])).all()


def test_layer_shared_compose_builds_only_its_own_layer(monkeypatch):
    # layer m's leading factor is row m of a applied to the shared b, so no
    # product holds another layer's (rows, D) block: the (L, rows * D) stack
    # of every layer, built to keep one row block, held 3,840 elements here
    frames, tokens, dim, layers = 6, 5, 32, [1, 2, 3, 4]
    mod = VideoModulation(ParamStore(), "spatial_temporal_layer", layers, RANK, frames, tokens,
                          dim, 0)
    sizes = []
    matmul = T.matmul

    def counted(a, b):
        out = matmul(a, b)
        sizes.append(out.data.size)
        return out

    monkeypatch.setattr(T, "matmul", counted)
    c, s = mod.compose(2)
    assert c.shape == s.shape == (frames * tokens, dim)
    assert (c.data == 1.0).all() and (s.data == 0.0).all()
    assert sizes and max(sizes) <= frames * tokens * dim


@pytest.mark.parametrize("mode, rows", [
    ("temporal", FRAMES),
    ("spatial_temporal", FRAMES * TOKENS),
    ("spatial_temporal_layer", FRAMES * TOKENS),
])
def test_compose_is_a_rank_r_matrix_that_apply_reshapes_per_frame(mode, rows):
    # at random factors every mode composes (rows, D) matrices of rank at
    # most R; apply reads them as (T, rows / T, D) and, at the last block's
    # one-row input, a per-token factor keeps its CLS row
    store, mod = make_video_mod(mode=mode, layers=(1, 2))
    rng = rng_for(19, "contract", mode)
    for _, t in store.items():
        t.data[:] = rng.normal(size=t.shape)
    for layer in (1, 2):
        c, s = mod.compose(layer)
        for m in (c, s):
            assert m.shape == (rows, DIM)
            sv = np.linalg.svd(m.data, compute_uv=False)
            assert (sv[RANK:] < 1e-10 * max(1.0, sv[0])).all()
        scale = c.data.reshape(FRAMES, -1, DIM)
        shift = s.data.reshape(FRAMES, -1, DIM)
        for tokens in (TOKENS, 1):
            x = rng.normal(size=(3, FRAMES, tokens, DIM))
            want = scale[:, :tokens] * x + shift[:, :tokens]
            np.testing.assert_array_equal(mod.apply(layer, Tensor(x)).data, want)


def test_none_mode_is_passthrough():
    store, mod = make_video_mod(mode="none")
    x = Tensor(rng_for(10, "none").normal(size=(FRAMES, TOKENS, DIM)))
    assert mod.apply(1, x) is x
    assert store.trainable_count == 0
    with pytest.raises(ConfigError):
        mod.compose(1)


def test_rank_validation():
    with pytest.raises(ConfigError):
        make_video_mod(rank=0)
    with pytest.raises(ConfigError):
        make_video_mod(rank=FRAMES + 1)


def test_gradient_flow_through_all_four_factors():
    # wiring check at a randomized (non-identity) parameter point
    store, mod = make_video_mod(layers=(1,))
    rng = rng_for(11, "flow")
    for name, t in store.items():
        t.data[:] += rng.normal(size=t.shape) * 0.1
    x = Tensor(rng.normal(size=(FRAMES, TOKENS, DIM)))
    out = mod.apply(1, x)
    T.tsum(out * out).backward()
    for key in ("c_a", "c_b", "s_a", "s_b"):
        grad = mod.params[1][key].grad
        assert grad is not None and np.abs(grad).max() > 0, key


def test_parameter_count_closed_form():
    layers = (1, 2, 3)
    store, mod = make_video_mod(layers=layers, rank=RANK)
    want = len(layers) * 2 * (FRAMES * RANK + RANK * DIM)
    assert store.num_elements(trainable=True, prefix="adapter/lorm/") == want


def test_word_level_lowrank_flag():
    store = ParamStore()
    tm = TextModulation(store, [1], DIM, seed=0, lowrank=True, rank=2, positions=TOKENS)
    x = Tensor(rng_for(12, "wl").normal(size=(2, 4, DIM)))
    np.testing.assert_array_equal(tm.apply(1, x).data, x.data)  # identity at init
    tm.params[1]["w_a"].data[:] = rng_for(13, "wl").normal(size=(TOKENS, 2))
    out = tm.apply(1, x)
    assert out.shape == x.shape
    assert not np.allclose(out.data[:, :-1], x.data[:, :-1])  # the word rows move too


def two_hook_text_modulation(tm, layer, x):
    """Text modulation as the tower once applied it: a word-level hook on
    the whole block output, then a sentence hook on the sliced EOS row,
    concatenated back."""
    if layer not in tm.params:
        return x
    entry = tm.params[layer]
    if tm.lowrank:
        n = x.shape[-2]
        cw = T.matmul(entry["w_a"], entry["w_b"])[:n]
        sw = T.matmul(entry["v_a"], entry["v_b"])[:n]
        x = cw * x + sw
    w = entry["c_t"] * x[:, -1:, :] + entry["s_t"]
    return T.concat([x[:, :-1, :], w], axis=1)


@pytest.mark.parametrize("lowrank", [False, True])
@pytest.mark.parametrize("layers", [[], [1, 2]])
def test_text_apply_bitwise_as_two_hook_composition(layers, lowrank):
    # ``layers=[]`` is text modulation off; at perturbed parameters the one
    # hook must give the old composition's output and gradients as bits
    runs = []
    for apply in (None, two_hook_text_modulation):
        store = ParamStore()
        tm = TextModulation(store, layers, DIM, seed=0, lowrank=lowrank, rank=2,
                            positions=TOKENS)
        for name, t in store.items():
            t.data += rng_for(14, "two-hook", name).normal(size=t.shape) * 0.1
        x = Tensor(rng_for(15, "two-hook").normal(size=(3, 4, DIM)), requires_grad=True)
        out = x
        for layer in (1, 2, 3):
            out = tm.apply(layer, out) if apply is None else apply(tm, layer, out)
        T.tsum(out * rng_for(16, "two-hook").normal(size=out.shape)).backward()
        runs.append((out.data, x.grad, {name: t.grad for name, t in store.items()}))
    (out, gx, grads), (want_out, want_gx, want_grads) = runs
    assert (_bits(out) == _bits(want_out)).all()
    assert (_bits(gx) == _bits(want_gx)).all()
    assert grads.keys() == want_grads.keys()
    for name in grads:
        assert (_bits(grads[name]) == _bits(want_grads[name])).all(), name
    if not lowrank:
        x = Tensor(rng_for(17, "two-hook").normal(size=(3, 4, DIM)))
        np.testing.assert_array_equal(tm.apply(1, x).data[:, :-1], x.data[:, :-1])


def test_apply_returns_its_input_where_nothing_is_adapted():
    x = Tensor(rng_for(18, "pass").normal(size=(FRAMES, TOKENS, DIM)))
    _, mod = make_video_mod(layers=(1,))
    assert mod.apply(2, x) is x
    _, mod = make_video_mod(mode="none", layers=(1, 2))
    assert mod.layers == []
    assert mod.apply(1, x) is x
    tm = TextModulation(ParamStore(), [1], DIM, seed=0, lowrank=True, rank=2, positions=TOKENS)
    assert tm.apply(2, x) is x
    assert TextModulation(ParamStore(), [], DIM, seed=0).apply(1, x) is x
