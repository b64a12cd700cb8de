"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass line per
criterion. Each test enforces its tolerance (and runtime budget where
one is stated) with plain asserts; a failure is a failed criterion.
"""

import os
import time
from dataclasses import replace

import numpy as np

from tvadapt import config as cm
from tvadapt.ablation import SUITES, format_table, perfect_step, run_suite
from tvadapt.attention import OffsetParams, WarpAxes, asa_kv, warp_kv
from tvadapt.backbone import attention_core
from tvadapt.checkpoint import load_model, save_checkpoint
from tvadapt.counting import count_params
from tvadapt.data import generate_dataset
from tvadapt.model import AdapterModel
from tvadapt.retrieval import SimilarityMatrix, dsl, metrics_report
from tvadapt.tensor import ParamStore, Tensor, fd_check, no_grad, rng_for
from tvadapt.train import evaluate_model, train


def _report(num, name, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[acceptance] criterion {num:>2} {name}: PASS{suffix}")


def _safe_offsets(model, seed=99):
    """Offsets strictly inside grid cells, away from clamps and lattice."""
    rng = rng_for(seed, "safe-offsets")
    g = rng.uniform(0.15, 0.45, size=model.offsets.gamma.shape)
    g[-1] = -rng.uniform(0.15, 0.45)
    d = rng.uniform(0.15, 0.45, size=model.offsets.delta.shape)
    d[-1] = -rng.uniform(0.15, 0.45)
    model.offsets.gamma.data[:] = g
    model.offsets.delta.data[:] = d


def test_criterion_01_identity_preservation():
    start = time.monotonic()
    cfg = cm.toy_config(pairs=6, batch_size=6)
    data = generate_dataset(cfg.seed, cfg.pairs, cfg)
    baseline = AdapterModel(replace(cfg, decompose="none", asa=False, text_modulation=False))
    with no_grad():
        z_base = baseline.encode_texts(data.tokens)
        v_base = baseline.encode_videos(data.videos)
    base_reports = evaluate_model(baseline, data)

    for mode in ("text_top_k", "text_bottom_k", "vision_top_k",
                 "vision_bottom_k", "random", "none"):
        model = AdapterModel(replace(cfg, selection=mode))
        with no_grad():
            z = model.encode_texts(data.tokens)
            v = model.encode_videos(data.videos, candidates=z.data)
        assert np.abs(z.data - z_base.data).max() <= 1e-12, mode
        assert np.abs(v.data - v_base.data).max() <= 1e-12, mode
        reports = evaluate_model(model, data)
        for key in base_reports:
            assert reports[key].to_dict() == base_reports[key].to_dict(), (mode, key)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, "identity preservation", f"{elapsed:.1f}s, 6 selection modes")


def test_criterion_02_gradient_integrity():
    start = time.monotonic()
    cfg = cm.toy_config(pairs=3, batch_size=3)
    data = generate_dataset(cfg.seed, cfg.pairs, cfg)
    model = AdapterModel(cfg)
    _safe_offsets(model)
    rng = rng_for(7, "generic-point")
    for name, t in model.store.trainable_items():
        if name.startswith(("adapter/lorm", "adapter/textmod")):
            t.data += rng.normal(size=t.shape) * 0.05

    def fn(store):
        return model.batch_loss(data.videos, data.tokens, sel_key=("fd",))

    err = fd_check(fn, model.store, eps=1e-5)
    elapsed = time.monotonic() - start
    assert err < 1e-4
    assert elapsed < 120.0
    coords = model.store.num_elements(trainable=True)
    _report(2, "gradient integrity", f"max rel err {err:.2e} over {coords} coords, {elapsed:.0f}s")


def test_criterion_03_overfit_sanity():
    start = time.monotonic()
    cfg = cm.toy_config(pairs=16, batch_size=16, epochs=120, lr=1e-2)
    data = generate_dataset(cfg.effective_data_seed, cfg.pairs, cfg)
    model, history, steps = train(cfg, data)
    assert steps <= 500
    reports = history[-1]["reports"]
    for direction in ("video->text", "text->video"):
        assert reports[direction].r_at[1] == 1.0, direction
        assert reports[direction].mnr == 1.0, direction
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(3, "overfit sanity", f"R@1=1.0 both ways in {steps} steps, {elapsed:.0f}s")


def test_criterion_04_warp_oracle():
    frames, patches, dim = 5, 6, 4
    rng = rng_for(11, "warp-oracle")

    def direct_index(k, gamma, delta, mask):
        out = k.copy()
        for t in range(frames):
            for n in range(patches):
                if mask[t, n]:
                    tt = int(np.clip(t + delta[t], 0, frames - 1))
                    nn = int(np.clip(n + gamma[n], 0, patches - 1))
                    out[t, n] = k[tt, nn]
        return out

    for _ in range(1000):
        store = ParamStore()
        off = OffsetParams(store, patches, frames)
        gamma = np.array([rng.integers(-n, patches - n) for n in range(patches)], dtype=float)
        delta = np.array([rng.integers(-t, frames - t) for t in range(frames)], dtype=float)
        off.gamma.data[:] = gamma[:, None]
        off.delta.data[:] = delta[:, None]
        k = rng.normal(size=(frames, patches, dim))
        mask = rng.random((frames, patches)) < 0.6
        k_hat, _ = warp_kv(Tensor(k), Tensor(k), off, mask)
        assert (k_hat.data == direct_index(k, gamma, delta, mask)).all()

    for _ in range(1000):
        store = ParamStore()
        off = OffsetParams(store, patches, frames)
        off.gamma.data[:] = rng.uniform(-patches, patches, size=(patches, 1))
        off.delta.data[:] = rng.uniform(-frames, frames, size=(frames, 1))
        k = rng.normal(size=(frames, patches, dim))
        k_hat, _ = warp_kv(Tensor(k), Tensor(k), off, np.ones((frames, patches), bool))
        for t in range(frames):
            tc = np.clip(t + off.delta.data[t, 0], 0, frames - 1)
            t0 = int(np.floor(tc))
            t1 = min(t0 + 1, frames - 1)
            for n in range(patches):
                nc = np.clip(n + off.gamma.data[n, 0], 0, patches - 1)
                n0 = int(np.floor(nc))
                n1 = min(n0 + 1, patches - 1)
                corners = k[[t0, t0, t1, t1], [n0, n1, n0, n1]]
                assert (k_hat.data[t, n] >= corners.min(axis=0) - 1e-12).all()
                assert (k_hat.data[t, n] <= corners.max(axis=0) + 1e-12).all()
    _report(4, "warp oracle", "1000 integer exact + 1000 fractional in hull")


def test_criterion_05_zero_offset_equivalence():
    frames, patches, dim = 4, 5, 8
    rng = rng_for(13, "zero-off")
    for trial in range(200):
        heads = 2 if trial % 2 else 1
        store = ParamStore()
        off = OffsetParams(store, patches, frames)
        x = Tensor(rng.normal(size=(frames, patches + 1, dim)))
        q = Tensor(rng.normal(size=(frames, patches + 1, dim)))
        k = Tensor(rng.normal(size=(frames, patches + 1, dim)))
        v = Tensor(rng.normal(size=(frames, patches + 1, dim)))
        mask = rng.random((frames, patches)) < 0.5
        got = attention_core(q, *asa_kv(k, v, off, mask), heads)
        want = attention_core(q, k, v, heads)
        assert (got.data == want.data).all()
    _report(5, "zero-offset equivalence", "200 random inputs, bitwise")


def test_criterion_06_metric_oracle():
    rng = rng_for(17, "metric-oracle")
    for _ in range(100):
        n = int(rng.integers(2, 51))
        scores = rng.normal(size=(n, n))
        perm = rng.permutation(n)
        sim = SimilarityMatrix(scores, video_to_text=perm)

        ranks = []
        for i in range(n):  # brute-force full-sort oracle
            gt = scores[i, perm[i]]
            ranks.append(1 + sum(1 for j in range(n) if j != perm[i] and scores[i, j] >= gt))
        ranks = np.array(ranks)
        rep = metrics_report(sim, "video->text")
        for k in (1, 5, 10):
            assert rep.r_at[k] == (ranks <= k).mean()
        assert rep.mdr == float(np.median(ranks))
        assert rep.mnr == float(ranks.mean())
    _report(6, "metric oracle", "100 matrices up to 50x50, exact")


def test_criterion_07_rank_bound_after_training():
    cfg = cm.toy_config(pairs=8, batch_size=8, epochs=40, lr=1e-2)
    data = generate_dataset(cfg.effective_data_seed, cfg.pairs, cfg)
    model, _, _ = train(cfg, data, eval_each_epoch=False)
    for layer in model.video_mod.layers:
        with no_grad():
            c, s = model.video_mod.compose(layer)
        for tag, mat in (("scale", c.data), ("shift", s.data)):
            sv = np.linalg.svd(mat, compute_uv=False)
            assert (sv[cfg.rank:] < 1e-10).all(), (layer, tag, sv)
    _report(7, "rank bound", f"all {len(model.video_mod.layers)} layers, sv beyond R < 1e-10")


def test_criterion_08_parameter_counting():
    rep = count_params(cm.vit_b32_shaped_config())
    assert rep.groups["lorm_visual"] == 56160
    assert rep.groups["asa_offsets"] == 61
    assert rep.trainable_fraction < 0.02
    _report(8, "parameter counting",
            f"lorm 56160, offsets 61, fraction {rep.trainable_fraction:.2%}")


def test_criterion_09_ablation_structure_and_direction():
    # every suite executes every mode and emits well-formed rows
    fast = cm.toy_config(epochs=2, pairs=4, batch_size=4, lr=1e-2)
    for suite, modes in SUITES.items():
        rows = run_suite(suite, fast)
        assert [r.mode for r in rows] == [m for m, _ in modes]
        for row in rows:
            assert row.params >= 0 and set(row.reports) == {"video->text", "text->video"}
        assert format_table(rows)

    # directional sanity on the overfit task: full mode no slower than null
    base = cm.toy_config(pairs=8, batch_size=8, epochs=120, lr=1e-2)
    data = generate_dataset(base.effective_data_seed, base.pairs, base)
    full_cfg = replace(base, decompose="temporal", selection="text_top_k", warp_axes="both")
    _, hist_full, _ = train(full_cfg, data)
    null_cfg = replace(base, decompose="none", selection="none")
    _, hist_null, _ = train(null_cfg, data)
    steps_full = perfect_step(hist_full)
    steps_null = perfect_step(hist_null)
    assert steps_full is not None and steps_null is not None
    assert steps_full <= steps_null
    _report(9, "ablation structure", f"4 suites; full perfect@{steps_full} <= null @{steps_null}")


def test_criterion_10_dsl_behavior():
    r_at_1 = lambda sim: metrics_report(sim, "video->text", ks=(1,)).r_at[1]
    # seeded search constructs an ambiguous 4x4 where DSL beats raw R@1
    rng = rng_for(0, "dsl-search")
    found = None
    for _ in range(20000):
        scores = rng.uniform(-1.0, 1.0, size=(4, 4))
        raw = SimilarityMatrix(scores)
        r_raw = r_at_1(raw)
        r_dsl = r_at_1(dsl(raw))
        if r_raw < r_dsl:
            found = (scores, r_raw, r_dsl)
            break
    assert found is not None
    scores, r_raw, r_dsl = found
    assert r_at_1(dsl(SimilarityMatrix(scores))) > r_at_1(SimilarityMatrix(scores))

    rng = rng_for(1, "dsl-perm")
    for _ in range(50):  # permutation-dominant matrices keep their argmax
        n = 6
        perm = rng.permutation(n)
        scores = rng.uniform(-0.2, 0.2, size=(n, n))
        scores[np.arange(n), perm] = 1.0
        out = dsl(SimilarityMatrix(scores))
        assert (out.scores.argmax(axis=1) == scores.argmax(axis=1)).all()
    _report(10, "dsl behavior", f"raw R@1 {r_raw:.2f} -> dsl {r_dsl:.2f}; argmax stable on 50 dominants")


def test_criterion_11_determinism_and_persistence(tmp_path):
    cfg = cm.toy_config(pairs=6, batch_size=6, epochs=6, lr=1e-2)
    data = generate_dataset(cfg.effective_data_seed, cfg.pairs, cfg)

    m1, h1, s1 = train(cfg, data, eval_each_epoch=False)
    m2, h2, s2 = train(cfg, data, eval_each_epoch=False)
    assert s1 == s2
    assert [h["loss"] for h in h1] == [h["loss"] for h in h2]
    for name, t in m1.store.items():
        assert t.data.tobytes() == m2.store[name].data.tobytes(), name

    path = os.path.join(tmp_path, "model.ckpt")
    save_checkpoint(path, m1, steps=s1)
    restored, ckpt = load_model(path)
    live = evaluate_model(m1, data, use_dsl=True)
    loaded = evaluate_model(restored, data, use_dsl=True)
    for key in live:
        assert live[key].to_dict() == loaded[key].to_dict(), key

    assert m1.store.hash_bytes("backbone/") == AdapterModel(cfg).store.hash_bytes("backbone/")
    _report(11, "determinism & persistence", "bitwise retrain, exact ckpt roundtrip, backbone hash stable")
