"""Harness tests: CLI surface, ablation suites, diagnostics exports."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import sys

import numpy as np
import pytest

from tvadapt import attention as attention_mod
from tvadapt import config as cm
from tvadapt import diagnostics
from tvadapt import model as model_mod
from tvadapt.ablation import SUITES, format_table, perfect_step, rows_to_json, run_suite
from tvadapt.attention import asa_kv
from tvadapt.checkpoint import save_checkpoint
from tvadapt.cli import main
from tvadapt.counting import count_params
from tvadapt.data import generate_dataset
from tvadapt.diagnostics import attention_similarity_map, export_diagnostics
from tvadapt.exceptions import ConfigError, ConsistencyError, WorkerError
from tvadapt.model import AdapterModel, ASAPass
from tvadapt.tensor import no_grad
from tvadapt.train import train

FAST = dict(epochs=3, pairs=4, batch_size=4, lr=1e-2)


def write_cfg(tmp_path, **overrides):
    path = os.path.join(tmp_path, "exp.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cm.dumps(cm.toy_config(**overrides)))
    return path


# -- CLI ----------------------------------------------------------------------


def test_cli_train_eval_roundtrip(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, **FAST)
    ckpt = os.path.join(tmp_path, "m.ckpt")
    assert main(["train", "--config", cfg_path, "--out", ckpt]) == 0
    assert os.path.exists(ckpt)
    json_path = os.path.join(tmp_path, "report.json")
    assert main(["eval", "--ckpt", ckpt, "--dsl", "--json", json_path]) == 0
    out = capsys.readouterr().out
    assert "video->text" in out and "[dsl]" in out
    with open(json_path) as fh:
        payload = json.load(fh)
    assert "video->text" in payload and "r@1" in payload["video->text"]


def test_cli_usage_errors_exit_1(capsys):
    # exit code 2 means a numeric failure, so argparse's own 2 must not leak out
    for argv in (["eval", "--ckpt", "m.ckpt", "--pairs", "two"], ["train", "--nope"],
                 ["bogus"], [], ["eval", "--ckpt", "m.ckpt", "--data-seed", "3"]):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    with pytest.raises(SystemExit) as stop:
        main(["eval", "--help"])
    assert stop.value.code == 0 and "--ckpt" in capsys.readouterr().out


def test_cli_validation_errors_exit_1(tmp_path, capsys):
    bad = os.path.join(tmp_path, "bad.cfg")
    with open(bad, "w") as fh:
        fh.write("not_a_key = 1\n")
    assert main(["train", "--config", bad, "--out", os.path.join(tmp_path, "x.ckpt")]) == 1
    assert "unknown config key" in capsys.readouterr().err
    assert main(["eval", "--ckpt", os.path.join(tmp_path, "missing.ckpt")]) == 1


def test_cli_config_errors_name_the_file(tmp_path, capsys):
    stale = os.path.join(tmp_path, "stale.cfg")
    with open(stale, "w") as fh:
        fh.write("warp_interp = bilinear\n")
    assert main(["train", "--config", stale, "--out", os.path.join(tmp_path, "x.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {stale}: line 1: unknown config key 'warp_interp'\n"
    small = write_cfg(tmp_path, vocab=3, pairs=9)  # 16 distinct captions, 18 needed
    assert main(["train", "--config", small, "--out", os.path.join(tmp_path, "x.ckpt")]) == 1
    assert "but vocab 3 gives only 16" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "stale.cfg"]


def test_cli_directory_for_a_file_exits_1(tmp_path, capsys):
    assert main(["eval", "--ckpt", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["count-params", "--config", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_missing_output_directory_fails_before_any_work(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, **FAST)
    ckpt = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(ckpt, AdapterModel(cm.toy_config(**FAST)), steps=0)
    missing = os.path.join(tmp_path, "missing")
    path = os.path.join(missing, "x.out")
    for argv in (["train", "--config", cfg_path, "--verbose", "--out", path],
                 ["ablate", "--suite", "warp", "--config", cfg_path, "--verbose", "--out", path],
                 ["eval", "--ckpt", ckpt, "--json", path],
                 ["gen-data", "--seed", "0", "--pairs", "4", "--out", path]):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv  # no epoch, no ablation row, no report
        assert err == f"error: cannot write {path}: directory {missing} does not exist\n", argv
    assert not os.path.exists(missing)


def test_cli_output_path_that_is_a_directory_fails_before_any_work(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, **FAST)
    ckpt = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(ckpt, AdapterModel(cm.toy_config(**FAST)), steps=0)
    folder = os.path.join(tmp_path, "out.npz")
    os.mkdir(folder)
    for argv in (["train", "--config", cfg_path, "--verbose", "--out", folder],
                 ["ablate", "--suite", "warp", "--config", cfg_path, "--verbose", "--out", folder],
                 ["eval", "--ckpt", ckpt, "--json", folder],
                 ["gen-data", "--seed", "0", "--pairs", "4", "--out", folder],
                 # the file gen-data writes is the path plus ".npz"
                 ["gen-data", "--seed", "0", "--pairs", "4", "--out", folder[:-4]]):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv  # no epoch, no ablation row, no report
        assert err == f"error: cannot write {folder}: it is a directory\n", argv
    assert os.listdir(folder) == []


def test_cli_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    bad = os.path.join(tmp_path, "latin1.cfg")
    with open(bad, "wb") as fh:
        fh.write("seed = 1  # caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="UTF-8"):
        cm.load(bad)
    assert main(["count-params", "--config", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err


def test_cli_numeric_failure_exits_2(tmp_path, capsys, monkeypatch):
    import tvadapt.cli as cli_mod

    cfg_path = write_cfg(tmp_path, **FAST)

    def explode(*args, **kwargs):
        from tvadapt.exceptions import NumericError

        raise NumericError("synthetic blowup")

    monkeypatch.setattr(cli_mod, "train", explode)
    rc = main(["train", "--config", cfg_path, "--out", os.path.join(tmp_path, "x.ckpt")])
    assert rc == 2
    assert "numeric failure" in capsys.readouterr().err


def test_cli_worker_failure_exits_3(tmp_path, capsys, monkeypatch):
    import tvadapt.cli as cli_mod

    ckpt = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(ckpt, AdapterModel(cm.toy_config(**FAST)), steps=0)

    def killed(*args, **kwargs):
        raise WorkerError("worker 4242 was killed by signal 9")

    monkeypatch.setattr(cli_mod, "evaluate_model", killed)
    assert main(["eval", "--ckpt", ckpt]) == 3
    assert capsys.readouterr().err == "worker failure: worker 4242 was killed by signal 9\n"


def test_cli_count_params_and_gen_data(tmp_path, capsys):
    assert main(["count-params"]) == 0
    out = capsys.readouterr().out
    assert "lorm_visual" in out and "fraction" in out
    for out, written in (("data.npz", "data.npz"), ("bare", "bare.npz")):
        path = os.path.join(tmp_path, out)
        assert main(["gen-data", "--seed", "2", "--pairs", "4", "--out", path]) == 0
        written = os.path.join(tmp_path, written)
        assert f"dataset written to {written}\n" in capsys.readouterr().out
        with np.load(written) as blob:
            assert blob["videos"].shape[0] == 4 and blob["tokens"].shape[0] == 4
    assert sorted(os.listdir(tmp_path)) == ["bare.npz", "data.npz"]


def test_cli_pairs_beyond_the_size_cap_is_a_config_error(tmp_path, capsys, monkeypatch):
    import tvadapt.cli as cli_mod

    ckpt = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(ckpt, AdapterModel(cm.toy_config()), steps=0)

    def never(*args, **kwargs):
        raise AssertionError("generate_dataset called past the size cap")

    # 10**6 pairs: 4.99e9 activation elements, about 18 GB of candidate videos
    monkeypatch.setattr(cli_mod, "generate_dataset", never)
    for argv in (["gen-data", "--seed", "0", "--pairs", "1000000"],
                 ["eval", "--ckpt", ckpt, "--pairs", "1000000"]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "exceeds the cap" in err, argv
        assert "Traceback" not in err, argv


def test_cli_export_diag(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, **FAST)
    ckpt = os.path.join(tmp_path, "m.ckpt")
    main(["train", "--config", cfg_path, "--out", ckpt])
    out_dir = os.path.join(tmp_path, "diag")
    assert main(["export-diag", "--ckpt", ckpt, "--out-dir", out_dir]) == 0
    names = set(os.listdir(out_dir))
    assert "manifest.json" in names
    assert "modulation_scale_layer1.csv" in names


def test_cli_ablate_writes_table_and_json(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, epochs=2, pairs=4, batch_size=4, lr=1e-2)
    out_json = os.path.join(tmp_path, "rows.json")
    assert main(["ablate", "--suite", "warp", "--config", cfg_path, "--out", out_json]) == 0
    out = capsys.readouterr().out
    assert "temporal_only" in out and "spatial_only" in out
    with open(out_json) as fh:
        rows = json.load(fh)
    assert len(rows) == 3


def test_cli_ablate_without_epochs_reports_the_untrained_model(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, epochs=0, pairs=4, batch_size=4)
    assert main(["ablate", "--suite", "warp", "--config", cfg_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:]]
    assert [row[1] for row in rows] == [mode for mode, _ in SUITES["warp"]]
    for row in rows:
        assert row[3:5] == ["0", "-"]  # no step ran, so never perfect
        assert len(row) == 11 and all(np.isfinite(float(cell)) for cell in row[5:])


# -- ablation plumbing -----------------------------------------------------------


def test_suites_cover_all_required_modes():
    assert [m for m, _ in SUITES["decompose"]] == [
        "none", "temporal", "spatial_temporal", "spatial_temporal_layer"]
    assert [m for m, _ in SUITES["selection"]] == [
        "text_top_k", "text_bottom_k", "vision_top_k", "vision_bottom_k", "random", "none"]
    assert [m for m, _ in SUITES["warp"]] == ["both", "temporal_only", "spatial_only"]
    assert [m for m, _ in SUITES["layers"]] == ["all", "last4"]


def test_run_suite_emits_wellformed_rows():
    cfg = cm.toy_config(epochs=2, pairs=4, batch_size=4, lr=1e-2)
    rows = run_suite("layers", cfg)
    assert [r.mode for r in rows] == ["all", "last4"]
    for row in rows:
        assert row.params > 0 and row.steps == 2
        assert set(row.reports) == {"video->text", "text->video"}
    table = format_table(rows)
    assert "perfect@" in table and "last4" in table
    parsed = json.loads(rows_to_json(rows))
    assert parsed[0]["video->text"]["r@1"] >= 0.0


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ConfigError, match="unknown ablation suite 'bogus'"):
        run_suite("bogus", cm.toy_config(pairs=4))


def test_perfect_step_helper():
    class R:
        def __init__(self, r1, mnr):
            self.r_at = {1: r1}
            self.mnr = mnr

    history = [
        {"steps": 5, "reports": {"video->text": R(0.5, 2.0), "text->video": R(1.0, 1.0)}},
        {"steps": 9, "reports": {"video->text": R(1.0, 1.0), "text->video": R(1.0, 1.0)}},
    ]
    assert perfect_step(history) == 9
    assert perfect_step(history[:1]) is None


# -- counting ---------------------------------------------------------------------


def test_count_params_group_values_on_toy():
    rep = count_params(cm.toy_config())
    assert rep.groups["lorm_visual"] == 912
    assert rep.groups["asa_offsets"] == 10
    assert rep.groups["temperature"] == 1
    assert rep.trainable_total == sum(rep.groups.values())
    assert "fraction" in rep.table()


def test_count_params_respects_switches():
    rep = count_params(cm.toy_config(asa=False, text_modulation=False, decompose="none"))
    assert rep.groups["lorm_visual"] == 0
    assert rep.groups["asa_offsets"] == 0
    assert rep.groups["lorm_text"] == 0
    rep = count_params(cm.toy_config(warp_axes="temporal"))
    assert rep.groups["asa_offsets"] == 6  # frame offsets only


def test_count_params_cross_check_holds_for_every_decompose_mode():
    for mode in ("temporal", "spatial_temporal", "spatial_temporal_layer", "none"):
        rep = count_params(cm.toy_config(decompose=mode))
        assert rep.trainable_total > 0
    stl = count_params(cm.toy_config(decompose="spatial_temporal_layer"))
    # 2 * (M*R + R*T*(N+1)*R + R*D) with M=4, R=3, T=6, N+1=5, D=32
    assert stl.groups["lorm_visual"] == 2 * (4 * 3 + 3 * 6 * 5 * 3 + 3 * 32)


def test_count_params_consistency_guard():
    import tvadapt.counting as counting

    cfg = cm.toy_config()
    original = counting.closed_forms

    def wrong(config):
        forms = original(config)
        forms["lorm_visual"] += 1
        return forms

    counting.closed_forms = wrong
    try:
        with pytest.raises(ConsistencyError):
            count_params(cfg)
    finally:
        counting.closed_forms = original

def test_cli_export_diag_rejects_bad_query_before_writing(tmp_path, capsys):
    cfg = cm.toy_config(pairs=4)
    ckpt = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(ckpt, AdapterModel(cfg), steps=0)
    for flag, value in (("--item", "99"), ("--item", "-1"), ("--frame", "99"),
                        ("--patch", "-1")):
        out_dir = os.path.join(tmp_path, f"diag{flag}{value}")
        argv = ["export-diag", "--ckpt", ckpt, "--out-dir", out_dir, flag, value]
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:"), argv
        assert not os.path.exists(out_dir) or os.listdir(out_dir) == [], argv



# -- diagnostics -------------------------------------------------------------------


def test_export_identity_scale_is_all_ones(tmp_path):
    cfg = cm.toy_config(pairs=4)
    data = generate_dataset(cfg.seed, cfg.pairs, cfg)
    model = AdapterModel(cfg)
    written = export_diagnostics(model, data, tmp_path, item=0, frame=2, patch=1)
    scale = np.loadtxt(os.path.join(tmp_path, "modulation_scale_layer1.csv"), delimiter=",")
    assert scale.shape == (cfg.frames, cfg.dim_v)
    np.testing.assert_array_equal(scale, 1.0)
    shift = np.loadtxt(os.path.join(tmp_path, "modulation_shift_layer3.csv"), delimiter=",")
    np.testing.assert_array_equal(shift, 0.0)
    sim = np.loadtxt(os.path.join(tmp_path, "patch_similarity_item0_frame2_patch1.csv"),
                     delimiter=",")
    assert sim.shape == (cfg.frames, cfg.patches)
    np.testing.assert_allclose(sim.sum(axis=1), 1.0, atol=1e-12)
    assert "manifest.json" in written


def _assert_map_row_is_vanilla_attention(asa):
    # single-layer model so the map's block input is the patchify output
    cfg = cm.toy_config(pairs=4, layers=1, asa=asa)
    data = generate_dataset(cfg.seed, cfg.pairs, cfg)
    model = AdapterModel(cfg)
    from tvadapt import tensor as T
    from tvadapt.backbone import patchify
    from tvadapt.tensor import no_grad

    with no_grad():
        cands = model.encode_texts(data.tokens).data
    sim = attention_similarity_map(model, data.videos[0], candidates=cands,
                                   frame=1, patch=2)
    with no_grad():
        x = patchify(data.videos[0], model.store, model.config)
        p = lambda n: model.store[f"backbone/visual/block1/{n}"]
        h = T.layer_norm(x, p("ln1_g"), p("ln1_b"))
        q = (T.linear(h, p("wq"), p("bq"))).data[1, 3, :]  # patch 2 -> token 3
        k = (T.linear(h, p("wk"), p("bk"))).data[1, 1:, :]
    scores = k @ q / np.sqrt(cfg.dim_v)
    want = np.exp(scores - scores.max())
    want /= want.sum()
    np.testing.assert_allclose(sim[1], want, atol=1e-12)


def test_similarity_map_matches_vanilla_attention_at_zero_offsets():
    _assert_map_row_is_vanilla_attention(asa=True)


def test_similarity_map_and_export_with_asa_off(tmp_path):
    # the tower runs no attention hook, so the map reads the vanilla keys
    _assert_map_row_is_vanilla_attention(asa=False)
    cfg = cm.toy_config(pairs=4, asa=False)
    data = generate_dataset(cfg.seed, cfg.pairs, cfg)
    written = export_diagnostics(AdapterModel(cfg), data, tmp_path, item=0, frame=2, patch=1)
    sim = np.loadtxt(os.path.join(tmp_path, "patch_similarity_item0_frame2_patch1.csv"),
                     delimiter=",")
    np.testing.assert_allclose(sim.sum(axis=1), 1.0, atol=1e-12)
    assert "manifest.json" in written


def test_diagnostics_shapes_after_training(tmp_path):
    cfg = cm.toy_config(**FAST)
    data = generate_dataset(cfg.seed, cfg.pairs, cfg)
    from tvadapt.train import train

    model, _, _ = train(cfg, data, eval_each_epoch=False)
    export_diagnostics(model, data, tmp_path)
    scale = np.loadtxt(os.path.join(tmp_path, "modulation_scale_layer2.csv"), delimiter=",")
    assert scale.shape == (cfg.frames, cfg.dim_v)
    sv = np.loadtxt(os.path.join(tmp_path, "modulation_scale_layer2_singular_values.csv"),
                    delimiter=",")
    assert sv.shape == (min(cfg.frames, cfg.dim_v),)
    assert (sv[cfg.rank:] < 1e-10).all()


@pytest.mark.parametrize("mode", ["temporal", "spatial_temporal", "spatial_temporal_layer"])
def test_export_writes_compose_matrices_of_rank_r(tmp_path, mode):
    cfg = cm.toy_config(pairs=4, asa=False, decompose=mode)
    data = generate_dataset(cfg.seed, cfg.pairs, cfg)
    model = AdapterModel(cfg)
    for name, t in model.store.trainable_items():
        if name.startswith("adapter/lorm/"):
            t.data += 0.05 * np.random.default_rng(0).normal(size=t.shape)
    export_diagnostics(model, data, tmp_path)
    for layer in model.video_mod.layers:
        with no_grad():
            want = model.video_mod.compose(layer)[0].data
        scale = np.loadtxt(tmp_path / f"modulation_scale_layer{layer}.csv", delimiter=",")
        np.testing.assert_array_equal(scale, want)
        sv = np.loadtxt(tmp_path / f"modulation_scale_layer{layer}_singular_values.csv",
                        delimiter=",")
        assert (sv > 1e-10 * sv[0]).sum() <= cfg.rank


def test_similarity_map_runs_one_sentence_pick_per_map(monkeypatch):
    cfg = cm.toy_config(pairs=4)
    data = generate_dataset(cfg.seed, cfg.pairs, cfg)
    model = AdapterModel(cfg)
    with no_grad():
        cands = model.encode_texts(data.tokens).data
    picks = []
    pick = model._pick_sentences

    def counting_pick(videos, candidates, states=None):
        picks.append(len(videos))
        return pick(videos, candidates, states)

    monkeypatch.setattr(model, "_pick_sentences", counting_pick)
    plans = []
    axis_plan = attention_mod._axis_plan

    def counting_plan(offset, size, axis):
        plans.append(axis)
        return axis_plan(offset, size, axis)

    monkeypatch.setattr(attention_mod, "_axis_plan", counting_plan)
    for layer in (1, 3):
        picks.clear()
        plans.clear()
        attention_similarity_map(model, data.videos[0], candidates=cands, layer=layer)
        assert picks == [1], layer
        assert plans == [-2, -3], layer  # the map's one pass builds both axis plans once


def test_similarity_map_runs_the_models_tower_pass(monkeypatch):
    cfg = cm.toy_config(pairs=4)  # text selection: the map's forward needs a sentence pick
    data = generate_dataset(cfg.seed, cfg.pairs, cfg)
    model = AdapterModel(cfg)
    with no_grad():
        cands = model.encode_texts(data.tokens).data
    calls = []
    encode = model_mod.encode_video

    def counted(videos, *args, **kwargs):
        calls.append(np.shape(videos))
        return encode(videos, *args, **kwargs)

    monkeypatch.setattr(model_mod, "encode_video", counted)
    attention_similarity_map(model, data.videos[0], candidates=cands)
    # the sentence-pick prepass, then the map's own forward, both in model.py
    assert calls == [data.videos[:1].shape] * 2


def _map_rows(model, video, layer):
    """Map rows from ``layer``'s keys warped here with ``asa_kv`` under the mask a forward
    draws from the map's selection stream, and from the same keys unwarped."""
    asa = ASAPass(model, video[None], sel_key=("diag",))
    hooks = asa.hooks(slice(None))
    seen = {}

    def spy(x_in, q, k, v):
        seen.update(q=q, k=k, v=v)
        return hooks[layer](x_in, q, k, v) if layer in hooks else (k, v)

    with no_grad():
        model.video_tower(video[None], lambda rows: {**hooks, layer: spy})
        keys = [seen["k"]]
        if layer in hooks:
            keys.insert(0, asa_kv(seen["k"], seen["v"], asa.plans, asa.drawn[layer])[0])
    query = seen["q"].data[0, 0, 1]  # frame 0, patch 0
    rows = []
    for k in keys:
        scores = k.data[0, :, 1:, :] @ query / np.sqrt(model.config.dim_v)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        rows.append(e / e.sum(axis=1, keepdims=True))
    return rows, asa.drawn


def test_similarity_map_warps_with_the_mask_the_forward_drew():
    cfg = cm.toy_config(pairs=4, selection="random")
    data = generate_dataset(cfg.seed, cfg.pairs, cfg)
    video = data.videos[0]
    model = AdapterModel(cfg)
    rng = np.random.default_rng(0)  # off the grid, so that the mask shows in the keys
    for t in (model.offsets.gamma, model.offsets.delta):
        t.data[:] = rng.uniform(0.15, 0.45, size=t.shape)
    for layer in cfg.visual_adapter_layers():
        (want, unwarped), drawn = _map_rows(model, video, layer)
        got = attention_similarity_map(model, video, layer=layer)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert np.abs(got - unwarped).max() > 1e-6
    assert (drawn[3] != drawn[1]).any()  # layers draw distinct random masks
    # a layer without ASA shows the unwarped keys
    light = AdapterModel(cm.toy_config(pairs=4, selection="random", adapter_layers="1,2"))
    (want,), _ = _map_rows(light, video, 3)
    np.testing.assert_allclose(attention_similarity_map(light, video, layer=3), want,
                               rtol=0, atol=1e-12)


def test_similarity_map_warps_the_keys_once_in_its_forward(monkeypatch):
    cfg = cm.toy_config(pairs=4)  # text selection: the map also runs an unhooked prepass
    data = generate_dataset(cfg.seed, cfg.pairs, cfg)
    model = AdapterModel(cfg)
    with no_grad():
        cands = model.encode_texts(data.tokens).data
    forwards, warps = [], []
    encode, warp = model_mod.encode_video, attention_mod.warp

    def counted_encode(*args, **kwargs):
        forwards.append(len(forwards))
        return encode(*args, **kwargs)

    def counted_warp(*args, **kwargs):
        warps.append(forwards[-1])
        return warp(*args, **kwargs)

    monkeypatch.setattr(model_mod, "encode_video", counted_encode)
    for name, module in list(sys.modules.items()):  # every binding of attention.warp
        if name.startswith("tvadapt") and getattr(module, "warp", None) is warp:
            monkeypatch.setattr(module, "warp", counted_warp)
    attention_similarity_map(model, data.videos[0], candidates=cands)
    # the prepass, then the map's forward: one key and one value warp per adapted layer
    assert len(forwards) == 2
    assert warps == [1] * 2 * len(cfg.visual_adapter_layers())


def test_similarity_map_rejects_a_query_outside_the_tower():
    cfg = cm.toy_config(pairs=4)
    data = generate_dataset(cfg.seed, cfg.pairs, cfg)
    model = AdapterModel(cfg)
    with no_grad():
        cands = model.encode_texts(data.tokens).data
    for query in (dict(layer=0), dict(layer=cfg.layers + 1), dict(frame=cfg.frames),
                  dict(patch=-1)):
        with pytest.raises(ConfigError):
            attention_similarity_map(model, data.videos[0], candidates=cands, **query)


def test_similarity_map_copies_no_block_computation():
    # the map reads q and k from the forward's own block through a hook;
    # re-running LayerNorm, the projections or the stem here would be a
    # second copy of the tower that can drift from the model
    tree = ast.parse(pathlib.Path(diagnostics.__file__).read_text(encoding="utf-8"))
    called = {
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(tree) if isinstance(node, ast.Call)
    }
    assert called & {"layer_norm", "linear", "patchify"} == set()
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert not [s for s in strings if "backbone/visual/block" in s]


def test_both_towers_share_one_block_loop():
    # a second function that calls vit_block is a second copy of the
    # resume, stop and modulate rules, which can drift from the first
    package = pathlib.Path(diagnostics.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Call)
                            and getattr(node.func, "attr", getattr(node.func, "id", None))
                            == "vit_block"):
                        callers.add((path.name, getattr(fn, "name", "<lambda>")))
    assert callers == {("backbone.py", "_blocks")}
    # the modulation hooks compose their factors in apply, with no cached copy
    tree = ast.parse((package / "modulation.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "copy" not in imported


# -- benchmark tracer -----------------------------------------------------------


def _resolve(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def _tracer_module():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_patches_existing_names_and_restores_them():
    # perfbench/tracer.py patches these names from outside the package, so a
    # renamed or deleted name would otherwise fail only a traced benchmark run
    tracer = _tracer_module()
    originals = {(module, attr): _resolve(module, attr) for _, module, attr in tracer.SPANS}
    tr = tracer.Tracer()
    tr.install()
    try:
        patched = list(tr._patches)
        for key, original in originals.items():
            assert _resolve(*key) is not original, key
    finally:
        tr.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
    for key, original in originals.items():
        assert _resolve(*key) is original, key


# (nodes, taped nodes) per op kind over two toy training steps, pinned when
# every tape node still held its value; the counts are those the benchmark's
# per-layer table reports, so the tracer must keep seeing every node
TRACED_TOY_OPS = {
    "add": (74, 46), "concat": (25, 22), "div": (4, 4),
    "exp": (6, 6), "gelu": (20, 12), "getitem": (66, 44), "layer_norm": (40, 22),
    "linear": (123, 66), "log": (4, 4), "matmul": (76, 44), "mul": (56, 40),
    "reshape": (118, 68), "softmax": (20, 12), "sqrt": (4, 4), "sub": (8, 8),
    "swapaxes": (102, 60), "tsum": (14, 14), "warp": (16, 16),
}


# the observations behind attention.warp_rows_useful_frac and model.pick_hit_frac
TRACED_TOY_RATIOS = {"warp_rows_selected": 2_304, "warp_rows_resampled": 3_072,
                     "picks": 32, "pick_hits": 1}


def test_benchmark_tracer_counts_every_node_and_gradient_write():
    # toy blocks stay below backbone._SPLIT_MIN and the 16 pairs are one
    # tape-free block, so no count depends on the number of cores
    tracer = _tracer_module()
    cfg = cm.toy_config(pairs=16, batch_size=16, epochs=2, lr=1e-2, seed=3)
    data = generate_dataset(cfg.effective_data_seed, cfg.pairs, cfg)
    model = AdapterModel(cfg)
    tr = tracer.Tracer()
    tr.install()
    try:
        train(cfg, data, model=model, max_steps=2, eval_each_epoch=False)
    finally:
        tr.uninstall()
    ops = {kind: (row["nodes"], row["taped"]) for kind, row in tr.op_table().items()
           if row["nodes"]}
    # every op kind training builds must also run its backward at least
    # once, or the op's gradient code is never exercised by training
    assert [kind for kind, (_, taped) in ops.items() if not taped] == []
    assert ops == TRACED_TOY_OPS
    # the shim wraps _accumulate, so it counts only the writes _accumulate
    # still makes: a fresh array a closure hands over through _adopt is
    # taken as the gradient buffer without passing the shim
    assert tr.counters["accumulate_calls"] == 442
    assert tr.counters["grad_alloc_bytes"] == 14_927_616
    # the tracer reads the mask as warp_kv's 4th argument and the picks
    # from _pick_sentences; a pass that moved either would zero these
    assert {name: tr.counters[name] for name in TRACED_TOY_RATIOS} == TRACED_TOY_RATIOS
