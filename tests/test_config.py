"""Config parsing, validation, and preset tests."""

import numpy as np
import pytest

from tvadapt import config as cm
from tvadapt.attention import SelectionMode
from tvadapt.cli import main
from tvadapt.counting import backbone_elements, backbone_tensors, count_params
from tvadapt.exceptions import ConfigError
from tvadapt.model import AdapterModel


def test_roundtrip_through_flat_format():
    cfg = cm.toy_config(lr=0.003, selection="random", epochs=7, text_lowrank=True)
    again = cm.loads(cm.dumps(cfg))
    assert again == cfg


def test_comments_and_blank_lines():
    cfg = cm.loads("# header\n\nseed = 5\nrank = 2  # inline\n")
    assert cfg.seed == 5 and cfg.rank == 2


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        cm.loads("learning_rate = 0.1\n")


def test_duplicate_and_malformed_lines_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        cm.loads("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        cm.loads("seed: 1\n")
    with pytest.raises(ConfigError, match="boolean"):
        cm.loads("asa = maybe\n")
    with pytest.raises(ConfigError, match="integer"):
        cm.loads("seed = 1.5\n")


def test_validation_rules():
    with pytest.raises(ConfigError):
        cm.toy_config(rank=0)
    with pytest.raises(ConfigError):
        cm.toy_config(rank=7)  # exceeds min(T=6, D_v=32)
    with pytest.raises(ConfigError):
        cm.toy_config(top_k=5)  # N = 4
    with pytest.raises(ConfigError):
        cm.toy_config(frame_h=9)  # not divisible by patch
    with pytest.raises(ConfigError):
        cm.toy_config(selection="best_k")
    with pytest.raises(ConfigError):
        cm.toy_config(warmup=1.5)
    with pytest.raises(ConfigError):
        cm.toy_config(pairs=1)
    with pytest.raises(ConfigError):
        cm.toy_config(text_lowrank=True, text_modulation=False)
    with pytest.raises(ConfigError, match="text_lowrank"):
        cm.toy_config(text_lowrank=True, decompose="none", rank=0)
    with pytest.raises(ConfigError, match="text_lowrank"):
        cm.toy_config(text_lowrank=True, decompose="none", rank=10)  # exceeds words + 1 = 9
    assert cm.toy_config(text_lowrank=True, decompose="none", rank=9).rank == 9


@pytest.mark.parametrize("key, value", [
    ("train_head", "true"), ("dsl", "true"), ("dsl_inv_temp", "100.0"), ("text_rank", "3"),
    ("warp_interp", "bilinear"),
])
def test_removed_keys_rejected(key, value):
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        cm.loads(f"{key} = {value}\n")


def test_adapter_layer_sets():
    cfg = cm.toy_config()
    assert cfg.visual_adapter_layers() == [1, 2, 3, 4]
    assert cm.toy_config(adapter_layers="last4", layers=6).visual_adapter_layers() == [3, 4, 5, 6]
    assert cm.toy_config(adapter_layers="2,4").visual_adapter_layers() == [2, 4]
    with pytest.raises(ConfigError):
        cm.toy_config(adapter_layers="0,2")
    with pytest.raises(ConfigError):
        cm.toy_config(adapter_layers="1,9")
    with pytest.raises(ConfigError):
        cm.toy_config(adapter_layers="a,b")


def test_toy_defaults_match_stated_hyperparameters():
    cfg = cm.toy_config()
    assert cfg.rank == 3 and cfg.top_k == 3
    assert cfg.lr == 1e-4 and cfg.warmup == 0.1


def test_vit_b32_shaped_preset_dimensions():
    cfg = cm.vit_b32_shaped_config()
    assert (cfg.layers, cfg.dim_v, cfg.frames, cfg.patches) == (12, 768, 12, 49)


def test_effective_data_seed():
    assert cm.toy_config(seed=3).effective_data_seed == 3
    assert cm.toy_config(seed=3, data_seed=11).effective_data_seed == 11


@pytest.mark.parametrize("field", ["heads_v", "heads_t", "patch"])
def test_zero_divisor_fields_rejected_before_divisibility_checks(field, tmp_path, capsys):
    with pytest.raises(ConfigError, match="positive"):
        cm.loads(f"{field} = 0\n")
    path = tmp_path / "zero.cfg"
    path.write_text(f"{field} = 0\n")
    assert main(["count-params", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


TOWER_SIZES = ["layers", "dim_v", "heads_v", "patch", "frame_h", "frame_w", "frames", "channels",
               "text_layers", "dim_t", "heads_t", "max_words"]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("field", TOWER_SIZES)
def test_every_tower_size_must_be_positive(field, value, tmp_path, capsys):
    # text_layers <= 0 used to build a text tower without blocks, and
    # max_words <= -2 reached a negative array size in init_backbone
    with pytest.raises(ConfigError, match="positive"):
        cm.loads(f"{field} = {value}\n")
    path = tmp_path / "bad.cfg"
    path.write_text(f"{field} = {value}\n")
    assert main(["count-params", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("value", ["1", "0"])
def test_vocab_must_exceed_the_eos_id(value):
    with pytest.raises(ConfigError, match="EOS"):
        cm.loads(f"vocab = {value}\n")


def test_train_rejects_negative_max_words_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("max_words = -2\nepochs = 1\n")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "m.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("field", ["lr"])
def test_non_finite_floats_rejected(field, value, tmp_path, capsys):
    # a NaN or infinite lr used to load, and training then died on
    # non-finite numbers
    with pytest.raises(ConfigError, match=f"{field} must be positive and finite"):
        cm.loads(f"{field} = {value}\n")
    path = tmp_path / "bad.cfg"
    path.write_text(f"{field} = {value}\nepochs = 1\n")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "m.ckpt")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "m.ckpt").exists()


# values of a wrong type for each field annotation, and a converter to a
# right type that is not Python's own
WRONG_TYPES = {"int": [1.5, 2.0, True, "1", None], "float": [False, "0.1", None],
               "bool": [1, 0, "no", None], "str": [1, None, b"both"]}
OTHER_RIGHT_TYPE = {"int": np.int64, "float": np.float64, "bool": bool, "str": str}


@pytest.mark.parametrize("field", list(cm._FIELDS))
def test_every_field_rejects_a_value_of_the_wrong_type(field):
    # epochs = 1.5, top_k = 1.5 or layers = 2.0 used to reach a raw TypeError
    # inside train or init_backbone, and seed = "a", rank = 2.5 or asa = "no"
    # were accepted; numpy integers and floats, and enum members, still pass
    kind = cm._FIELDS[field].type
    for value in WRONG_TYPES[kind]:
        with pytest.raises(ConfigError, match=f"config field {field} must be {kind}, got"):
            cm.toy_config(**{field: value})
    default = getattr(cm.toy_config(), field)
    assert getattr(cm.toy_config(**{field: OTHER_RIGHT_TYPE[kind](default)}), field) == default
    if field == "selection":
        assert cm.toy_config(selection=SelectionMode.RANDOM).selection == "random"


# adversarial values for every field: signs, edges of the machine integer
# types, magnitudes far past any buildable model, non-finite floats, junk
ADVERSARIAL = ["0", "1", "-1", "2", "3", "5", "7", "64", "1000", "2147483647", "2147483648",
               "9223372036854775807", "-9223372036854775808", "1000000000",
               "99999999999999999999", "nan", "inf", "-inf", "1e308", "", "x"]


@pytest.mark.parametrize("field", list(cm._FIELDS))
def test_every_adversarial_field_value_builds_or_raises_config_error(field):
    # ConfigError, or a clean build of the adapters; never anything else.
    # validate must reject a huge model from its counts alone, so nothing
    # here allocates more than a toy model's adapters
    lines = [line for line in cm.dumps(cm.toy_config()).splitlines()
             if not line.startswith(f"{field} =")]
    for value in ADVERSARIAL:
        try:
            cfg = cm.loads("\n".join(lines + [f"{field} = {value}"]))
        except ConfigError:
            continue
        assert count_params(cfg).trainable_total > 0, (field, value)


# 10**20 layers or frames used to escape as OverflowError or ValueError from
# the first allocation; 10**9 would first build a billion-entry list. Both
# values are divisible by the default heads.
HUGE = {field: [f"{field} = {value}\n" for value in (10**9, 10**20)]
        for field in ("layers", "text_layers", "frames", "dim_v", "vocab", "pairs")}
# 4-wide towers of 10**6 layers each: 4.88e8 elements pass the element cap,
# but the store would hold 32,000,006 named tensors
HUGE["layers,text_layers"] = ["layers = 1000000\ntext_layers = 1000000\ndim_v = 4\n"
                              "dim_t = 4\nheads_v = 1\nheads_t = 1\n"]


@pytest.mark.parametrize("field", list(HUGE))
def test_model_too_large_to_build_is_a_config_error(field, tmp_path, capsys):
    for text in HUGE[field]:
        with pytest.raises(ConfigError, match="exceeds the cap"):
            cm.loads(text)
        path = tmp_path / "huge.cfg"
        path.write_text(text)
        assert main(["count-params", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err



def test_backbone_tensor_count_is_the_built_store_count():
    # the third config gives every stem size its own value: patch dim 4,
    # N+1 = 17, vocab 13 and max_words + 1 = 10 against widths 32 and 24
    for cfg in (cm.toy_config(), cm.toy_config(layers=1, text_layers=5, dim_v=8, heads_v=2),
                cm.toy_config(channels=1, patch=2, vocab=13, max_words=9)):
        store = AdapterModel(cfg).store
        built = [name for name in store.names() if name.startswith("backbone/")]
        assert backbone_tensors(cfg) == len(built)
        assert backbone_elements(cfg) == store.num_elements(prefix="backbone/")
    assert backbone_tensors(cm.vit_b32_shaped_config()) == 390
