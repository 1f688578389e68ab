import json
from dataclasses import asdict

import pytest

from conftest import tiny_config
from stepgate.errors import ConfigError
from stepgate.harness.config import (MODES, ExperimentConfig, config_from_dict,
                                     load_config)
from stepgate.synthdata import generate_dataset, load_split, save_split


def test_defaults_round_trip_through_dict():
    cfg = ExperimentConfig()
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    assert again.canonical_json() == cfg.canonical_json()


def test_the_default_splits_store_exactly_the_frames_the_models_read(tmp_path):
    """The heavy encoder reads ``slot[:segment_len]`` and the light networks
    ``slot[segment_len // 2]``, so a default slot holds ``segment_len``
    frames, in memory and on disk."""
    cfg = ExperimentConfig()
    d, m = cfg.dataset, cfg.model
    assert d.frames_per_slot == m.segment_len
    dataset = generate_dataset(d.spec(), 1, 1, cfg.seed)
    save_split(tmp_path / "test.sgds", dataset, "test")
    for videos in (dataset.train, dataset.test, load_split(tmp_path / "test.sgds")[2]):
        assert videos[0].frames.base.shape == (1, d.timesteps, m.segment_len, d.d_raw)


def test_partial_dict_fills_defaults():
    cfg = config_from_dict({"mode": "uniform", "dataset": {"timesteps": 8}})
    assert cfg.mode == "uniform"
    assert cfg.dataset.timesteps == 8
    assert cfg.dataset.n_classes == ExperimentConfig().dataset.n_classes
    assert cfg.training.lr == ExperimentConfig().training.lr


def test_every_mode_is_accepted():
    for mode in MODES:
        assert config_from_dict({"mode": mode}).mode == mode


@pytest.mark.parametrize("raw", [
    {"mode": "turbo"},
    {"seed": -1},
    {"dataset": {"task": "regression"}},
    {"dataset": {"recipe_style": "triplet"}},
    {"dataset": {"n_train": 0}},
    {"dataset": {"relevant_fraction": 0.0}},
    {"dataset": {"relevant_fraction": 1.5}},
    {"model": {"gate_hidden": 0}},
    {"model": {"segment_len": 32}, "dataset": {"frames_per_slot": 16}},
    {"training": {"epochs": 0}},
    {"training": {"lr": 0.0}},
    {"training": {"batch_size": 0}},
    {"training": {"sample_budget": 0}},
    {"training": {"sample_budget": 99}},
    {"eval": {"selection": "greedy"}},      # eval.selection is no key
    {"eval": {"budgets": [0]}},
    {"eval": {"budgets": [33]}},
    {"eval": {"budgets": [True]}},
    {"eval": {"budgets": [2, 2]}},
    {"eval": {"selection": "topk"}},
    {"dataset": {"n_classes": 1}},
    {"dataset": {"timesteps": 0}},
    {"model": {"light_channels": 0}},
    {"model": {"n_kernels": -1}},
    {"model": {"heavy_channels": 0}},
    # json reads NaN and Infinity; no float field may take them
    {"training": {"lr": float("nan")}},
    {"dataset": {"confuser_share": float("nan")}},
    {"training": {"eps": float("inf")}},
    {"dataset": {"noise_sigma": float("nan")}},
    {"dataset": {"relevant_fraction": float("nan")}},
    {"model": {"open_bias": float("nan")}},
    {"model": {"open_bias": float("-inf")}},
])
def test_invalid_values_raise(raw):
    with pytest.raises(ConfigError):
        config_from_dict(raw)


@pytest.mark.parametrize("raw", [
    {"modes": "e2e"},                       # unknown top-level key
    {"dataset": {"sigma": 0.3}},            # unknown nested key
    {"dataset": 3},                         # section must be an object
    {"seed": "0"},                          # wrong type
    {"seed": True},                         # bool is not an int here
    {"training": {"lr": "fast"}},
    ["e2e"],                                # root must be an object
])
def test_schema_violations_raise(raw):
    with pytest.raises(ConfigError):
        config_from_dict(raw)


@pytest.mark.parametrize("dataset", [
    {"confuser_share": 5.0},
    {"recipe_style": "anchored", "n_shared": 1},
    {"recipe_style": "paired", "n_shared": 4, "n_classes": 7},  # 4 shared make 6 pairs
    {"n_background": 0},
])
def test_values_only_the_spec_rejects_raise_when_the_config_loads(dataset):
    with pytest.raises(ConfigError, match="^dataset: "):
        config_from_dict({"dataset": dataset})


@pytest.mark.parametrize("recipe_style", ["anchored", "paired"])
def test_a_negative_class_count_is_reported_as_given(recipe_style):
    """The spec judges the class count the config asked for, not the number
    of recipes a builder drew from it."""
    with pytest.raises(ConfigError, match="^dataset: need at least two classes, got -3$"):
        config_from_dict({"dataset": {"n_classes": -3, "recipe_style": recipe_style}})


def test_dataset_spec_matches_dataset_fields(tiny_cfg):
    """The spec's parameters are the section's fields but its path and split
    sizes."""
    d = asdict(tiny_cfg.dataset)
    assert asdict(tiny_cfg.dataset.spec()) == {
        k: v for k, v in d.items() if k not in ("path", "n_train", "n_test")}


def test_dataset_spec_dispatches_on_recipe_style():
    cfg = tiny_config("e2e", **{"dataset.recipe_style": "paired",
                                "dataset.n_classes": 3,
                                "dataset.n_shared": 3})
    spec = cfg.dataset.spec()
    assert spec.class_recipes == (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))
    assert spec.shared_prototypes == {0, 1, 2}


def test_a_non_finite_float_error_names_the_path():
    with pytest.raises(ConfigError, match="training.eps must be finite"):
        config_from_dict({"training": {"eps": float("inf")}})


def test_unknown_key_error_names_the_path():
    with pytest.raises(ConfigError, match="dataset.sigma"):
        config_from_dict({"dataset": {"sigma": 0.3}})


def test_the_retired_selection_switch_is_an_unknown_key():
    """Every evaluation reports the gate-count entry and then its budgets, so
    ``eval.selection`` is no key."""
    with pytest.raises(ConfigError, match=r"^unknown config key 'eval.selection'; "
                                          r"known keys here: budgets$"):
        config_from_dict({"eval": {"selection": "topk"}})


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "scsampler", "seed": 3}))
    cfg = load_config(path)
    assert cfg.mode == "scsampler"
    assert cfg.seed == 3


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)


def test_canonical_json_is_stable_and_sorted():
    text = ExperimentConfig().canonical_json()
    assert json.loads(text) == ExperimentConfig().to_dict()
    assert text == ExperimentConfig().canonical_json()
    keys = list(json.loads(text))
    assert keys == sorted(keys)
