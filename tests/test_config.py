import json

import pytest

from stepgate.errors import ConfigError
from stepgate.harness.config import (MODES, ExperimentConfig, config_from_dict,
                                     load_config)


def test_defaults_round_trip_through_dict():
    cfg = ExperimentConfig()
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    assert again.canonical_json() == cfg.canonical_json()


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
    {"training": {"l0_weight": -0.1}},
    {"training": {"sample_budget": 0}},
    {"training": {"sample_budget": 99}},
    {"eval": {"selection": "greedy"}},
    {"eval": {"budgets": [0]}},
    {"eval": {"budgets": [33]}},
    {"eval": {"budgets": [True]}},
    {"eval": {"budgets": [2, 2]}},
    {"eval": {"selection": "topk"}},        # top-k entries need budgets
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


def test_unknown_key_error_names_the_path():
    with pytest.raises(ConfigError, match="dataset.sigma"):
        config_from_dict({"dataset": {"sigma": 0.3}})


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
