"""The CLI contract over the config space: every single-field mutation of a
tiny config, run through generate-data, train and eval in-process, exits 0,
1 or 2, and prints exactly one stderr line when it fails and none when it
succeeds.  Where eval succeeds, tradeoff on its metrics.json succeeds too.

No value here is large enough to size an allocation: a size field never
takes more than 3.  The large values are ``training.lr`` 1e5, whose last
step leaves non-finite weights behind a finite loss, and 1e308, which makes
the loss overflow.
"""

import json
import math
from dataclasses import fields

import pytest

from conftest import tiny_config
from stepgate.harness.cli import main

BASE = tiny_config("e2e", **{"training.epochs": 1}).to_dict()
VALUES = (0, 1, 2, 3, -1, 0.5, 1e-300, -1e-300, True, "x", None, [], math.nan)
NUMERIC = [f"{section}.{f.name}"
           for section in ("dataset", "model", "training")
           for f in fields(getattr(tiny_config(), section))
           if f.type.split(" | ")[0] in ("int", "float")]

CASES = [(key, value) for key in NUMERIC for value in VALUES] + [
    ("training.lr", 1e5),
    ("training.lr", 1e308),
    *(("eval.budgets", v) for v in ([], [1], [6], [0], [7], [2, 2], [0.5], [True],
                                    [[1]], "x", None, 3)),
    *(("dataset.task", v) for v in ("multi_label", "x", None, 3)),
    *(("dataset.recipe_style", v) for v in ("paired", "x", None, 3)),
    *(("mode", v) for v in ("standalone", "frame_conditioned", "scsampler", "uniform",
                            "random", "x", None, 3)),
]


def _mutated(key: str, value) -> dict:
    cfg = json.loads(json.dumps(BASE))
    section, _, name = key.rpartition(".")
    (cfg[section] if section else cfg)[name] = value
    return cfg


def _run_commands(tmp_path, capsys, cfg: dict) -> int:
    """generate-data, train and eval on ``cfg`` until one fails, then
    tradeoff when all succeeded; returns the last exit code."""
    data, run = tmp_path / "data", tmp_path / "run"
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    # train reads the splits generate-data wrote
    cfg["dataset"]["path"] = str(data)
    (tmp_path / "stored.json").write_text(json.dumps(cfg))
    for argv in (["generate-data", "--config", str(tmp_path / "cfg.json"), "--out", str(data)],
                 ["train", "--config", str(tmp_path / "stored.json"), "--out", str(run)],
                 ["eval", "--checkpoint", str(run / "checkpoint.sgck"),
                  "--out", str(tmp_path / "eval")]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv[0]
        assert len(err.splitlines()) == (1 if code else 0), (argv[0], err)
        if code:
            return code
    code = main(["tradeoff", "--metrics", str(tmp_path / "eval" / "metrics.json"),
                 "--out", str(tmp_path / "tradeoff")])
    assert (code, capsys.readouterr().err) == (0, "")
    return code


@pytest.mark.parametrize("key, value", CASES, ids=[f"{k}={v!r}" for k, v in CASES])
def test_a_mutated_config_exits_cleanly_through_every_command(tmp_path, capsys, key, value):
    _run_commands(tmp_path, capsys, _mutated(key, value))


def test_a_two_class_multi_label_config_runs_every_command(tmp_path, capsys):
    """A multi-label video with one other class can add only that one."""
    cfg = _mutated("dataset.task", "multi_label")
    cfg["dataset"]["n_classes"] = 2
    assert _run_commands(tmp_path, capsys, cfg) == 0
