import json

import pytest

from conftest import tiny_config
from stepgate.harness.cli import main


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    cfg = tiny_config("e2e")
    cfg.training.epochs = 1
    cfg.eval.budgets = [2]
    path = tmp_path_factory.mktemp("cfg") / "experiment.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


@pytest.fixture(scope="module")
def trained(cfg_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("train_out")
    assert main(["train", "--config", cfg_file, "--out", str(out)]) == 0
    return out


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["train", "--nope"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_is_a_usage_error():
    assert main(["train"]) == 1


def test_config_errors_exit_one(tmp_path, capsys):
    missing = tmp_path / "none.json"
    assert main(["train", "--config", str(missing)]) == 1
    assert "config error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "warp"}))
    assert main(["train", "--config", str(bad)]) == 1


def test_dataset_values_the_spec_rejects_are_config_errors(tmp_path, capsys):
    cfg = tiny_config("e2e")
    cfg.dataset.confuser_share = 5.0
    path = tmp_path / "bad_share.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["generate-data", "--config", str(path),
                 "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "confuser_share" in err


def test_corrupt_split_file_is_a_one_line_runtime_error(cfg_file, tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["generate-data", "--config", cfg_file, "--out", str(out)]) == 0
    raw = (out / "train.sgds").read_bytes()
    (out / "train.sgds").write_bytes(raw[:397])
    cfg = json.loads(open(cfg_file).read())
    cfg["dataset"]["path"] = str(out)
    path = tmp_path / "from_disk.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and err.count("\n") == 1


def test_negative_seed_override_is_rejected(cfg_file):
    assert main(["train", "--config", cfg_file, "--seed", "-1"]) == 1


def test_generate_data_writes_splits(cfg_file, tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["generate-data", "--config", cfg_file,
                 "--out", str(out)]) == 0
    assert (out / "train.sgds").exists()
    assert (out / "test.sgds").exists()
    assert "12 train / 6 test" in capsys.readouterr().out


def test_train_writes_log_and_checkpoint(trained, capsys):
    log = (trained / "training_log.csv").read_text().splitlines()
    assert log[0] == "phase,epoch,loss,accuracy,selected_ratio"
    assert len(log) == 2                      # one epoch, joint phase only
    assert log[1].startswith("joint,0,")
    assert (trained / "checkpoint.sgck").exists()


def test_eval_writes_metrics_json(trained, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(trained / "checkpoint.sgck"),
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "gate-count:" in text and "top-2:" in text and "GFLOPs" in text
    payload = json.loads((out / "metrics.json").read_text())
    budgets = [e["budget"] for e in payload["report"]["entries"]]
    assert budgets == [None, 2]
    assert payload["config"]["mode"] == "e2e"


def test_eval_with_a_wrong_file_is_a_runtime_error(cfg_file, tmp_path, capsys):
    not_ckpt = tmp_path / "x.sgck"
    not_ckpt.write_bytes(b"junk")
    assert main(["eval", "--checkpoint", str(not_ckpt)]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_report_writes_gating_csvs(trained, tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["report", "--checkpoint", str(trained / "checkpoint.sgck"),
                 "--out", str(out)]) == 0
    assert (out / "class_ratios.csv").exists()
    assert (out / "temporal_profile.csv").exists()
    assert json.loads((out / "summary.json").read_text())["mode"] == "e2e"


def test_tradeoff_merges_metrics(trained, tmp_path, capsys):
    out_eval = tmp_path / "eval"
    main(["eval", "--checkpoint", str(trained / "checkpoint.sgck"),
          "--out", str(out_eval)])
    capsys.readouterr()
    out = tmp_path / "tr"
    assert main(["tradeoff", "--metrics", str(out_eval / "metrics.json"),
                 "--out", str(out)]) == 0
    lines = (out / "tradeoff.csv").read_text().splitlines()
    assert lines[0].startswith("model,")
    assert len(lines) == 3                    # header + two budget entries


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "below threshold" in out
