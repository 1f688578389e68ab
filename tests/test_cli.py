import json
from pathlib import Path

import pytest

from conftest import tiny_config
from stepgate.harness.cli import main
from stepgate.harness.config import MODES


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


def test_a_dataset_that_cannot_be_generated_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "crowded.json"
    path.write_text(json.dumps({"dataset": {
        "n_train": 4, "n_test": 2, "timesteps": 4, "relevant_fraction": 1.0,
        "frames_per_slot": 8, "d_raw": 6}}))
    assert main(["generate-data", "--config", str(path),
                 "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "cannot place" in err
    assert len(err.splitlines()) == 1


def test_corrupt_split_file_is_a_one_line_runtime_error(cfg_file, tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["generate-data", "--config", cfg_file, "--out", str(out)]) == 0
    raw = (out / "train.sgds").read_bytes()
    (out / "train.sgds").write_bytes(raw[:397])
    cfg = json.loads(Path(cfg_file).read_text())
    cfg["dataset"]["path"] = str(out)
    path = tmp_path / "from_disk.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and err.count("\n") == 1


def test_split_from_another_dataset_section_is_a_config_error(tmp_path, capsys):
    four = tiny_config("e2e", **{"dataset.n_classes": 4})
    four_path = tmp_path / "four.json"
    four_path.write_text(json.dumps(four.to_dict()))
    data = tmp_path / "data"
    assert main(["generate-data", "--config", str(four_path), "--out", str(data)]) == 0
    six = tiny_config("e2e", **{"dataset.n_classes": 6, "dataset.path": str(data)})
    six_path = tmp_path / "six.json"
    six_path.write_text(json.dumps(six.to_dict()))
    capsys.readouterr()
    assert main(["train", "--config", str(six_path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "run" / "checkpoint.sgck").exists()


def test_tradeoff_merges_every_arm(cfg_file, tmp_path, capsys):
    """generate-data -> train -> eval for all six modes -> one tradeoff.csv."""
    base = json.loads(Path(cfg_file).read_text())
    data = tmp_path / "data"
    assert main(["generate-data", "--config", cfg_file, "--out", str(data)]) == 0
    metrics = []
    for mode in MODES:
        cfg = {**base, "mode": mode, "dataset": {**base["dataset"], "path": str(data)}}
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(cfg))
        run, ev = tmp_path / f"run_{mode}", tmp_path / f"eval_{mode}"
        assert main(["train", "--config", str(path), "--out", str(run)]) == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.sgck"),
                     "--out", str(ev)]) == 0
        metrics.append(str(ev / "metrics.json"))
    capsys.readouterr()
    out = tmp_path / "tr"
    assert main(["tradeoff", "--metrics", *metrics, "--out", str(out)]) == 0
    lines = (out / "tradeoff.csv").read_text().splitlines()
    assert lines[0] == "method,n_heavy_timesteps,gflops,metric"
    budgets = base["eval"]["budgets"]
    assert len(lines) == 1 + len(MODES) * (1 + len(budgets))
    methods = [l.split(",")[0] for l in lines[1:]]
    assert sorted(methods) == sorted(f"{m}/{key}" for m in MODES
                                     for key in ["gate-count", *(f"topk-{b}" for b in budgets)])
    gflops = [float(l.split(",")[2]) for l in lines[1:]]
    assert gflops == sorted(gflops)


def test_negative_seed_override_is_rejected(cfg_file, trained, tmp_path, capsys):
    ckpt = str(trained / "checkpoint.sgck")
    for argv in (["train", "--config", cfg_file],
                 ["eval", "--checkpoint", ckpt],
                 ["eval", "--checkpoint", ckpt, "--config", cfg_file],
                 ["report", "--checkpoint", ckpt],
                 ["report", "--checkpoint", ckpt, "--config", cfg_file]):
        assert main(argv + ["--seed", "-1", "--out", str(tmp_path)]) == 1, argv
        assert capsys.readouterr().err.startswith("config error:"), argv
    assert not list(tmp_path.iterdir())
    # gradcheck takes no --out; its seed is its own, not a config override
    assert main(["gradcheck", "--seed", "-1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "config error: --seed must be non-negative, got -1\n"


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
    assert "gate-count:" in text and "topk-2:" in text and "GFLOPs" in text
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
    assert lines[0] == "method,n_heavy_timesteps,gflops,metric"
    assert len(lines) == 3                    # header + two budget entries
    assert {l.split(",")[0] for l in lines[1:]} == {"e2e/gate-count", "e2e/topk-2"}


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "below threshold" in out


def test_tradeoff_on_a_truncated_metrics_file_is_a_runtime_error(tmp_path, capsys):
    bad = tmp_path / "metrics.json"
    bad.write_text('{"report": {"mode": "e2e", "entries": [')
    assert main(["tradeoff", "--metrics", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and str(bad) in err
    assert len(err.splitlines()) == 1
    bad.write_bytes(b"\xff\xfe{")
    assert main(["tradeoff", "--metrics", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("runtime error:")


def test_tradeoff_on_missing_or_mistyped_fields_is_a_runtime_error(tmp_path, capsys):
    cost = {"n_light": 6, "n_heavy": 2.0, "light_gflops": 1e-6,
            "heavy_gflops": 2e-6}
    entry = {"budget": 2, "value": 0.5, "cost": cost}
    good = {"report": {"mode": "e2e", "entries": [entry]}}
    path = tmp_path / "good.json"
    path.write_text(json.dumps(good))
    assert main(["tradeoff", "--metrics", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    broken = [
        ({"config": {}}, "'report'"),
        ({"report": {"entries": [entry]}}, "'mode'"),
        ({"report": {"mode": "e2e"}}, "'entries'"),
        ({"report": {"mode": "e2e", "entries": [{"value": 0.5, "cost": cost}]}}, "'budget'"),
        ({"report": {"mode": "e2e", "entries": [{"budget": 2, "cost": cost}]}}, "'value'"),
        ({"report": {"mode": "e2e", "entries": [{"budget": 2, "value": 0.5}]}}, "'cost'"),
        ({"report": {"mode": "e2e", "entries": {"budget": 2}}}, "'entries'"),
        ({"report": {"mode": "e2e", "entries": [dict(entry, value="0.5")]}}, "'value'"),
        ({"report": {"mode": "e2e", "entries": [dict(entry, budget=2.5)]}}, "'budget'"),
        ({"report": {"mode": "e2e", "entries": [
            dict(entry, cost=dict(cost, n_heavy=None))]}}, "'n_heavy'"),
        ([1, 2], "'report'"),
    ]
    for i, (payload, field) in enumerate(broken):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(payload))
        assert main(["tradeoff", "--metrics", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error:") and field in err, (payload, err)
        assert len(err.splitlines()) == 1


def test_tradeoff_merges_a_metrics_file_that_still_names_the_cost_model(tmp_path, capsys):
    # metrics files written before the cost report dropped its model tag
    cost = {"model": "desk_heavy", "n_light": 6, "n_heavy": 2.0,
            "light_gflops": 1e-6, "heavy_gflops": 2e-6, "total_gflops": 3e-6}
    entries = [{"budget": None, "value": 0.75, "cost": cost},
               {"budget": 2, "value": 0.5, "cost": dict(cost, n_heavy=2)}]
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({"report": {"mode": "e2e", "entries": entries}}))
    assert main(["tradeoff", "--metrics", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "tradeoff.csv").read_text().splitlines() == [
        "method,n_heavy_timesteps,gflops,metric",
        "e2e/gate-count,2,3e-06,0.7500",
        "e2e/topk-2,2,3e-06,0.5000",
    ]
