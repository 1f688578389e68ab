import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import stepgate
from stepgate import container
from conftest import tiny_config
from stepgate.harness import cli
from stepgate.harness.cli import main
from stepgate.harness.checkpoint import (FORMAT_VERSION as CKPT_VERSION, MAGIC as CKPT_MAGIC,
                                         Checkpoint, checkpoint_layout, load_checkpoint,
                                         save_checkpoint)
from stepgate.harness.config import MODES, config_from_dict
from stepgate.selector import SelectorParams
from stepgate.synthdata import (FORMAT_VERSION, MAGIC, Dataset, load_split, save_split,
                                split_layout)


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


@pytest.mark.parametrize("segment_len", [4, 16])
def test_a_segment_len_unlike_the_slots_is_a_config_error(tmp_path, capsys, segment_len):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": {"segment_len": segment_len},
                                "dataset": {"frames_per_slot": 8}}))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"config error: model.segment_len {segment_len} "
                                       f"must equal dataset.frames_per_slot 8\n")
    assert not (tmp_path / "out").exists()


def test_a_config_path_that_is_a_directory_exits_one(tmp_path, capsys):
    folder = tmp_path / "configs"
    folder.mkdir()
    out = tmp_path / "out"
    assert main(["train", "--config", str(folder), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {folder}: cannot read the config file")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_a_non_finite_config_value_exits_one(tmp_path, capsys):
    cfg = tiny_config("e2e").to_dict()
    cfg["training"]["lr"] = float("nan")
    path = tmp_path / "nan_lr.json"
    path.write_text(json.dumps(cfg))
    assert "NaN" in path.read_text()
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: training.lr must be finite")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_dataset_values_the_spec_rejects_are_config_errors(tmp_path, capsys):
    """The config refuses them when it loads, before any --out is made."""
    for name, value, needle in (("confuser_share", 5.0, "confuser_share"),
                                ("n_background", 0, "background prototype")):
        path = tmp_path / f"bad_{name}.json"
        path.write_text(json.dumps(tiny_config("e2e", **{f"dataset.{name}": value}).to_dict()))
        for command in ("generate-data", "train"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: dataset: ") and needle in err, err
            assert len(err.splitlines()) == 1
            assert not out.exists()


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


def _stored_config(cfg_file, data, path, **dataset):
    """Write ``cfg_file``'s config, reading its splits from ``data`` and with
    ``dataset`` fields replaced, to ``path``; returns ``path`` as a string."""
    cfg = json.loads(Path(cfg_file).read_text())
    cfg["dataset"].update(path=str(data), **dataset)
    path.write_text(json.dumps(cfg))
    return str(path)


def test_corrupt_split_file_is_a_one_line_runtime_error(cfg_file, tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["generate-data", "--config", cfg_file, "--out", str(out)]) == 0
    raw = (out / "train.sgds").read_bytes()
    (out / "train.sgds").write_bytes(raw[:397])
    path = _stored_config(cfg_file, out, tmp_path / "from_disk.json")
    capsys.readouterr()
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and err.count("\n") == 1


def test_a_version_2_split_is_a_one_line_runtime_error(cfg_file, tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["generate-data", "--config", cfg_file, "--out", str(data)]) == 0
    raw = (data / "test.sgds").read_bytes()
    (data / "test.sgds").write_bytes(raw[:4] + (2).to_bytes(4, "little") + raw[8:])
    path = _stored_config(cfg_file, data, tmp_path / "from_disk.json")
    capsys.readouterr()
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and err.count("\n") == 1
    assert "test.sgds: unsupported dataset format version 2" in err


def test_a_version_3_split_is_refused_by_eval_in_one_line(cfg_file, trained, tmp_path,
                                                         capsys):
    """A version 3 test split, its frames stored as f8, is refused by name."""
    data = tmp_path / "data"
    assert main(["generate-data", "--config", cfg_file, "--out", str(data)]) == 0
    header, fields = container.read(data / "test.sgds", MAGIC, FORMAT_VERSION, "dataset",
                                    split_layout)
    fields[-1] = fields[-1].astype("<f8")
    container.write(data / "test.sgds", MAGIC, 3, {**header, "format_version": 3}, fields)
    path = _stored_config(cfg_file, data, tmp_path / "from_disk.json")
    capsys.readouterr()
    out = tmp_path / "ev"
    assert main(["eval", "--checkpoint", str(trained / "checkpoint.sgck"),
                 "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"runtime error: {data / 'test.sgds'}: unsupported dataset format version 3\n"
    assert not (out / "metrics.json").exists()


def test_a_version_4_checkpoint_is_refused_by_eval_in_one_line(cfg_file, trained,
                                                              tmp_path, capsys):
    """A version 4 checkpoint, whose head scored each row before the pool,
    and a version 5 one, which stored the float32 weights as <f8 blocks, are
    refused by name."""
    header, blocks = container.read(trained / "checkpoint.sgck", CKPT_MAGIC,
                                    CKPT_VERSION, "checkpoint", checkpoint_layout)
    for version in (4, 5):
        old = tmp_path / f"v{version}.sgck"
        container.write(old, CKPT_MAGIC, version, {**header, "format_version": version},
                        [b.astype("<f8") for b in blocks])
        capsys.readouterr()
        out = tmp_path / f"ev{version}"
        assert main(["eval", "--checkpoint", str(old), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"runtime error: {old}: unsupported checkpoint format version {version}\n"
        assert not (out / "metrics.json").exists()


def test_a_non_finite_weight_is_refused_by_eval_in_one_line(trained, tmp_path, capsys):
    """A checkpoint rewritten with one NaN weight holds a valid checksum;
    eval refuses it, naming the file and the parameter."""
    ckpt = load_checkpoint(trained / "checkpoint.sgck")
    ckpt.params["classifier.enc.b1"][0] = np.nan
    bad = tmp_path / "nan.sgck"
    save_checkpoint(bad, ckpt)
    capsys.readouterr()
    out = tmp_path / "ev"
    assert main(["eval", "--checkpoint", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"runtime error: {bad}: parameter classifier.enc.b1 holds a non-finite value\n"
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("lr, code, err", [
    (1e308, 2, "runtime error: e2e training diverged at epoch 0: loss became non-finite\n"),
    (1e5, 2, "runtime error: e2e training diverged at epoch 0: "
             "parameter selector.enc.w1 became non-finite\n"),
    (1e4, 0, ""),
], ids=["loss-overflows", "weights-overflow", "updates-overflow"])
def test_numpy_warnings_never_reach_stderr(cfg_file, tmp_path, capsys, lr, code, err):
    """Divergence has one reporter: at lr 1e308 the loss overflows, and at
    1e5 the loss stays finite while the last step leaves non-finite weights,
    and either run prints only the divergence line and saves no checkpoint;
    at 1e4 Adam's float32 squared gradients overflow while the loss and the
    weights stay finite, and the run prints nothing."""
    cfg = json.loads(Path(cfg_file).read_text())
    cfg["training"]["lr"] = lr
    path = tmp_path / "lr.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == code
    assert capsys.readouterr().err == err
    assert (tmp_path / "run" / "checkpoint.sgck").exists() == (code == 0)


@pytest.mark.parametrize("exc, err", [
    (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) "
                 "and data type float64"),
     "runtime error: Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) "
     "and data type float64\n"),
    (MemoryError(), "runtime error: out of memory\n"),
], ids=["numpy-message", "no-message"])
def test_running_out_of_memory_is_a_one_line_runtime_error(cfg_file, tmp_path, capsys,
                                                           monkeypatch, exc, err):
    """numpy's ``_ArrayMemoryError`` is a ``MemoryError``; raised inside a
    command, it exits 2 with one line.  Nothing here allocates."""
    def exhausted(config):
        raise exc

    monkeypatch.setattr(cli, "run_training", exhausted)
    capsys.readouterr()
    assert main(["train", "--config", cfg_file, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("sigma", [1e39, 1e308])
def test_a_noise_level_past_float32_is_a_one_line_config_error(tmp_path, capsys, sigma):
    """Frames that overflow their float32 store are refused while they are
    generated, with no numpy warning and no split written."""
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(tiny_config("e2e", **{"dataset.noise_sigma": sigma}).to_dict()))
    out = tmp_path / "data"
    assert main(["generate-data", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: dataset: a frame value does not fit float32")
    assert len(err.splitlines()) == 1
    assert not list(out.iterdir())


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_frame_is_a_one_line_runtime_error(cfg_file, trained, tmp_path, capsys,
                                                       value):
    """A test split rewritten through ``save_split`` with one non-finite
    frame value holds a valid checksum; eval refuses it, naming the file."""
    data = tmp_path / "data"
    assert main(["generate-data", "--config", cfg_file, "--out", str(data)]) == 0
    spec, prototypes, videos, meta = load_split(data / "test.sgds")
    videos[0].frames[0, 0, 0] = value
    save_split(data / "test.sgds", Dataset(spec=spec, prototypes=prototypes, train=[],
                                           test=videos, seed=meta["seed"]), "test")
    path = _stored_config(cfg_file, data, tmp_path / "from_disk.json")
    capsys.readouterr()
    out = tmp_path / "ev"
    assert main(["eval", "--checkpoint", str(trained / "checkpoint.sgck"),
                 "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"runtime error: {data / 'test.sgds'}: a frame value is not finite\n"
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("sizes, swap, needle", [
    ({"n_train": 500}, False, "train.sgds: holds 12 videos, the config's n_train is 500"),
    ({"n_test": 5}, False, "test.sgds: holds 6 videos, the config's n_test is 5"),
    ({}, True, "train.sgds: holds the 'test' split, not 'train'"),
])
def test_a_split_unlike_its_name_or_size_is_a_config_error(cfg_file, tmp_path, capsys,
                                                          sizes, swap, needle):
    """A stored split must be the split its file is named for and hold the
    config's number of videos (the config's n_train and n_test are 12 and
    6)."""
    data = tmp_path / "data"
    assert main(["generate-data", "--config", cfg_file, "--out", str(data)]) == 0
    if swap:
        train, test = data / "train.sgds", data / "test.sgds"
        raw = train.read_bytes()
        train.write_bytes(test.read_bytes())
        test.write_bytes(raw)
    path = _stored_config(cfg_file, data, tmp_path / "from_disk.json", **sizes)
    capsys.readouterr()
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert needle in err
    assert not (tmp_path / "run" / "checkpoint.sgck").exists()


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


def test_tradeoff_merges_two_seeds_of_one_arm_in_either_order(cfg_file, tmp_path, capsys):
    """train -> eval at --seed 0 and --seed 1 -> one tradeoff.csv, the same
    bytes whichever metrics file comes first."""
    metrics = []
    for seed in ("0", "1"):
        run, ev = tmp_path / f"run{seed}", tmp_path / f"eval{seed}"
        assert main(["train", "--config", cfg_file, "--seed", seed, "--out", str(run)]) == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.sgck"),
                     "--out", str(ev)]) == 0
        metrics.append(str(ev / "metrics.json"))
    csvs = []
    for i, order in enumerate((metrics, metrics[::-1])):
        assert main(["tradeoff", "--metrics", *order, "--out", str(tmp_path / f"tr{i}")]) == 0
        csvs.append((tmp_path / f"tr{i}" / "tradeoff.csv").read_bytes())
    assert capsys.readouterr().err == ""
    assert csvs[0] == csvs[1]
    budgets = json.loads(Path(cfg_file).read_text())["eval"]["budgets"]
    methods = [line.split(",")[0] for line in csvs[0].decode().splitlines()[1:]]
    assert sorted(methods) == sorted(2 * ["e2e/gate-count", *(f"e2e/topk-{b}" for b in budgets)])


def test_negative_seed_override_is_rejected(cfg_file, trained, tmp_path, capsys):
    ckpt = str(trained / "checkpoint.sgck")
    for argv in (["train", "--config", cfg_file],
                 ["eval", "--checkpoint", ckpt],
                 ["eval", "--checkpoint", ckpt, "--config", cfg_file]):
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


def test_one_config_naming_its_own_data_runs_generate_train_and_eval(cfg_file, tmp_path,
                                                                      capsys):
    """generate-data writes the splits a config names as its dataset path,
    byte for byte those a path-free copy of it writes, and train and eval
    then read them under the same config."""
    data = tmp_path / "data"
    own = _stored_config(cfg_file, data, tmp_path / "own.json")
    assert main(["generate-data", "--config", own, "--out", str(data)]) == 0
    assert main(["generate-data", "--config", cfg_file,
                 "--out", str(tmp_path / "free")]) == 0
    for split in ("train", "test"):
        name = f"{split}.sgds"
        assert (data / name).read_bytes() == (tmp_path / "free" / name).read_bytes()
    assert main(["train", "--config", own, "--out", str(tmp_path / "run")]) == 0
    assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.sgck"),
                 "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""


def test_train_writes_log_and_checkpoint(trained, capsys):
    log = (trained / "training_log.csv").read_text().splitlines()
    assert log[0] == "phase,epoch,loss,accuracy,selected_ratio,fallback_share"
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


def test_eval_records_its_provenance(trained, tmp_path, capsys):
    """metrics.json names the package version, the hash of the canonical
    config it evaluated and the evaluation's wall time."""
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(trained / "checkpoint.sgck"),
                 "--out", str(out), "--seed", "5"]) == 0
    payload = json.loads((out / "metrics.json").read_text())
    prov = payload["provenance"]
    assert set(prov) == {"stepgate_version", "config_sha256", "eval_s"}
    assert prov["stepgate_version"] == stepgate.__version__
    config = config_from_dict(payload["config"])
    assert config.seed == 5
    assert prov["config_sha256"] == hashlib.sha256(
        config.canonical_json().encode()).hexdigest()
    assert 0.0 < prov["eval_s"] < 60.0
    # tradeoff reads past the extra section
    assert main(["tradeoff", "--metrics", str(out / "metrics.json"),
                 "--out", str(tmp_path / "tr")]) == 0


def test_eval_with_a_wrong_file_is_a_runtime_error(cfg_file, tmp_path, capsys):
    not_ckpt = tmp_path / "x.sgck"
    not_ckpt.write_bytes(b"junk")
    assert main(["eval", "--checkpoint", str(not_ckpt)]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_eval_reports_the_selection_of_a_gated_arm(trained, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(trained / "checkpoint.sgck"),
                 "--out", str(out)]) == 0
    selection = json.loads((out / "metrics.json").read_text())["report"]["selection"]
    assert set(selection) == {"class_ratios", "mean_ratio", "ratio_variance",
                              "temporal_profiles"}
    assert len(selection["class_ratios"]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"selection: mean class open ratio {selection['mean_ratio']:.4f}, "
        f"variance {selection['ratio_variance']:.6f}")


def test_eval_of_a_gateless_arm_has_no_selection(cfg_file, tmp_path, capsys):
    cfg = json.loads(Path(cfg_file).read_text())
    cfg["mode"] = "uniform"
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(cfg))
    run, out = tmp_path / "run", tmp_path / "eval"
    assert main(["train", "--config", str(path), "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.sgck"),
                 "--out", str(out)]) == 0
    assert "selection" not in capsys.readouterr().out
    assert json.loads((out / "metrics.json").read_text())["report"]["selection"] is None
    assert main(["tradeoff", "--metrics", str(out / "metrics.json"),
                 "--out", str(tmp_path / "tr")]) == 0


def test_eval_names_classes_without_positives_on_stdout_only(tmp_path, capsys):
    """A multi-label test split of one video leaves a class without
    positives: eval exits 0, says so on stdout and in metrics.json, and
    prints nothing on stderr."""
    cfg = tiny_config("uniform", **{"dataset.task": "multi_label", "dataset.n_test": 1,
                                    "training.epochs": 1})
    path = tmp_path / "one_test_video.json"
    path.write_text(json.dumps(cfg.to_dict()))
    run, out = tmp_path / "run", tmp_path / "eval"
    assert main(["train", "--config", str(path), "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.sgck"),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr()
    skipped = json.loads((out / "metrics.json").read_text())["report"]["skipped_classes"]
    assert skipped and printed.err == ""
    assert printed.out.splitlines()[-1] == (
        f"skipped in the mAP mean, no positives in the test split: classes {skipped}")


def test_report_is_no_longer_a_subcommand(trained, tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["report", "--checkpoint", str(trained / "checkpoint.sgck"),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument command: invalid choice: 'report'")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.fixture
def no_dataset(monkeypatch):
    """Fail the test if the CLI resolves a dataset."""
    def refuse(config):
        raise AssertionError("the dataset was resolved")
    monkeypatch.setattr(cli, "resolve_dataset", refuse)


@pytest.mark.parametrize("mode,override,needle", [
    ("uniform", {}, "do not line up"),
    ("e2e", {"model.heavy_channels": 5}, "classifier.enc.w2 has shape"),
])
@pytest.mark.parametrize("command", ["eval"])
def test_a_config_that_does_not_fit_the_weights_exits_before_the_dataset(
        trained, tmp_path, capsys, no_dataset, command, mode, override, needle):
    path = tmp_path / "other.json"
    path.write_text(json.dumps(tiny_config(mode, **override).to_dict()))
    out = tmp_path / "out"
    assert main([command, "--checkpoint", str(trained / "checkpoint.sgck"),
                 "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path} does not fit the checkpoint: ")
    assert needle in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.fixture
def bad_stored_config(trained, tmp_path):
    """The trained checkpoint's weights under a stored config that fails
    validation."""
    ckpt = load_checkpoint(trained / "checkpoint.sgck")
    path = tmp_path / "bad.sgck"
    save_checkpoint(path, Checkpoint(config={**ckpt.config, "mode": "bogus"},
                                     step=ckpt.step, params=ckpt.params))
    return path


@pytest.mark.parametrize("command", ["eval"])
def test_an_invalid_stored_config_is_a_runtime_error_naming_the_file(
        bad_stored_config, tmp_path, capsys, no_dataset, command):
    out = tmp_path / "out"
    assert main([command, "--checkpoint", str(bad_stored_config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"runtime error: {bad_stored_config}: stored config is invalid "
                          f"(mode must be one of ")
    assert "got 'bogus')" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.fixture
def stored_selection_key(trained, tmp_path):
    """The trained checkpoint's weights under its stored config plus the
    retired ``eval.selection`` key."""
    ckpt = load_checkpoint(trained / "checkpoint.sgck")
    config = {**ckpt.config, "eval": {**ckpt.config["eval"], "selection": "gate-count"}}
    path = tmp_path / "old.sgck"
    save_checkpoint(path, Checkpoint(config=config, step=ckpt.step, params=ckpt.params))
    return path


def test_a_stored_selection_key_is_refused_and_a_config_override_evaluates(
        stored_selection_key, cfg_file, tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(stored_selection_key),
                 "--out", str(tmp_path / "refused")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"runtime error: {stored_selection_key}: stored config is "
                          f"invalid (unknown config key 'eval.selection'")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "refused").exists()
    out = tmp_path / "out"
    assert main(["eval", "--checkpoint", str(stored_selection_key), "--config", cfg_file,
                 "--out", str(out)]) == 0
    assert (out / "metrics.json").exists()


def test_a_stored_segment_len_unlike_the_slots_is_refused_by_eval_in_one_line(
        trained, tmp_path, capsys, no_dataset):
    """A stored config whose heavy segment (1 frame) is shorter than its
    2-frame slots, which the prefix reader once accepted, is invalid."""
    ckpt = load_checkpoint(trained / "checkpoint.sgck")
    assert ckpt.config["dataset"]["frames_per_slot"] == 2
    path = tmp_path / "prefix.sgck"
    config = {**ckpt.config, "model": {**ckpt.config["model"], "segment_len": 1}}
    save_checkpoint(path, Checkpoint(config=config, step=ckpt.step, params=ckpt.params))
    out = tmp_path / "out"
    assert main(["eval", "--checkpoint", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"runtime error: {path}: stored config is invalid (model.segment_len 1 "
                   f"must equal dataset.frames_per_slot 2)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval"])
def test_a_config_override_does_not_read_the_stored_config(
        bad_stored_config, cfg_file, tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--checkpoint", str(bad_stored_config), "--config", cfg_file,
                 "--out", str(out)]) == 0
    assert (out / "metrics.json").exists()


@pytest.mark.parametrize("command", ["eval"])
def test_a_config_override_builds_the_model_once(cfg_file, trained, tmp_path, capsys,
                                                 monkeypatch, command):
    init, calls = SelectorParams.init, []

    def counted(*args, **kwargs):
        calls.append(args)
        return init(*args, **kwargs)

    monkeypatch.setattr(SelectorParams, "init", staticmethod(counted))
    assert main([command, "--checkpoint", str(trained / "checkpoint.sgck"),
                 "--config", cfg_file, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


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
            "heavy_gflops": 2e-6, "head_gflops": 1e-7}
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
        # written before the head was counted once per video
        ({"report": {"mode": "e2e", "entries": [
            dict(entry, cost={k: v for k, v in cost.items() if k != "head_gflops"})]}},
         "'head_gflops'"),
        ([1, 2], "'report'"),
        # json reads NaN and Infinity; an int may exceed every float
        ({"report": {"mode": "e2e", "entries": [dict(entry, value=math.nan)]}}, "'value'"),
        ({"report": {"mode": "e2e", "entries": [dict(entry, value=-math.inf)]}}, "'value'"),
        ({"report": {"mode": "e2e", "entries": [dict(entry, value=10 ** 400)]}}, "'value'"),
        ({"report": {"mode": "e2e", "entries": [
            dict(entry, cost=dict(cost, light_gflops=math.inf))]}}, "'light_gflops'"),
        ({"report": {"mode": "e2e", "entries": [
            dict(entry, cost=dict(cost, heavy_gflops=-5))]}}, "'heavy_gflops'"),
        ({"report": {"mode": "e2e", "entries": [
            dict(entry, cost=dict(cost, n_heavy=-1.0))]}}, "'n_heavy'"),
        ({"report": {"mode": "e2e", "entries": [
            dict(entry, cost=dict(cost, light_gflops=1e308, heavy_gflops=1e308))]}}, "'topk-2'"),
        # raw text: JSON nested or an int too long for the parser
        ("[" * 100_000, "not a JSON metrics file"),
        ('{"report": ' + "1" * 5000 + "}", "not a JSON metrics file"),
    ]
    for i, (payload, field) in enumerate(broken):
        path = tmp_path / f"bad{i}.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        assert main(["tradeoff", "--metrics", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error:") and field in err, (payload, err)
        assert len(err.splitlines()) == 1


def test_tradeoff_merges_a_metrics_file_that_still_names_the_cost_model(tmp_path, capsys):
    # metrics files written before the cost report dropped its model tag
    cost = {"model": "desk_heavy", "n_light": 6, "n_heavy": 2.0,
            "light_gflops": 1e-6, "heavy_gflops": 2e-6, "head_gflops": 1e-6,
            "total_gflops": 4e-6}
    entries = [{"budget": None, "value": 0.75, "cost": cost},
               {"budget": 2, "value": 0.5, "cost": dict(cost, n_heavy=2)}]
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({"report": {"mode": "e2e", "entries": entries}}))
    assert main(["tradeoff", "--metrics", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "tradeoff.csv").read_text().splitlines() == [
        "method,n_heavy_timesteps,gflops,metric",
        "e2e/gate-count,2,4e-06,0.7500",
        "e2e/topk-2,2,4e-06,0.5000",
    ]
