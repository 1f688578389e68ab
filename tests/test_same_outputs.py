import importlib.util
from pathlib import Path

from conftest import tiny_config
from stepgate.harness.checkpoint import save_checkpoint
from stepgate.harness.evaluation import entry_key
from stepgate.harness.training import run_training

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def test_a_gradcheck_diff_names_one_sided_and_changed_cases():
    parent = ("add: 1.514e-10\nmatmul: 9.771e-10\nscale: 1.098e-10\ntranspose: 7.879e-11\n"
              "max relative error 9.771e-10 (below threshold 0.0001)\n")
    change = ("add: 5.016e-11\nmatmul_t: 6.001e-11\nscale: 1.098e-10\n"
              "max relative error 6.001e-11 (below threshold 0.0001)\n")
    assert same_outputs._gradcheck_diff(parent, change) == [
        "  parent only: matmul, transpose",
        "  change only: matmul_t",
        "  add: 1.514e-10 -> 5.016e-11",
    ]
    assert same_outputs._gradcheck_diff(parent, parent) == []


def test_a_report_diff_shows_each_entry_on_both_sides():
    def entry(budget, value, selected):
        return {"budget": budget, "metric_name": "accuracy", "value": value,
                "mean_selected": selected}

    parent = {"entries": [entry(None, 0.8125, 3.5), entry(4, 0.75, 4.0)], "n_videos": 8,
              "selection": {"mean_ratio": 0.5, "class_ratios": [0.25, 0.75]}}
    change = {"entries": [entry(None, 0.84375, 3.25), entry(8, 0.875, 8.0)], "n_videos": 8,
              "selection": {"mean_ratio": 0.5, "class_ratios": [0.25, 0.875]}}
    assert same_outputs._report_diff(parent, change) == [
        "  gate-count: accuracy 0.8125, mean_selected 3.5 -> "
        "accuracy 0.84375, mean_selected 3.25",
        "  topk-4: accuracy 0.75, mean_selected 4.0 -> no entry",
        "  topk-8: no entry -> accuracy 0.875, mean_selected 8.0",
        "  entries differs, largest change 4",
        "  selection differs, largest change 0.125",
    ]


def test_a_checkpoint_with_other_bytes_and_the_same_content_is_no_difference():
    want = {"sha256": "a", "ckpt_content": "c", "weights": "w", "readback": "w",
            "splits": "s", "split_content": "t", "report": {}, "reload": {}, "cli": {}}
    assert same_outputs._verdict(want, want) == (
        False, "same bytes, same weights, same read-back, same splits, equal report, "
               "equal reload, equal cli")
    differs, verdicts = same_outputs._verdict(want, {**want, "sha256": "b"})
    assert not differs and verdicts.startswith("same checkpoint content, ")
    differs, verdicts = same_outputs._verdict(want, {**want, "sha256": "b",
                                                     "ckpt_content": "d"})
    assert differs and verdicts.startswith("CHECKPOINT DIFFERS, ")
    differs, verdicts = same_outputs._verdict(want, {**want, "splits": "x"})
    assert not differs and "same split content" in verdicts
    assert same_outputs._verdict(want, None)[0]
    # training on the splits read back from the files must give the weights
    # of training on the generated splits, whatever the parent's run read back
    differs, verdicts = same_outputs._verdict(want, {**want, "readback": "r"})
    assert differs and verdicts.split(", ")[2] == "READ-BACK DIFFERS"
    assert not same_outputs._verdict({**want, "readback": "r"}, want)[0]


def test_the_cli_outputs_hold_eval_metrics_and_the_tradeoff_csv(tmp_path, tiny_data):
    cfg = tiny_config("e2e", **{"training.epochs": 1})
    path = tmp_path / "run.sgck"
    save_checkpoint(path, run_training(cfg, tiny_data).checkpoint)
    out = same_outputs._cli_outputs("e2e", path, tmp_path / "cli")
    assert "eval_s" not in out["metrics"]["provenance"]
    lines = out["tradeoff"].splitlines()
    assert lines[0] == "method,n_heavy_timesteps,gflops,metric"
    assert sorted(line.split(",")[0] for line in lines[1:]) == sorted(
        f"e2e/{entry_key(e['budget'])}" for e in out["metrics"]["report"]["entries"])
