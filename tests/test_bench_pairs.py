import importlib.util
import json
import subprocess
import tarfile
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pairs(parent, change, name="eval_ms_per_video"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    change = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.9]   # last pair ties
    lower = bench_pairs.summarize(_pairs(parent, change), {"eval_ms_per_video": "lower"})
    s = lower["eval_ms_per_video"]
    assert (s["pairs"], s["wins"], s["ties"]) == (10, 9, 1)
    assert s["parent"] == pytest.approx((1.175, 1.45, 1.725))   # statistics.quantiles
    assert s["parent_iqr"] == pytest.approx(0.55)
    assert s["median_change_pct"] == pytest.approx(100.0 * (0.95 / 1.45 - 1.0))
    # 9 of 10 wins, but the 0.5 gap between medians is inside the parent's 0.55
    assert not s["claimable"]
    higher = bench_pairs.summarize(_pairs(parent, change), {"eval_ms_per_video": "higher"})
    assert higher["eval_ms_per_video"]["wins"] == 0


def test_summary_claims_a_gain_only_with_enough_wins_and_a_wide_gap():
    parent = [1.0, 1.01, 1.02, 1.03, 1.04, 1.0, 1.01, 1.02, 1.03, 1.04]
    faster = [0.8] * 10
    s = bench_pairs.summarize(_pairs(parent, faster), {"eval_ms_per_video": "lower"})
    assert s["eval_ms_per_video"]["claimable"]
    two_losses = faster[:8] + [1.5, 1.5]
    s = bench_pairs.summarize(_pairs(parent, two_losses), {"eval_ms_per_video": "lower"})
    assert s["eval_ms_per_video"]["wins"] == 8
    assert not s["eval_ms_per_video"]["claimable"]


def test_summary_skips_metrics_no_pair_reported():
    s = bench_pairs.summarize(_pairs([1.0], [0.9]), {"eval_ms_per_video": "lower",
                                                    "setup_s": "lower"})
    assert set(s) == {"eval_ms_per_video"}
    assert s["eval_ms_per_video"]["parent"] == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("pep706", [True, False])
def test_parent_copy_extracts_the_revision_once(tmp_path, monkeypatch, pep706):
    if not pep706:
        # a tarfile from before PEP 706: no data_filter, no filter argument
        extract = tarfile.TarFile.extractall
        monkeypatch.delattr(tarfile, "data_filter", raising=False)
        monkeypatch.setattr(tarfile.TarFile, "extractall",
                            lambda self, path=".", members=None, *, numeric_owner=False:
                            extract(self, path, members, numeric_owner=numeric_owner,
                                    **({"filter": "fully_trusted"}
                                       if hasattr(tarfile, "fully_trusted_filter") else {})))

    def git(*args):
        subprocess.run(["git", *args], cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("first\n")
    git("add", "perfbench/run.py")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "one")
    (tmp_path / "perfbench" / "run.py").write_text("working tree\n")

    dest = bench_pairs.parent_copy("HEAD", root=tmp_path)
    assert dest.parent == tmp_path / ".bench_build"
    assert (dest / "perfbench" / "run.py").read_text() == "first\n"
    # a second call reuses the copy instead of extracting again
    (dest / "perfbench" / "run.py").write_text("kept\n")
    assert bench_pairs.parent_copy("HEAD", root=tmp_path) == dest
    assert (dest / "perfbench" / "run.py").read_text() == "kept\n"


def test_runs_that_fail_a_check_stay_out_of_the_summary_and_exit_1(
        tmp_path, monkeypatch, capsys):
    calls = []

    def run_once(root, workload, seed, seconds):
        side = "change" if root == bench_pairs.ROOT else "parent"
        calls.append((side, seed))
        pair = (len(calls) - 1) // 2
        return {"correct": (pair, side) != (1, "change"),
                "failed": int((pair, side) == (2, "parent")),
                "metrics": {"train_video_epochs_per_s": {"value": 1000.0 + pair}}}

    monkeypatch.setattr(bench_pairs, "parent_copy", lambda rev: tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    code = bench_pairs.main(["--workload", "e2e-train", "--pairs", "4", "--seeds", "1", "7"])
    out, err = capsys.readouterr()
    assert code == 1
    # odd pairs run the change first
    assert calls == [("parent", 1), ("change", 1), ("change", 7), ("parent", 7),
                     ("parent", 1), ("change", 1), ("change", 7), ("parent", 7)]
    assert err.splitlines() == [
        "left out of the summary: pair 1, change, seed 7: correct False, 0 failed operations",
        "left out of the summary: pair 2, parent, seed 1: correct True, 1 failed operations",
    ]
    summary = json.loads(out.splitlines()[-1])["summary"]
    # only pairs 0 and 3 count
    assert summary["train_video_epochs_per_s"]["pairs"] == 2
    assert summary["train_video_epochs_per_s"]["parent"][1] == 1001.5


def test_a_clean_run_exits_0(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "parent_copy", lambda rev: tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", lambda root, workload, seed, seconds: {
        "correct": True, "failed": 0, "metrics": {"setup_s": {"value": 1.0}}})
    assert bench_pairs.main(["--workload", "gated-eval", "--pairs", "2"]) == 0
    assert capsys.readouterr().err == ""


def test_a_run_that_prints_no_result_line_is_named_and_the_pairs_go_on(
        tmp_path, monkeypatch, capsys):
    """Empty standard output, and a last line that is not a JSON result,
    leave their pairs out of the summary instead of stopping the tool."""
    good = json.dumps({"correct": True, "failed": 0,
                       "metrics": {"setup_s": {"value": 1.0}}})
    outputs = iter([(2, "", "Traceback ...\nMemoryError\n"), (0, good, ""),
                    (0, good, ""), (1, "progress\nnot json\n", ""),
                    (0, good, ""), (0, good, "")])
    commands = []

    def fake_run(cmd, cwd, capture_output, text):
        commands.append(cmd)
        code, out, err = next(outputs)
        return subprocess.CompletedProcess(cmd, code, out, err)

    monkeypatch.setattr(bench_pairs, "parent_copy", lambda rev: tmp_path)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    code = bench_pairs.main(["--workload", "gated-eval", "--pairs", "3", "--seeds", "4"])
    out, err = capsys.readouterr()
    assert code == 1
    assert len(commands) == 6
    assert all(cmd[1] == "perfbench/run.py" and cmd[cmd.index("--seed") + 1] == "4"
               for cmd in commands)
    assert err.splitlines() == [
        "left out of the summary: pair 0, parent, seed 4: exit code 2, no result line; "
        "stderr ends in 'MemoryError'",
        "left out of the summary: pair 1, parent, seed 4: exit code 1, no result line; "
        "stderr ends in 'nothing'",
    ]
    assert json.loads(out.splitlines()[-1])["summary"]["setup_s"]["pairs"] == 1
