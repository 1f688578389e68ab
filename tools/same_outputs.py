"""Check that the working tree computes exactly what a parent revision does.

Run from anywhere inside the repository:

    python3 tools/same_outputs.py --parent HEAD

The parent is copied with ``git archive`` as ``tools/bench_pairs.py`` does.
On each side a fresh process trains and evaluates:

* a tiny config in all six modes x {single_label, multi_label} x
  ``training.sample_budget`` {None, 2};
* the tiny single-label config of each selector arm (e2e,
  frame_conditioned, standalone) at ``model.open_bias`` 0.5 and -2, so
  test-mode gates close (at 0.5) and whole videos train on the live
  fallback gate (at -2), which the cases above, all gates open, never see;
* perfbench's e2e-train and baseline-train configs at seeds 1, 2 and 3.

Each case saves its checkpoint and its ``train.sgds`` and ``test.sgds``
split files, evaluates the trained bundle, then reloads the saved
checkpoint and evaluates it again through ``evaluate_checkpoint``, the path
that restores weights by parameter name.  It also trains the case's config
again on the splits read back from the saved files (``resolve_dataset``
with ``dataset.path`` set), whose weights must equal those of the run on
the generated splits, so the loaded-split path feeds a compared output.
It then runs ``stepgate eval`` on the saved checkpoint, then ``stepgate
tradeoff`` on its ``metrics.json``, both through ``cli.main``; it keeps the
CSV text and the ``metrics.json`` without its ``provenance.eval_s`` wall
time.  Each saved split is also
read back with the side's own ``load_split`` and hashed by content: the
spec's scalar parameters, its recipe book and ``n_prototypes``, the
header's ``n_videos``, ``seed`` and ``split``, the prototypes, and each
video's frames, sorted positive classes, relevance and planted ids.  These
are what a split holds under any header layout: a header that stores the
book and one that derives it compare equal.  The saved checkpoint is read
back the same way and hashed by content: its config, its step, and its
weights' names, shapes and values as float64, so float32 and float64 blocks
of one weight compare equal.  The trained parameters are hashed apart from
the file, name by name in name order, so a change that only touches the
stored config reads as the same weights.  The tool prints one line per
case, naming the checkpoint's sha256, whether both checkpoint files have
the same sha256 on both sides or else the same content, whether the weights
are the same, whether the change's read-back run has the weights of its
generated run, whether both split files have the same sha256 or else the
same content, and whether the eval reports, the reloaded checkpoints'
reports and the CLI outputs are equal.  Where the eval reports differ, it
prints each entry's metric and ``mean_selected`` (heavy rows per video) on
both sides, and names each report field that differs with the largest
change among its numbers, so a change that moves every report shows by how
much.  Checkpoint and split files whose bytes differ but whose content is
the same, as after a format change, do not count as a difference.
It then compares the output of ``stepgate gradcheck --seed 0``, ``--seed
1`` and ``--seed 6`` (the seed whose worst case sits nearest the threshold);
where it differs, it names the cases found on one side only and the cases
whose value changed.  It exits 1 when any output differs.  Only the standard
library is used here; the sides import their own ``stepgate``.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, parent_copy  # noqa: E402

MODES = ("e2e", "frame_conditioned", "standalone", "scsampler", "uniform", "random")
# the selector arms' open_bias values whose tiny runs close gates
CLOSING_BIASES = (0.5, -2.0)
GRADCHECK_SEEDS = (0, 1, 6)
# the spec's parameters that every split format has stored
SPEC_SCALARS = ("n_classes", "d_raw", "timesteps", "frames_per_slot", "noise_sigma",
                "relevant_fraction", "confuser_share", "task")


def _cases():
    """(name, config) of every case, built by the imported side's code."""
    import run as perfbench
    from stepgate.harness.config import (DatasetConfig, ExperimentConfig,
                                         ModelConfig, TrainingConfig)

    def tiny(mode, task="single_label", budget=None, open_bias=2.0):
        cfg = ExperimentConfig(
            mode=mode, seed=0,
            dataset=DatasetConfig(n_train=12, n_test=6, n_classes=3, n_shared=2,
                                  n_background=2, d_raw=6, timesteps=6,
                                  frames_per_slot=4, noise_sigma=0.3,
                                  relevant_fraction=0.34, task=task),
            model=ModelConfig(light_channels=8, heavy_channels=4, n_kernels=8,
                              gate_hidden=4, segment_len=4, open_bias=open_bias),
            training=TrainingConfig(batch_size=5, epochs=2, sample_budget=budget))
        cfg.eval.budgets = [2, 4]
        return cfg

    for mode in MODES:
        for task in ("single_label", "multi_label"):
            for budget in (None, 2):
                yield f"tiny {mode} {task} budget={budget}", tiny(mode, task, budget)
    for mode in ("e2e", "frame_conditioned", "standalone"):
        for bias in CLOSING_BIASES:
            yield f"tiny {mode} single_label open_bias={bias}", tiny(mode, open_bias=bias)
    for workload in ("e2e-train", "baseline-train"):
        for seed in (1, 2, 3):
            yield (f"perfbench {workload} seed={seed}",
                   perfbench.workload_config(perfbench.WORKLOADS[workload], seed))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli_outputs(mode: str, path: Path, run: Path) -> dict:
    """``stepgate eval`` on the checkpoint at ``path``, then ``stepgate
    tradeoff`` on its metrics.json, run by the imported side's code: the
    metrics.json without its wall time, and the tradeoff.csv text."""
    from stepgate.harness import cli

    metrics_path = run / "metrics.json"
    for argv in (["eval", "--checkpoint", str(path), "--out", str(run)],
                 ["tradeoff", "--metrics", str(metrics_path), "--out", str(run)]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code:
            raise SystemExit(f"stepgate {argv[0]} on {mode} exited {code}")
    metrics = json.loads(metrics_path.read_text())
    del metrics["provenance"]["eval_s"]
    return {"metrics": metrics, "tradeoff": (run / "tradeoff.csv").read_text()}


def _split_content(path: Path) -> str:
    """sha256 of what the imported side's ``load_split`` reads from ``path``,
    independent of how the file lays it out."""
    from stepgate.synthdata import load_split

    spec, prototypes, videos, meta = load_split(path)
    content = {**{name: getattr(spec, name) for name in SPEC_SCALARS},
               "class_recipes": [sorted(r) for r in spec.class_recipes],
               "shared_prototypes": sorted(spec.shared_prototypes),
               "background_prototypes": sorted(spec.background_prototypes),
               "placement": list(spec.placement), "n_prototypes": spec.n_prototypes,
               **{key: meta[key] for key in ("n_videos", "seed", "split")}}
    h = hashlib.sha256(json.dumps(content, sort_keys=True).encode())
    h.update(prototypes)
    for v in videos:
        h.update(v.frames)
        h.update(json.dumps([i for i, y in enumerate(v.labels.tolist()) if y]).encode())
        h.update(v.relevance)
        h.update(v.planted)
    return h.hexdigest()


def _weights(params: dict) -> str:
    """sha256 of a checkpoint's parameters, name, shape and float64 bytes of
    each, in name order."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(json.dumps([name, list(params[name].shape)]).encode())
        h.update(params[name].astype("<f8").tobytes())
    return h.hexdigest()


def _checkpoint_content(path: Path) -> str:
    """sha256 of what the imported side's ``load_checkpoint`` reads from
    ``path``: the config, the step and the weights as ``_weights`` hashes
    them, independent of the blocks' dtype."""
    from stepgate.harness.checkpoint import load_checkpoint

    ckpt = load_checkpoint(path)
    h = hashlib.sha256(json.dumps([ckpt.config, ckpt.step], sort_keys=True).encode())
    h.update(_weights(ckpt.params).encode())
    return h.hexdigest()


def worker(root: Path) -> None:
    """Print {case: {"sha256", "ckpt_content", "weights", "readback", "splits",
    "split_content", "report", "reload", "cli"}} for ``root``'s code."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from stepgate.harness.checkpoint import load_checkpoint, save_checkpoint
    from stepgate.harness.evaluation import evaluate_bundle, evaluate_checkpoint
    from stepgate.harness.training import resolve_dataset, run_training
    from stepgate.synthdata import save_split

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, cfg) in enumerate(_cases()):
            data = resolve_dataset(cfg)
            splits, content = {}, {}
            for split in ("train", "test"):
                save_split(Path(tmp) / f"{split}.sgds", data, split)
                splits[split] = _sha256(Path(tmp) / f"{split}.sgds")
                content[split] = _split_content(Path(tmp) / f"{split}.sgds")
            result = run_training(cfg, data)
            stored = copy.deepcopy(cfg)
            stored.dataset.path = tmp
            readback = run_training(cfg, resolve_dataset(stored))
            path = Path(tmp) / "run.sgck"
            save_checkpoint(path, result.checkpoint)
            out[name] = {"sha256": _sha256(path), "ckpt_content": _checkpoint_content(path),
                         "weights": _weights(result.checkpoint.params),
                         "readback": _weights(readback.checkpoint.params),
                         "splits": splits, "split_content": content,
                         "report": evaluate_bundle(result.bundle, cfg, data.test).to_dict(),
                         "reload": evaluate_checkpoint(load_checkpoint(path), data).to_dict(),
                         "cli": _cli_outputs(cfg.mode, path, Path(tmp) / f"cli{i}")}
    print(json.dumps(out))


def _numbers(value) -> list[float]:
    """Every number in a JSON value, in order."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [float(value)] if type(value) in (int, float) else []


def _report_diff(parent: dict, change: dict) -> list[str]:
    """One line per budget entry of two eval reports, its metric and
    ``mean_selected`` on each side, then one per report field that differs,
    with the largest change among its numbers."""
    def entries(report):
        return {"gate-count" if e["budget"] is None else f"topk-{e['budget']}": e
                for e in report["entries"]}

    want, have = entries(parent), entries(change)
    lines = []
    for key in [*want, *(k for k in have if k not in want)]:
        shown = [f"{e['metric_name']} {e['value']!r}, mean_selected {e['mean_selected']!r}"
                 if e else "no entry" for e in (want.get(key), have.get(key))]
        lines.append(f"  {key}: {shown[0]} -> {shown[1]}")
    for field in sorted(parent.keys() | change.keys()):
        if parent.get(field) != change.get(field):
            a, b = _numbers(parent.get(field)), _numbers(change.get(field))
            size = (f"largest change {max(abs(x - y) for x, y in zip(a, b)):.3g}"
                    if a and len(a) == len(b) else "not comparable")
            lines.append(f"  {field} differs, {size}")
    return lines


def _gradcheck_cases(output: str) -> dict[str, str]:
    """``stepgate gradcheck`` output as {case: printed value}, without its
    closing summary line."""
    return dict(line.split(": ", 1) for line in output.strip().splitlines()[:-1])


def _gradcheck_diff(parent: str, change: str) -> list[str]:
    """One line per kind of difference between two gradcheck outputs: the
    cases on one side only, and each shared case whose value changed."""
    want, have = _gradcheck_cases(parent), _gradcheck_cases(change)
    lines = [f"  {label} only: {', '.join(sorted(names))}"
             for label, names in (("parent", want.keys() - have.keys()),
                                  ("change", have.keys() - want.keys())) if names]
    lines += [f"  {name}: {want[name]} -> {have[name]}"
              for name in sorted(want.keys() & have.keys()) if want[name] != have[name]]
    return lines


def _verdict(want: dict, have: dict | None) -> tuple[bool, str]:
    """Whether a case differs between the parent's outputs ``want`` and the
    change's ``have``, and its line's verdicts.  Checkpoint or split files
    whose bytes differ but whose content is the same are no difference; a
    change whose run on the read-back splits has other weights than its run
    on the generated ones differs."""
    def same(key):
        return have is not None and have[key] == want[key]

    ckpt = ("same bytes" if same("sha256") else
            "same checkpoint content" if same("ckpt_content") else "CHECKPOINT DIFFERS")
    splits = ("same splits" if same("splits") else
              "same split content" if same("split_content") else "SPLITS DIFFER")
    readback = have is not None and have["readback"] == have["weights"]
    verdicts = [ckpt, "same weights" if same("weights") else "WEIGHTS DIFFER",
                "same read-back" if readback else "READ-BACK DIFFERS", splits,
                "equal report" if same("report") else "REPORT DIFFERS",
                "equal reload" if same("reload") else "RELOAD DIFFERS",
                "equal cli" if same("cli") else "CLI DIFFERS"]
    return any(v.isupper() for v in verdicts), ", ".join(verdicts)


def _side(root: Path, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, text=True)
    # gradcheck exits 2 when a case is above threshold; its output still compares
    if proc.returncode not in (0, 2) or not proc.stdout:
        raise SystemExit(f"{root}: {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-300:]}")
    return proc.stdout


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="git revision to compare against")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0

    sides = {"parent": parent_copy(args.parent), "change": ROOT}
    got = {side: json.loads(_side(root, str(Path(__file__).resolve()), "--worker", str(root)))
           for side, root in sides.items()}
    differ = 0
    for name, want in got["parent"].items():
        have = got["change"].get(name)
        differs, verdicts = _verdict(want, have)
        differ += differs
        print(f"{name:<50} sha256 {want['sha256'][:16]} {verdicts}")
        if have is not None and have["report"] != want["report"]:
            print("\n".join(_report_diff(want["report"], have["report"])))
    for seed in GRADCHECK_SEEDS:
        outs = {side: _side(root, "-m", "stepgate", "gradcheck", "--seed", str(seed))
                for side, root in sides.items()}
        same = outs["parent"] == outs["change"]
        differ += not same
        print(f"gradcheck --seed {seed}: {outs['parent'].strip().splitlines()[-1]}; "
              f"{'same output' if same else 'OUTPUT DIFFERS'}")
        if not same:
            print(f"  change: {outs['change'].strip().splitlines()[-1]}")
            print("\n".join(_gradcheck_diff(outs["parent"], outs["change"])))
    print(f"{differ} of {len(got['parent']) + len(GRADCHECK_SEEDS)} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
