"""Check that the working tree computes exactly what a parent revision does.

Run from anywhere inside the repository:

    python3 tools/same_outputs.py --parent HEAD

The parent is copied with ``git archive`` as ``tools/bench_pairs.py`` does.
On each side a fresh process trains and evaluates:

* a tiny config in all six modes x {single_label, multi_label} x
  ``l0_weight`` {0, 0.05};
* perfbench's e2e-train and baseline-train configs at seeds 1, 2 and 3.

The tool prints one line per case, naming each checkpoint file's sha256 and
whether the eval reports are equal.  It then compares the output of
``stepgate gradcheck --seed 0`` and ``--seed 1``.  It exits 1 when any
output differs.  Only the standard library is used here; the sides import
their own ``stepgate``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, parent_copy  # noqa: E402

MODES = ("e2e", "frame_conditioned", "standalone", "scsampler", "uniform", "random")
GRADCHECK_SEEDS = (0, 1)


def _cases():
    """(name, config) of every case, built by the imported side's code."""
    import run as perfbench
    from stepgate.harness.config import (DatasetConfig, ExperimentConfig,
                                         ModelConfig, TrainingConfig)

    for mode in MODES:
        for task in ("single_label", "multi_label"):
            for l0 in (0.0, 0.05):
                cfg = ExperimentConfig(
                    mode=mode, seed=0,
                    dataset=DatasetConfig(n_train=12, n_test=6, n_classes=3, n_shared=2,
                                          n_background=2, d_raw=6, timesteps=6,
                                          frames_per_slot=4, noise_sigma=0.3,
                                          relevant_fraction=0.34, task=task),
                    model=ModelConfig(light_channels=8, heavy_channels=4, n_kernels=8,
                                      gate_hidden=4, segment_len=3, open_bias=2.0),
                    training=TrainingConfig(batch_size=5, epochs=2, l0_weight=l0))
                cfg.eval.budgets = [2, 4]
                yield f"tiny {mode} {task} l0={l0}", cfg
    for workload in ("e2e-train", "baseline-train"):
        for seed in (1, 2, 3):
            yield (f"perfbench {workload} seed={seed}",
                   perfbench.workload_config(perfbench.WORKLOADS[workload], seed))


def worker(root: Path) -> None:
    """Print {case: {"sha256", "report"}} for ``root``'s code."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from stepgate.harness.checkpoint import save_checkpoint
    from stepgate.harness.evaluation import evaluate_bundle
    from stepgate.harness.training import resolve_dataset, run_training

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in _cases():
            data = resolve_dataset(cfg)
            result = run_training(cfg, data)
            path = Path(tmp) / "run.sgck"
            save_checkpoint(path, result.checkpoint)
            out[name] = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                         "report": evaluate_bundle(result.bundle, cfg, data.test).to_dict()}
    print(json.dumps(out))


def _side(root: Path, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
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
        same_bytes = have is not None and have["sha256"] == want["sha256"]
        same_report = have is not None and have["report"] == want["report"]
        differ += not (same_bytes and same_report)
        print(f"{name:<45} sha256 {want['sha256'][:16]} "
              f"{'same bytes' if same_bytes else 'BYTES DIFFER'}, "
              f"{'equal report' if same_report else 'REPORT DIFFERS'}")
    for seed in GRADCHECK_SEEDS:
        outs = {side: _side(root, "-m", "stepgate", "gradcheck", "--seed", str(seed))
                for side, root in sides.items()}
        same = outs["parent"] == outs["change"]
        differ += not same
        print(f"gradcheck --seed {seed}: {outs['parent'].strip().splitlines()[-1]}; "
              f"{'same output' if same else 'OUTPUT DIFFERS'}")
    print(f"{differ} of {len(got['parent']) + len(GRADCHECK_SEEDS)} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
