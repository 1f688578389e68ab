"""Command line entry point.

Subcommands: generate-data, train, eval (metrics.json, with the per-class gate
selection on a selector arm), tradeoff, gradcheck.
Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure
(running out of memory included).
All artifacts land under --out (default: current directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .. import __version__
from ..costmodel import CostReport, tradeoff_csv
from ..errors import ConfigError, ContractError, FormatError, StepgateError
from ..synthdata import save_split
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, load_config
from .evaluation import entry_key, evaluate_bundle
from .gradsuite import THRESHOLD, run_gradient_suite, suite_passes
from .models import ModelBundle
from .training import resolve_dataset, run_training

TRAINING_LOG_HEADER = "phase,epoch,loss,accuracy,selected_ratio,fallback_share"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="stepgate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")

    common(sub.add_parser("generate-data", help="write train/test split files"))
    common(sub.add_parser("train", help="train the configured mode, save a checkpoint"))

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint per budget")
    common(p_eval, config_required=False)
    p_eval.add_argument("--checkpoint", required=True)

    p_tr = sub.add_parser("tradeoff", help="merge eval metrics into a cost/metric CSV")
    p_tr.add_argument("--metrics", nargs="+", required=True,
                      help="metrics.json files from eval runs")
    p_tr.add_argument("--out", default=".")

    p_gc = sub.add_parser("gradcheck", help="run the finite-difference suite")
    p_gc.add_argument("--seed", type=int, default=0)
    return parser


def _seed(seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    return seed


def _load(args, stored: ExperimentConfig | None = None) -> ExperimentConfig:
    """The ``--config`` file (else ``stored``), ``--seed`` applied."""
    config = load_config(args.config) if args.config else stored
    if args.seed is not None:
        config.seed = _seed(args.seed)
    return config


def _load_checkpoint_run(args) -> tuple[ExperimentConfig, ModelBundle]:
    """``_load``'s config and the checkpoint's model under it.  A ``--config``
    whose model does not fit the weights is a config error; without one, a
    stored config that fails validation makes the checkpoint corrupt."""
    ckpt = load_checkpoint(args.checkpoint)
    try:
        stored = None if args.config else ckpt.experiment_config()
    except ConfigError as exc:
        raise FormatError(f"{args.checkpoint}: stored config is invalid ({exc})") from exc
    config = _load(args, stored)
    try:
        return config, ckpt.bundle(config)
    except ContractError as exc:
        if args.config:
            raise ConfigError(f"{args.config} does not fit the checkpoint: {exc}") from exc
        raise


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_generate_data(args) -> int:
    config = _load(args)
    out = _out_dir(args)
    dataset = resolve_dataset(config)
    for split in ("train", "test"):
        save_split(out / f"{split}.sgds", dataset, split)
    print(f"wrote {len(dataset.train)} train / {len(dataset.test)} test videos "
          f"to {out} (seed {dataset.seed})")
    return 0


def _cmd_train(args) -> int:
    config = _load(args)
    out = _out_dir(args)
    result = run_training(config)
    lines = [TRAINING_LOG_HEADER]
    first = {"standalone": "selector", "scsampler": "scorer"}.get(config.mode, "joint")
    for phase, logs in ((first, result.epoch_logs),
                        ("classifier", result.classifier_logs)):
        for log in logs:
            lines.append(f"{phase},{log.epoch},{log.loss:.6f},"
                         f"{log.accuracy:.4f},{log.selected_ratio:.4f},"
                         f"{log.fallback_share:.4f}")
            print(f"{phase} epoch {log.epoch}: loss {log.loss:.4f} "
                  f"acc {log.accuracy:.4f} ratio {log.selected_ratio:.4f} "
                  f"fallback {log.fallback_share:.4f}")
    (out / "training_log.csv").write_text("".join(l + "\n" for l in lines))
    ckpt_path = out / "checkpoint.sgck"
    save_checkpoint(ckpt_path, result.checkpoint)
    print(f"saved checkpoint to {ckpt_path}")
    return 0


def _cmd_eval(args) -> int:
    config, bundle = _load_checkpoint_run(args)
    dataset = resolve_dataset(config)
    start = time.perf_counter()
    report = evaluate_bundle(bundle, config, dataset.test)
    eval_s = time.perf_counter() - start
    out = _out_dir(args)
    config_json = config.canonical_json()
    payload = {"config": config.to_dict(), "report": report.to_dict(),
               "provenance": {
                   "stepgate_version": __version__,
                   "config_sha256": hashlib.sha256(config_json.encode()).hexdigest(),
                   "eval_s": eval_s,
               }}
    (out / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n")
    for e in report.entries:
        print(f"{entry_key(e.budget)}: {e.metric_name} {e.value:.4f}, "
              f"{e.mean_selected:.2f}/{report.timesteps} timesteps, "
              f"{e.cost.total_gflops:.6f} GFLOPs")
    if report.selection is not None:
        print(f"selection: mean class open ratio {report.selection['mean_ratio']:.4f}, "
              f"variance {report.selection['ratio_variance']:.6f}")
    if report.skipped_classes:
        print(f"skipped in the mAP mean, no positives in the test split: "
              f"classes {report.skipped_classes}")
    return 0


_NUMBER = (int, float)


def _field(obj, key: str, kinds, path: str):
    """``obj[key]`` of an eval metrics file, checked against ``kinds``."""
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{path}: metrics file has no {key!r} field")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise FormatError(f"{path}: metrics field {key!r} has the wrong type "
                          f"{type(value).__name__}")
    return value


def _tradeoff_rows(path: str) -> list[tuple[str, CostReport, float]]:
    """``(method, cost, metric)`` for every budget entry of one metrics.json."""
    try:
        payload = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: not a JSON metrics file ({exc})") from exc
    report = _field(payload, "report", dict, path)
    mode = _field(report, "mode", str, path)
    rows = []
    for entry in _field(report, "entries", list, path):
        budget = _field(entry, "budget", (int, type(None)), path)
        c = _field(entry, "cost", dict, path)
        cost = CostReport(**{k: _field(c, k, _NUMBER, path)
                             for k in ("n_light", "n_heavy", "light_gflops",
                                       "heavy_gflops", "head_gflops")})
        rows.append((f"{mode}/{entry_key(budget)}", cost,
                     _field(entry, "value", _NUMBER, path)))
    return rows


def _cmd_tradeoff(args) -> int:
    rows = [row for path in args.metrics for row in _tradeoff_rows(path)]
    out = _out_dir(args)
    text = tradeoff_csv(rows)
    (out / "tradeoff.csv").write_text(text)
    print(text, end="")
    return 0


def _cmd_gradcheck(args) -> int:
    errors = run_gradient_suite(_seed(args.seed))
    for name in sorted(errors):
        print(f"{name}: {errors[name]:.3e}")
    worst = max(errors.values())
    ok = suite_passes(errors)
    print(f"max relative error {worst:.3e} "
          f"({'below' if ok else 'ABOVE'} threshold {THRESHOLD:g})")
    return 0 if ok else 2


_COMMANDS = {
    "generate-data": _cmd_generate_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "tradeoff": _cmd_tradeoff,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        # no numpy warning reaches stderr: divergence is _check_finite's to report
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (StepgateError, MemoryError) as e:  # numpy's _ArrayMemoryError is a MemoryError
        print(f"runtime error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
