"""Command line entry point.

Subcommands: generate-data, train, eval, report, tradeoff, gradcheck.
Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
All artifacts land under --out (default: current directory).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..costmodel import CostReport, tradeoff_csv
from ..errors import ConfigError, StepgateError
from ..synthdata import save_split
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, load_config
from .evaluation import evaluate_checkpoint
from .gradsuite import THRESHOLD, run_gradient_suite, suite_passes
from .reports import write_gating_report
from .training import resolve_dataset, run_training

TRAINING_LOG_HEADER = "phase,epoch,loss,accuracy,selected_ratio"


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

    p_rep = sub.add_parser("report", help="write gating ratio/profile CSVs")
    common(p_rep, config_required=False)
    p_rep.add_argument("--checkpoint", required=True)

    p_tr = sub.add_parser("tradeoff", help="merge eval metrics into a cost/metric CSV")
    p_tr.add_argument("--metrics", nargs="+", required=True,
                      help="metrics.json files from eval runs")
    p_tr.add_argument("--out", default=".")

    p_gc = sub.add_parser("gradcheck", help="run the finite-difference suite")
    p_gc.add_argument("--seed", type=int, default=0)
    return parser


def _load(args, need_seed_override=True) -> ExperimentConfig:
    config = load_config(args.config)
    if need_seed_override and args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        config.seed = args.seed
    return config


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
                         f"{log.accuracy:.4f},{log.selected_ratio:.4f}")
            print(f"{phase} epoch {log.epoch}: loss {log.loss:.4f} "
                  f"acc {log.accuracy:.4f} ratio {log.selected_ratio:.4f}")
    (out / "training_log.csv").write_text("".join(l + "\n" for l in lines))
    ckpt_path = out / "checkpoint.sgck"
    save_checkpoint(ckpt_path, result.checkpoint)
    print(f"saved checkpoint to {ckpt_path}")
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    config = _load(args) if args.config else ckpt.experiment_config()
    if args.seed is not None:
        config.seed = args.seed
    ckpt.config = config.to_dict()  # model shapes must still match the weights
    dataset = resolve_dataset(config)
    report = evaluate_checkpoint(ckpt, dataset)
    out = _out_dir(args)
    payload = {"config": config.to_dict(), "report": report.to_dict()}
    (out / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n")
    for e in report.entries:
        tag = "gate-count" if e.budget is None else f"top-{e.budget}"
        print(f"{tag}: {e.metric_name} {e.value:.4f}, "
              f"{e.mean_selected:.2f}/{report.timesteps} timesteps, "
              f"{e.cost.total_gflops:.6f} GFLOPs")
    return 0


def _cmd_report(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    config = _load(args) if args.config else ckpt.experiment_config()
    if args.seed is not None:
        config.seed = args.seed
    ckpt.config = config.to_dict()
    dataset = resolve_dataset(config)
    paths = write_gating_report(ckpt, dataset, _out_dir(args))
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_tradeoff(args) -> int:
    rows = []
    for path in args.metrics:
        report = json.loads(Path(path).read_text())["report"]
        for entry in report["entries"]:
            c = entry["cost"]
            key = "gate-count" if entry["budget"] is None else f"topk-{entry['budget']}"
            rows.append((f"{report['mode']}/{key}",
                         CostReport(model=c["model"], n_light=c["n_light"],
                                    n_heavy=c["n_heavy"],
                                    light_gflops=c["light_gflops"],
                                    heavy_gflops=c["heavy_gflops"]),
                         entry["value"]))
    out = _out_dir(args)
    text = tradeoff_csv(rows)
    (out / "tradeoff.csv").write_text(text)
    print(text, end="")
    return 0


def _cmd_gradcheck(args) -> int:
    errors = run_gradient_suite(args.seed)
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
    "report": _cmd_report,
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
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except StepgateError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
