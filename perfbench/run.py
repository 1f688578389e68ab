"""Benchmark of stepgate's training and evaluation paths.

Run from the repository root:

    python3 perfbench/run.py --workload e2e-train --seed 1 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around the package's functions.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when an output
check failed.  perfbench/README.md describes the workloads and metrics.
"""

import os
import sys

# Every workload is one closed loop on one thread; pin the BLAS and OpenMP
# pools before numpy loads so a busy neighbour core cannot stall a matmul.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# measure the checkout's own sources, never an installed copy of the package
if not (ROOT / "src" / "stepgate").is_dir():
    raise SystemExit(f"perfbench: no stepgate sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np

    import layers
    from spans import Tracer
    from stepgate import synthdata
    from stepgate.harness import checkpoint, evaluation, training
    from stepgate.harness.config import ExperimentConfig
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import stepgate from {ROOT / 'src'}: {exc}")

BUDGETS = [4, 8, 16]
# Share of --seconds the planned cycles fill on the reference machine
# (perfbench/README.md); the rest is headroom before the time cap stops a run.
PLAN_SHARE = 0.7
MIN_CYCLES = 3   # run even past the cap, so a traced run has both kinds of round

END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_video_epochs_per_s": ("1/s", "higher"),
    "eval_ms_per_video": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass(frozen=True)
class Workload:
    mode: str
    # True: each round trains a model, then evaluates it on the test split.
    # False: set-up trains, saves and reloads a checkpoint; rounds only evaluate it.
    trains_in_rounds: bool
    # A run is a fixed number of cycles, each one set-up followed by this
    # many rounds, so set-ups are sampled across the whole run.
    rounds_per_cycle: int
    # One cycle's wall time on the reference machine; with --seconds it fixes
    # the number of cycles, which therefore does not depend on the code's speed.
    cycle_s: float

    def cycles(self, seconds: float) -> int:
        return max(MIN_CYCLES, int(PLAN_SHARE * seconds / self.cycle_s))


WORKLOADS = {
    "e2e-train": Workload("e2e", True, 1, 1.9),
    "baseline-train": Workload("scsampler", True, 1, 1.2),
    "gated-eval": Workload("e2e", False, 6, 3.4),
}


def default_config() -> ExperimentConfig:
    """Package-default model and data shapes; the split sizes and epochs are
    chosen so one round takes one to two seconds."""
    cfg = ExperimentConfig()
    cfg.dataset.n_train, cfg.dataset.n_test = 256, 128
    cfg.training.epochs = 2
    return cfg


def workload_config(workload: Workload, seed: int, base=default_config) -> ExperimentConfig:
    cfg = base()
    cfg.mode = workload.mode
    cfg.seed = seed
    cfg.training.l0_weight = 0.0
    cfg.eval.budgets = list(BUDGETS)
    cfg.eval.selection = "gate-count"
    return cfg


def train_passes(cfg: ExperimentConfig) -> int:
    """Training phases: scsampler fits the scorer first, then the classifier."""
    return 2 if cfg.mode == "scsampler" else 1


def train_batches(cfg: ExperimentConfig) -> int:
    per_epoch = math.ceil(cfg.dataset.n_train / cfg.training.batch_size)
    return per_epoch * cfg.training.epochs * train_passes(cfg)


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def error_line(exc: BaseException) -> str:
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


# ---------------------------------------------------------------------------
# output checks


def training_problems(result) -> list[str]:
    out = []
    for phase in (result.epoch_logs, result.classifier_logs):
        for log in phase:
            if not math.isfinite(log.loss):
                out.append(f"epoch {log.epoch}: loss {log.loss} is not finite")
            if not 0.0 <= log.accuracy <= 1.0:
                out.append(f"epoch {log.epoch}: accuracy {log.accuracy} outside [0, 1]")
    return out


def report_problems(report, desk_heavy: float) -> dict[str, list[str]]:
    """Per eval entry, the checks its numbers fail."""
    out = {}
    for (key, counts), e in zip(report.per_video_counts.items(), report.entries):
        bad = []
        if e.heavy_rows != sum(counts):
            bad.append(f"heavy_rows {e.heavy_rows} != sum of per-video counts {sum(counts)}")
        if e.budget is not None and e.mean_selected != e.budget:
            bad.append(f"mean_selected {e.mean_selected} != k {e.budget}")
        want = e.mean_selected * desk_heavy
        if not math.isclose(e.cost.heavy_gflops, want, rel_tol=1e-12, abs_tol=0.0):
            bad.append(f"heavy_gflops {e.cost.heavy_gflops!r} != mean_selected x desk_heavy {want!r}")
        if not 0.0 <= e.value <= 1.0:
            bad.append(f"{e.metric_name} {e.value} outside [0, 1]")
        out[key] = [f"{key}: {b}" for b in bad]
    return out


# ---------------------------------------------------------------------------
# one run


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ops(self, n: int, problems: list[str]) -> None:
        """Record ``n`` operations; all of them fail when any problem was found."""
        self.attempted += n
        if problems:
            self.failed += n
            self.problems.extend(problems)


class Run:
    def __init__(self, name: str, seed: int, workdir: Path, base=default_config):
        self.load_at_start = os.getloadavg()[0]
        self.name = name
        self.workload = WORKLOADS[name]
        self.cfg = workload_config(self.workload, seed, base)
        self.workdir = workdir
        self.tracer = Tracer()
        self.outcome = Outcome()
        registry = evaluation.cost_registry_for(self.cfg)
        self.desk_light = registry.rate("desk_light")
        self.desk_heavy = registry.rate("desk_heavy")
        self.n_eval_ops = self.cfg.dataset.n_test * (1 + len(BUDGETS))
        self.dataset = None
        self.ckpt = None
        self.setup_s: list[float] = []
        self.train_rates: list[float] = []
        self.eval_ms: list[float] = []
        self.round_s: list[tuple[bool, float]] = []   # (traced, wall seconds) per round
        self.reference: dict = {}   # first outputs; every repeat must equal them
        self.last_report = None
        self.final_loss = None
        self.planned_cycles = 0

    # -- set-up --------------------------------------------------------------

    def set_up(self) -> None:
        """Generate the splits, write and read them back; on gated-eval also
        train, save and reload the checkpoint the rounds evaluate."""
        cfg = self.cfg
        stored = copy.deepcopy(cfg)
        stored.dataset.path = str(self.workdir)
        self.dataset = None  # free the previous set-up's videos first
        gc.collect()
        t0 = time.perf_counter()
        generated = training.resolve_dataset(cfg)
        for split in ("train", "test"):
            synthdata.save_split(self.workdir / f"{split}.sgds", generated, split)
        dataset = training.resolve_dataset(stored)
        result = ckpt = None
        if not self.workload.trains_in_rounds:
            t1 = time.perf_counter()
            result = training.run_training(cfg, dataset)
            train_s = time.perf_counter() - t1
            path = self.workdir / "checkpoint.sgck"
            checkpoint.save_checkpoint(path, result.checkpoint)
            ckpt = checkpoint.load_checkpoint(path)
        self.setup_s.append(time.perf_counter() - t0)

        problems = []
        for split in ("train", "test"):
            a, b = getattr(generated, split), getattr(dataset, split)
            if len(a) != len(b) or not all(
                    np.array_equal(x.frames, y.frames) and np.array_equal(x.labels, y.labels)
                    for x, y in zip(a, b)):
                problems.append(f"set-up: the {split} split read back differs from the one written")
        if ckpt is not None:
            problems += training_problems(result)
            if any(not np.array_equal(ckpt.params[k], v)
                   for k, v in result.checkpoint.params.items()):
                problems.append("set-up: the checkpoint read back differs from the one saved")
            problems += self._same("set-up checkpoint", (file_sha256(path), self._loss(result)))
            self.train_rates.append(layers.video_epochs(result, self.cfg.dataset.n_train) / train_s)
            self.final_loss = self._loss(result)
            self.ckpt = ckpt
        self.outcome.ops(train_batches(cfg) if ckpt is not None else 1, problems)
        self.dataset = dataset

    # -- rounds --------------------------------------------------------------

    @staticmethod
    def _loss(result) -> float:
        return (result.classifier_logs or result.epoch_logs)[-1].loss

    def _same(self, what: str, value) -> list[str]:
        first = self.reference.setdefault(what, value)
        return [] if value == first else [f"{what} differs between repeats with one seed: {value!r} vs {first!r}"]

    def one_round(self, traced: bool) -> None:
        mark = len(self.tracer.spans)
        t0 = time.perf_counter()
        train_problems: list[str] = []
        if self.workload.trains_in_rounds:
            try:
                gc.collect()
                t1 = time.perf_counter()
                result = training.run_training(self.cfg, self.dataset)
                train_s = time.perf_counter() - t1
            except Exception as exc:  # a failed round is counted; the run goes on
                self.outcome.ops(train_batches(self.cfg) + self.n_eval_ops,
                                 [f"training raised {error_line(exc)}"])
                return
            path = self.workdir / "round.sgck"
            checkpoint.save_checkpoint(path, result.checkpoint)
            train_problems = training_problems(result)
            train_problems += self._same("trained checkpoint",
                                         (file_sha256(path), self._loss(result)))
            if traced:
                train_problems += self._training_span_problems(mark, result)
            self.final_loss = self._loss(result)
            bundle = result.bundle
        try:
            gc.collect()
            t2 = time.perf_counter()
            if self.workload.trains_in_rounds:
                report = evaluation.evaluate_bundle(bundle, self.cfg, self.dataset.test)
            else:
                report = evaluation.evaluate_checkpoint(self.ckpt, self.dataset)
            eval_s = time.perf_counter() - t2
        except Exception as exc:  # a failed round is counted; the run goes on
            if self.workload.trains_in_rounds:
                self.outcome.ops(train_batches(self.cfg), train_problems)
            self.outcome.ops(self.n_eval_ops, [f"evaluation raised {error_line(exc)}"])
            return
        self.round_s.append((traced, time.perf_counter() - t0))

        if self.workload.trains_in_rounds:
            self.outcome.ops(train_batches(self.cfg), train_problems)
            self.train_rates.append(layers.video_epochs(result, self.cfg.dataset.n_train) / train_s)
        per_entry = report_problems(report, self.desk_heavy)
        if traced:
            for key, bad in self._eval_span_problems(mark, report).items():
                per_entry[key] += bad
        for key, e in zip(report.per_video_counts, report.entries):
            bad = per_entry[key] + self._same(f"eval entry {key}", e.to_dict())
            self.outcome.ops(len(self.dataset.test), bad)
        self.eval_ms.append(1e3 * eval_s / (report.n_videos * len(report.entries)))
        self.last_report = report

    def _training_span_problems(self, mark: int, result) -> list[str]:
        spans = self.tracer.spans[mark:]
        under = [s for s in spans if spans[s.root - mark].name == layers.TRAIN]
        rows = sum(s.counts["rows"] for s in under if s.name == layers.HEAVY)
        out = []
        if rows != result.bundle.classifier.heavy_rows:
            out.append(f"spans: {rows} heavy rows traced in training, "
                       f"ClassifierParams.heavy_rows says {result.bundle.classifier.heavy_rows}")
        if self.cfg.mode == "e2e":
            calls = sum(1 for s in under if s.name == layers.SELECT)
            want = self.cfg.dataset.n_train * self.cfg.training.epochs
            if calls != want:
                out.append(f"spans: {calls} select calls traced in training, expected "
                           f"n_train x epochs = {want}")
        return out

    def _eval_span_problems(self, mark: int, report) -> dict[str, list[str]]:
        spans = self.tracer.spans[mark:]
        at = next(i for i, s in enumerate(spans) if s.name == layers.EVAL)
        chunks = layers.eval_entry_rows(spans, at)
        out = {}
        for key, e in zip(report.per_video_counts, report.entries):
            chunk = chunks.get(key, [])
            rows = sum(s.counts["rows"] for s in chunk)
            bad = []
            if len(chunk) != report.n_videos or rows != e.heavy_rows:
                bad.append(f"{key}: spans hold {len(chunk)} heavy calls and {rows} rows, "
                           f"the report {report.n_videos} videos and {e.heavy_rows} rows")
            out[key] = bad
        return out

    # -- whole run -----------------------------------------------------------

    def execute(self, seconds: float, trace: bool) -> dict:
        """The planned cycles, each a set-up and its rounds.  ``seconds`` caps
        the run: once it has passed, no set-up or round starts after the
        first ``MIN_CYCLES`` cycles.  A traced run traces every set-up and
        alternates untraced and traced rounds, so both kinds of round see
        the same machine load."""
        end = time.perf_counter() + seconds
        self.planned_cycles = self.workload.cycles(seconds)
        done = 0
        for cycle in range(self.planned_cycles):
            capped = cycle >= MIN_CYCLES
            if capped and time.perf_counter() >= end:
                break
            if trace:
                with self.tracer.installed(layers.SETUP_TARGETS):
                    self.set_up()
            else:
                self.set_up()
            for _ in range(self.workload.rounds_per_cycle):
                if capped and time.perf_counter() >= end:
                    break
                if trace and done % 2 == 1:
                    with self.tracer.installed(layers.MEASURE_TARGETS):
                        self.one_round(True)
                else:
                    self.one_round(False)
                done += 1
        if not trace:
            return self.end_to_end()
        self.outcome.problems += layers.coverage_failures(self.tracer.spans, self.name)
        return self.per_layer()

    def end_to_end(self) -> dict:
        """Every timing is the median of its samples; the quartiles go into
        the detail line.  Set-ups are spread over the run, one per cycle, so
        all three timings sample the same stretch of machine load, and the
        sample counts are fixed by the workload and --seconds, not by the
        code's speed."""
        return {
            "setup_s": statistics.median(self.setup_s),
            "train_video_epochs_per_s": statistics.median(self.train_rates),
            "eval_ms_per_video": statistics.median(self.eval_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        primary = layers.TRAIN if self.workload.trains_in_rounds else layers.EVAL
        m = layers.layer_metrics(self.tracer.spans, primary, self.cfg.dataset.timesteps,
                                 self.desk_light, self.desk_heavy)
        # the first round also grows the heap, so it is left out
        plain = [s for traced, s in self.round_s[1:] if not traced]
        traced = [s for traced, s in self.round_s[1:] if traced]
        m["trace_overhead_pct"] = (
            100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
            if plain and traced else 0.0)
        return m

    def detail(self) -> dict:
        """What the result line has no room for: machine, sample counts,
        quartiles and the model-quality numbers."""
        gate = self.last_report.entry(None) if self.last_report else None
        out = {
            "workload": self.name, "mode": self.cfg.mode, "seed": self.cfg.seed,
            "n_train": self.cfg.dataset.n_train, "n_test": self.cfg.dataset.n_test,
            "epochs": self.cfg.training.epochs,
            "machine": machine_info(self.load_at_start),
            "cycles": {"planned": self.planned_cycles, "set_ups": len(self.setup_s)},
            "rounds": {"untraced": sum(1 for t, _ in self.round_s if not t),
                       "traced": sum(1 for t, _ in self.round_s if t)},
            "train_final_loss": self.final_loss,
            "eval_accuracy": gate.value if gate else None,
            "eval_mean_selected": gate.mean_selected if gate else None,
            "eval_gflops_per_video": gate.cost.total_gflops if gate else None,
        }
        for name, values in (("setup_s", self.setup_s),
                             ("train_video_epochs_per_s", self.train_rates),
                             ("eval_ms_per_video", self.eval_ms)):
            if len(values) >= 2:
                # quantiles(n=4) gives the lower quartile, the median and the upper quartile
                out[f"{name}.quartiles"] = statistics.quantiles(values, n=4)
            out[f"{name}.samples"] = len(values)
        p90 = layers.step_p90_ms(self.tracer.spans, layers.TRAIN)
        if p90 is not None:
            out["autodiff.step_ms.p90"] = p90
        out["problems"] = self.outcome.problems[:20]
        return out


def machine_info(load_at_start: float) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_1m_at_start": load_at_start,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, base=default_config) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail)."""
    run = Run(name, seed, workdir, base)
    try:
        values = run.execute(seconds, trace)
    except Exception as exc:  # set-up failed: nothing further can be measured
        run.outcome.ops(1, [f"{name} raised {error_line(exc)}"])
        values = {}
    units = layers.PER_LAYER if trace else END_TO_END
    result = {
        "correct": bool(values) and run.outcome.failed == 0 and not run.outcome.problems,
        "attempted": max(run.outcome.attempted, 1),
        "failed": run.outcome.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k][0]}
                    for k in units if k in values},
    }
    return result, run.detail()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, detail = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = layers.PER_LAYER if args.trace else END_TO_END
    for name, m in result["metrics"].items():
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']:<8} ({units[name][1]} is better)")
    for problem in detail["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
