"""Gating reports: per-class selection ratios and temporal gate profiles.

Ratios come from deterministic test-mode gates with no fallback applied, so
an always-closed selector honestly reports 0.  Temporal profiles average the
continuous gate activation sigmoid(logit) per timestep position over each
class's videos, then min-max normalize per class into [0, 1]; a flat profile
normalizes to all zeros.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..autodiff import sigmoid_np
from ..errors import ContractError
from ..gating import step_open
from .config import ExperimentConfig
from .evaluation import SELECTOR_MODES, rankings
from .models import ModelBundle

CLASS_RATIOS_HEADER = "class,ratio"
TEMPORAL_PROFILE_HEADER = "class,position,normalized_gate"


@dataclass
class GatingReport:
    class_ratios: list[float]       # per class, mean fraction of open gates
    ratio_variance: float           # across-class population variance
    mean_ratio: float
    temporal_profiles: np.ndarray   # (classes, timesteps), each row in [0, 1]


def compute_gating_report(bundle: ModelBundle, config: ExperimentConfig,
                          videos: list) -> GatingReport:
    if config.mode not in SELECTOR_MODES:
        raise ContractError(f"mode {config.mode!r} has no gates to report on")
    if not videos:
        raise ContractError("gating report needs at least one video")
    t, n_classes = config.dataset.timesteps, config.dataset.n_classes
    ratio_sums = np.zeros(n_classes)
    gate_sums = np.zeros((n_classes, t))
    counts = np.zeros(n_classes)

    logits = rankings(bundle, config, videos)
    for video, row, gates in zip(videos, logits, sigmoid_np(logits)):
        ratio = np.count_nonzero(step_open(row)) / t
        for c in video.positive_classes():
            ratio_sums[c] += ratio
            gate_sums[c] += gates
            counts[c] += 1

    seen = counts > 0
    ratios = np.zeros(n_classes)
    ratios[seen] = ratio_sums[seen] / counts[seen]
    profiles = np.zeros((n_classes, t))
    profiles[seen] = gate_sums[seen] / counts[seen, None]
    for c in range(n_classes):
        lo, hi = profiles[c].min(), profiles[c].max()
        profiles[c] = (profiles[c] - lo) / (hi - lo) if hi > lo else 0.0
    return GatingReport(
        class_ratios=[float(r) for r in ratios],
        ratio_variance=float(np.var(ratios[seen])),
        mean_ratio=float(np.mean(ratios[seen])),
        temporal_profiles=profiles,
    )


def class_ratios_csv(report: GatingReport) -> str:
    lines = [CLASS_RATIOS_HEADER]
    lines += [f"{c},{r:.6f}" for c, r in enumerate(report.class_ratios)]
    return "".join(line + "\n" for line in lines)


def temporal_profile_csv(report: GatingReport) -> str:
    lines = [TEMPORAL_PROFILE_HEADER]
    n_classes, t = report.temporal_profiles.shape
    for c in range(n_classes):
        lines += [f"{c},{p},{report.temporal_profiles[c, p]:.6f}"
                  for p in range(t)]
    return "".join(line + "\n" for line in lines)


def write_gating_report(bundle: ModelBundle, config: ExperimentConfig,
                        videos: list, out_dir) -> dict[str, str]:
    """Emit class_ratios.csv, temporal_profile.csv, and summary.json for
    ``videos`` (normally the test split)."""
    report = compute_gating_report(bundle, config, videos)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "class_ratios": str(out / "class_ratios.csv"),
        "temporal_profile": str(out / "temporal_profile.csv"),
        "summary": str(out / "summary.json"),
    }
    Path(paths["class_ratios"]).write_text(class_ratios_csv(report))
    Path(paths["temporal_profile"]).write_text(temporal_profile_csv(report))
    summary = {
        "mode": config.mode,
        "mean_ratio": report.mean_ratio,
        "ratio_variance": report.ratio_variance,
        "class_ratios": report.class_ratios,
    }
    Path(paths["summary"]).write_text(json.dumps(summary, indent=2) + "\n")
    return paths
