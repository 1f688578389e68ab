import json

import numpy as np
import pytest

from conftest import tiny_config
from stepgate.errors import ContractError
from stepgate.harness.models import build_bundle
from stepgate.harness.reports import (CLASS_RATIOS_HEADER,
                                      TEMPORAL_PROFILE_HEADER,
                                      class_ratios_csv, compute_gating_report,
                                      temporal_profile_csv,
                                      write_gating_report)


@pytest.fixture(scope="module")
def report(tiny_data):
    cfg = tiny_config("e2e")
    bundle = build_bundle(cfg)
    return compute_gating_report(bundle, cfg, tiny_data.test)


def test_report_shapes_and_ranges(report, tiny_cfg):
    d = tiny_cfg.dataset
    assert len(report.class_ratios) == d.n_classes
    assert all(0.0 <= r <= 1.0 for r in report.class_ratios)
    assert report.temporal_profiles.shape == (d.n_classes, d.timesteps)
    assert report.temporal_profiles.min() >= 0.0
    assert report.temporal_profiles.max() <= 1.0
    assert report.ratio_variance >= 0.0


def test_mean_and_variance_match_the_class_ratios(report):
    ratios = np.asarray(report.class_ratios)
    assert report.mean_ratio == pytest.approx(float(ratios.mean()))
    assert report.ratio_variance == pytest.approx(float(ratios.var()))


def test_fresh_selector_with_open_bias_gates_everything(report):
    # open_bias 2.0 and zero-init gate head: every gate starts open
    assert report.mean_ratio == 1.0
    assert report.ratio_variance == 0.0


def test_modes_without_gates_are_rejected(tiny_data):
    cfg = tiny_config("uniform")
    with pytest.raises(ContractError, match="no gates"):
        compute_gating_report(build_bundle(cfg), cfg, tiny_data.test)
    cfg2 = tiny_config("e2e")
    with pytest.raises(ContractError, match="at least one video"):
        compute_gating_report(build_bundle(cfg2), cfg2, [])


def test_profile_rows_are_min_max_normalized_or_flat(report):
    for row in report.temporal_profiles:
        if row.any():
            assert row.min() == 0.0 and row.max() == 1.0
        # a flat profile normalizes to all zeros, which the branch above skips


def test_csv_rendering(report, tiny_cfg):
    d = tiny_cfg.dataset
    lines = class_ratios_csv(report).splitlines()
    assert lines[0] == CLASS_RATIOS_HEADER
    assert len(lines) == 1 + d.n_classes
    assert lines[1] == "0,1.000000"

    lines = temporal_profile_csv(report).splitlines()
    assert lines[0] == TEMPORAL_PROFILE_HEADER
    assert len(lines) == 1 + d.n_classes * d.timesteps
    cls, pos, val = lines[1].split(",")
    assert (cls, pos) == ("0", "0")
    float(val)


def test_write_gating_report_emits_files(tmp_path, tiny_data):
    cfg = tiny_config("e2e")
    paths = write_gating_report(build_bundle(cfg), cfg, tiny_data.test, tmp_path / "out")
    assert set(paths) == {"class_ratios", "temporal_profile", "summary"}
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["mode"] == "e2e"
    assert summary["mean_ratio"] == pytest.approx(1.0)
    assert len(summary["class_ratios"]) == cfg.dataset.n_classes
    assert (tmp_path / "out" / "class_ratios.csv").read_text().startswith(
        CLASS_RATIOS_HEADER)
