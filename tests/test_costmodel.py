import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stepgate.costmodel as cm
from stepgate.autodiff import MLP, Tensor
from stepgate.baselines import ScorerParams
from stepgate.classifier import ClassifierParams
from stepgate.errors import ContractError, DomainError
from stepgate.harness.config import ExperimentConfig
from stepgate.harness.evaluation import cost_registry, cost_registry_for
from stepgate.harness.models import ModelBundle
from stepgate.selector import SelectorParams

# The paper's budget table, kept as test data: per-timestep GFLOPs derived
# from the published 16-timestep budgets (light stages over 128 timesteps)
# and, for the dense baselines, from the 64-timestep budgets.  The published
# 64-timestep totals are not four times the 16-timestep ones (the gap reaches
# 7.4 GFLOPs for S3D), so dense runs get their own rates.
PAPER_RATES = {
    "light_gating": 7.8 / 128,
    "scsampler_light": 7.5 / 128,
    "r2d": 61.7 / 16,
    "s3d": 17.3 / 16,
    "i3d": 207.8 / 16,
    "r2d_dense": 246.6 / 64,
    "s3d_dense": 61.8 / 64,
    "i3d_dense": 830.7 / 64,
}

# budget table cells: (n_light, light tag, n_heavy, heavy tag, total GFLOPs)
PAPER_BUDGETS = [
    (0, None, 64, "r2d_dense", 246.6),
    (128, "scsampler_light", 16, "r2d", 69.2),
    (128, "light_gating", 16, "r2d", 69.5),
    (0, None, 64, "s3d_dense", 61.8),
    (128, "scsampler_light", 16, "s3d", 24.8),
    (128, "light_gating", 16, "s3d", 25.1),
    (0, None, 64, "i3d_dense", 830.7),
    (128, "scsampler_light", 16, "i3d", 215.3),
    (128, "light_gating", 16, "i3d", 215.6),
]

LIGHT = PAPER_RATES["light_gating"]
I3D = PAPER_RATES["i3d"]
# the paper's per-timestep rates hold the classification head, so the calls
# below charge no separate per-video head rate


@pytest.fixture(scope="module")
def registry():
    return cm.CostRegistry(rates=PAPER_RATES)


def test_every_published_total_within_rounding_slack(registry):
    for n_light, light_tag, n_heavy, heavy_tag, total in PAPER_BUDGETS:
        light_rate = registry.rate(light_tag) if light_tag else 0.0
        rep = cm.pipeline_cost(n_light, n_heavy, light_rate, registry.rate(heavy_tag),
                               0.0)
        assert abs(rep.total_gflops - total) < 0.15, (heavy_tag, n_heavy)


def test_gated_i3d_budget_splits_as_published():
    rep = cm.pipeline_cost(128, 16, LIGHT, I3D, 0.0)
    assert (round(rep.light_gflops, 1), round(rep.heavy_gflops, 1),
            round(rep.total_gflops, 1)) == (7.8, 207.8, 215.6)


def test_light_only_and_heavy_only_cases():
    light_only = cm.pipeline_cost(128, 0, LIGHT, I3D, 0.0)
    assert light_only.heavy_gflops == 0.0
    assert light_only.total_gflops == light_only.light_gflops
    dense = cm.pipeline_cost(0, 64, LIGHT, PAPER_RATES["i3d_dense"], 0.0)
    assert dense.light_gflops == 0.0


def test_total_is_exact_sum():
    rep = cm.pipeline_cost(100, 25, LIGHT, PAPER_RATES["s3d"], 0.0)
    assert rep.total_gflops == rep.light_gflops + rep.heavy_gflops


@settings(max_examples=40, deadline=None)
@given(n_light=st.integers(min_value=0, max_value=4096),
       n_heavy=st.integers(min_value=0, max_value=4096),
       scale=st.integers(min_value=1, max_value=7))
def test_cost_is_linear_in_both_counts(n_light, n_heavy, scale):
    n_light = max(n_light, n_heavy)  # keep the light stage covering
    base = cm.pipeline_cost(n_light, n_heavy, LIGHT, I3D, 0.0)
    scaled = cm.pipeline_cost(n_light * scale, n_heavy * scale, LIGHT, I3D, 0.0)
    assert math.isclose(scaled.light_gflops, scale * base.light_gflops,
                        rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(scaled.heavy_gflops, scale * base.heavy_gflops,
                        rel_tol=1e-12, abs_tol=1e-12)


def test_cost_errors(registry):
    with pytest.raises(DomainError):
        registry.rate("vgg")
    with pytest.raises(DomainError):
        cm.pipeline_cost(-1, 0, LIGHT, I3D, 0.0)
    with pytest.raises(ContractError):
        cm.pipeline_cost(8, 16, LIGHT, I3D, 0.0)  # light stage smaller than heavy
    with pytest.raises(DomainError):
        cm.CostRegistry(rates={"x": 0.0})


def test_registry_entries_positive(registry):
    assert all(rate > 0 for rate in registry.rates.values())
    assert registry.rate("i3d") == I3D


# ---------------------------------------------------------------------------
# tradeoff table


def test_single_point_single_row():
    rep = cm.pipeline_cost(128, 16, LIGHT, I3D, 0.0)
    rows = cm.tradeoff_rows([("gated", rep, 0.85)])
    assert rows == ["gated,16,215.6,0.8500"]


def test_rows_sorted_ascending_by_gflops():
    reps = [cm.pipeline_cost(128, k, LIGHT, I3D, 0.0) for k in (32, 8, 16)]
    rows = cm.tradeoff_rows([("a", reps[0], 0.9), ("b", reps[1], 0.7),
                             ("c", reps[2], 0.8)])
    budgets = [float(r.split(",")[2]) for r in rows]
    assert budgets == sorted(budgets)
    assert [r.split(",")[1] for r in rows] == ["8", "16", "32"]
    assert [r.split(",")[0] for r in rows] == ["b", "c", "a"]


def test_equal_gflops_sort_by_method():
    rep = cm.pipeline_cost(0, 8, LIGHT, I3D, 0.0)
    rows = cm.tradeoff_rows([("uniform/topk-8", rep, 0.5),
                             ("random/topk-8", rep, 0.4)])
    assert [r.split(",")[0] for r in rows] == ["random/topk-8", "uniform/topk-8"]


def test_paper_seeded_demo_rows():
    gated = cm.pipeline_cost(128, 16, LIGHT, I3D, 0.0)
    dense = cm.pipeline_cost(0, 64, LIGHT, PAPER_RATES["i3d_dense"], 0.0)
    rows = cm.tradeoff_rows([("dense", dense, 0.857), ("gated", gated, 0.852)])
    assert rows[0].startswith("gated,16,215.6,")
    assert rows[1].startswith("dense,64,830.7,")


def test_runs_of_one_method_merge_in_any_order():
    a = cm.pipeline_cost(128, 16, LIGHT, I3D, 0.0)
    b = cm.pipeline_cost(128, 8, LIGHT, I3D, 0.0)
    # equal gflops and method sort by metric, then by heavy timesteps
    c = dataclasses.replace(b, n_heavy=7)
    runs = [("e2e/gate-count", a, 0.1), ("e2e/gate-count", b, 0.3),
            ("e2e/gate-count", b, 0.2), ("e2e/gate-count", c, 0.2)]
    rows = cm.tradeoff_rows(runs)
    assert rows == ["e2e/gate-count,7,111.7,0.2000", "e2e/gate-count,8,111.7,0.2000",
                    "e2e/gate-count,8,111.7,0.3000", "e2e/gate-count,16,215.6,0.1000"]
    assert all(cm.tradeoff_rows(order) == rows for order in itertools.permutations(runs))


def test_csv_has_header_and_newline_termination():
    rep = cm.pipeline_cost(128, 16, LIGHT, PAPER_RATES["s3d"], 0.0)
    text = cm.tradeoff_csv([("gated", rep, 0.66)])
    lines = text.split("\n")
    assert lines[0] == "method,n_heavy_timesteps,gflops,metric"
    assert text.endswith("\n")
    assert lines[1] == "gated,16,25.1,0.6600"


# ---------------------------------------------------------------------------
# desk stand-in counting: rates read off the weights' shapes


def _hand_bundle(stage: str, attention: bool = True) -> ModelBundle:
    """A bundle with hand-sized widths: d_raw 3, light hidden 8, C 2, 6
    kernels, gate hidden 4, 2-frame slots, heavy hidden 10, heavy channels 2,
    head hidden 7, 3 classes.  Its light stage is the selector (with or
    without attention) or the scorer."""
    rng = np.random.default_rng(0)
    classifier = ClassifierParams(enc=MLP.init(2 * 3, 10, 2, rng),
                                  head=MLP.init(2, 7, 3, rng))
    if stage == "scorer":
        return ModelBundle(classifier=classifier, scorer=ScorerParams(
            enc=MLP.init(3, 8, 2, rng), head_w=Tensor(np.zeros((2, 3))),
            head_b=Tensor(np.zeros(3))))
    attn = [Tensor(np.zeros((2, 2))) if attention else None for _ in range(3)]
    return ModelBundle(classifier=classifier, selector=SelectorParams(
        enc=MLP.init(3, 8, 2, rng), attn_q=attn[0], attn_k=attn[1], attn_v=attn[2],
        kernels=Tensor(np.zeros((6, 2))), gate=MLP.init(6, 4, 1, rng)))


def test_desk_rates_hand_count():
    # light: 3*8 + 8*2 (encoder) + 3*4 + 2*5*2 (attention) + 6*2 (kernels)
    #        + 6*4 + 4 (gate) = 24+16+12+20+12+24+4 = 112
    # scorer: 3*8 + 8*2 (encoder) + 2*3 (linear head) = 46
    # heavy, per row: 2*3*10 + 10*2 (encoder) = 60+20 = 80
    # head, per video: 2*7 + 7*3 = 14+21 = 35
    got = cost_registry(_hand_bundle("selector"), 5)
    scorer = cost_registry(_hand_bundle("scorer"), 5)
    assert got.rate("desk_light") * cm.GFLOP == pytest.approx(112, abs=1e-9)
    assert scorer.rate("desk_light") * cm.GFLOP == pytest.approx(46, abs=1e-9)
    assert got.rate("desk_heavy") * cm.GFLOP == pytest.approx(80, abs=1e-9)
    assert got.rate("desk_head") * cm.GFLOP == pytest.approx(35, abs=1e-9)


def test_desk_rates_frame_mode_drops_attention_terms():
    ctx = cost_registry(_hand_bundle("selector", attention=True), 5)
    frame = cost_registry(_hand_bundle("selector", attention=False), 5)
    diff = (ctx.rate("desk_light") - frame.rate("desk_light")) * cm.GFLOP
    assert diff == pytest.approx(3 * 2 * 2 + 2 * 5 * 2, abs=1e-9)


def test_desk_rates_register_into_registry():
    registry = cost_registry_for(ExperimentConfig())
    assert set(registry.rates) == {"desk_light", "desk_heavy", "desk_head"}
    rep = cm.pipeline_cost(32, 8, registry.rate("desk_light"),
                           registry.rate("desk_heavy"), registry.rate("desk_head"))
    assert rep.total_gflops > 0
    with pytest.raises(DomainError):
        MLP.init(0, 64, 16, np.random.default_rng(0))
