import math

import pytest
from hypothesis import given, settings, strategies as st

import stepgate.costmodel as cm
from stepgate.errors import ContractError, DomainError

# budget table cells: (n_light, light tag, n_heavy, heavy tag, total GFLOPs)
PUBLISHED = [
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


@pytest.fixture(scope="module")
def registry():
    return cm.CostRegistry.published()


def test_every_published_total_within_rounding_slack(registry):
    for n_light, light_tag, n_heavy, heavy_tag, total in PUBLISHED:
        rep = cm.pipeline_cost(n_light, n_heavy, heavy_tag, registry,
                               light_model=light_tag or "light_gating")
        assert abs(rep.total_gflops - total) < 0.15, (heavy_tag, n_heavy)


def test_named_published_reports_cover_the_table(registry):
    for name, n_light, light_tag, n_heavy, heavy_tag, total in cm.PUBLISHED_BUDGETS:
        rep = cm.published_report(name, registry)
        assert rep.n_light == n_light and rep.n_heavy == n_heavy
        assert abs(rep.total_gflops - total) < 0.15
    with pytest.raises(DomainError):
        cm.published_report("vgg_64")


def test_gated_i3d_budget_splits_as_published(registry):
    rep = cm.pipeline_cost(128, 16, "i3d", registry)
    assert rep.rounded() == (7.8, 207.8, 215.6)


def test_light_only_and_heavy_only_cases(registry):
    light_only = cm.pipeline_cost(128, 0, "i3d", registry)
    assert light_only.heavy_gflops == 0.0
    assert light_only.total_gflops == light_only.light_gflops
    dense = cm.pipeline_cost(0, 64, "i3d_dense", registry)
    assert dense.light_gflops == 0.0


def test_total_is_exact_sum(registry):
    rep = cm.pipeline_cost(100, 25, "s3d", registry)
    assert rep.total_gflops == rep.light_gflops + rep.heavy_gflops


@settings(max_examples=40, deadline=None)
@given(n_light=st.integers(min_value=0, max_value=4096),
       n_heavy=st.integers(min_value=0, max_value=4096),
       scale=st.integers(min_value=1, max_value=7))
def test_cost_is_linear_in_both_counts(n_light, n_heavy, scale):
    registry = cm.CostRegistry.published()
    n_light = max(n_light, n_heavy)  # keep the light stage covering
    base = cm.pipeline_cost(n_light, n_heavy, "i3d", registry)
    scaled = cm.pipeline_cost(n_light * scale, n_heavy * scale, "i3d", registry)
    assert math.isclose(scaled.light_gflops, scale * base.light_gflops,
                        rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(scaled.heavy_gflops, scale * base.heavy_gflops,
                        rel_tol=1e-12, abs_tol=1e-12)


def test_cost_errors(registry):
    with pytest.raises(DomainError):
        cm.pipeline_cost(128, 16, "vgg", registry)
    with pytest.raises(DomainError):
        cm.pipeline_cost(-1, 0, "i3d", registry)
    with pytest.raises(ContractError):
        cm.pipeline_cost(8, 16, "i3d", registry)  # light stage smaller than heavy
    with pytest.raises(DomainError):
        cm.CostRegistry(rates={"x": 0.0})


def test_registry_entries_positive_and_extensible(registry):
    assert all(rate > 0 for rate in registry.rates.values())
    extended = registry.with_entries({"toy": 0.5})
    assert extended.rate("toy") == 0.5
    assert "toy" not in registry.rates


# ---------------------------------------------------------------------------
# tradeoff table


def test_single_point_single_row(registry):
    rep = cm.pipeline_cost(128, 16, "i3d", registry)
    rows = cm.tradeoff_rows([("gated", rep, 0.85)])
    assert rows == ["gated,i3d,16,215.6,0.8500"]


def test_rows_sorted_ascending_by_gflops(registry):
    reps = [cm.pipeline_cost(128, k, "i3d", registry) for k in (32, 8, 16)]
    rows = cm.tradeoff_rows([("a", reps[0], 0.9), ("b", reps[1], 0.7),
                             ("c", reps[2], 0.8)])
    budgets = [float(r.split(",")[3]) for r in rows]
    assert budgets == sorted(budgets)
    assert [r.split(",")[2] for r in rows] == ["8", "16", "32"]
    assert [r.split(",")[0] for r in rows] == ["b", "c", "a"]


def test_equal_gflops_sort_by_method(registry):
    rep = cm.pipeline_cost(0, 8, "i3d", registry)
    rows = cm.tradeoff_rows([("uniform/topk-8", rep, 0.5),
                             ("random/topk-8", rep, 0.4)])
    assert [r.split(",")[0] for r in rows] == ["random/topk-8", "uniform/topk-8"]


def test_paper_seeded_demo_rows(registry):
    gated = cm.pipeline_cost(128, 16, "i3d", registry)
    dense = cm.pipeline_cost(0, 64, "i3d_dense", registry)
    rows = cm.tradeoff_rows([("dense", dense, 0.857), ("gated", gated, 0.852)])
    assert rows[0].startswith("gated,i3d,16,215.6,")
    assert rows[1].startswith("dense,i3d_dense,64,830.7,")


def test_duplicate_methods_rejected(registry):
    a = cm.pipeline_cost(128, 16, "i3d", registry)
    b = cm.pipeline_cost(128, 8, "i3d", registry)
    with pytest.raises(DomainError, match="methods must be distinct"):
        cm.tradeoff_rows([("e2e/gate-count", a, 0.1), ("e2e/gate-count", b, 0.2)])


def test_csv_has_header_and_newline_termination(registry):
    rep = cm.pipeline_cost(128, 16, "s3d", registry)
    text = cm.tradeoff_csv([("gated", rep, 0.66)])
    lines = text.split("\n")
    assert lines[0] == "method,model,n_heavy_timesteps,gflops,metric"
    assert text.endswith("\n")
    assert lines[1] == "gated,s3d,16,25.1,0.6600"


# ---------------------------------------------------------------------------
# desk stand-in counting


def test_desk_flops_hand_count():
    # light: 3*8 + 8*2 (encoder) + 3*4 + 2*5*2 (attention) + 6*2 (kernels)
    #        + 6*4 + 4 (gate) = 24+16+12+20+12+24+4 = 112
    # heavy: 2*3*10 + 10*2*1*2 (encoder) + 2*7 + 7*3 (head) = 60+40+14+21 = 135
    got = cm.desk_flops(d_raw=3, light_channels=2, n_kernels=6, gate_hidden=4,
                        timesteps=5, segment_len=2, heavy_channels=2,
                        height=1, width=2, heavy_hidden=10, head_hidden=7,
                        n_classes=3, light_hidden=8)
    assert got["desk_light"] * cm.GFLOP == pytest.approx(112, abs=1e-9)
    assert got["desk_heavy"] * cm.GFLOP == pytest.approx(135, abs=1e-9)


def test_desk_flops_frame_mode_drops_attention_terms():
    kwargs = dict(d_raw=3, light_channels=2, n_kernels=6, gate_hidden=4,
                  timesteps=5, segment_len=2, heavy_channels=2, height=1,
                  width=2, heavy_hidden=10, head_hidden=7, n_classes=3,
                  light_hidden=8)
    ctx = cm.desk_flops(context_mode="context", **kwargs)
    frame = cm.desk_flops(context_mode="frame", **kwargs)
    diff = (ctx["desk_light"] - frame["desk_light"]) * cm.GFLOP
    assert diff == pytest.approx(3 * 2 * 2 + 2 * 5 * 2, abs=1e-9)


def test_desk_flops_registers_into_registry(registry):
    entries = cm.desk_flops(d_raw=32, light_channels=16, n_kernels=32,
                            gate_hidden=16, timesteps=32, segment_len=8,
                            heavy_channels=32, height=1, width=1,
                            heavy_hidden=128, head_hidden=256, n_classes=10)
    ext = registry.with_entries(entries)
    rep = cm.pipeline_cost(32, 8, "desk_heavy", ext, light_model="desk_light")
    assert rep.total_gflops > 0
    with pytest.raises(DomainError):
        cm.desk_flops(d_raw=0, light_channels=16, n_kernels=32, gate_hidden=16,
                      timesteps=32, segment_len=8, heavy_channels=32, height=1,
                      width=1, heavy_hidden=128, head_hidden=256, n_classes=10)
