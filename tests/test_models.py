import math

import numpy as np
import pytest

from conftest import tiny_config
from stepgate.classifier import HEAD_HIDDEN, HEAVY_HIDDEN
from stepgate.harness.config import MODES
from stepgate.harness.models import (LIGHT_HEAD_HIDDEN, ModelBundle,
                                     build_bundle, training_sample_budget)
from stepgate.selector import LIGHT_HIDDEN


@pytest.mark.parametrize("mode,groups", [
    ("standalone", {"selector", "light_head", "classifier"}),
    ("e2e", {"selector", "classifier"}),
    ("frame_conditioned", {"selector", "classifier"}),
    ("scsampler", {"scorer", "classifier"}),
    ("uniform", {"classifier"}),
    ("random", {"classifier"}),
])
def test_bundle_holds_the_mode_parameter_groups(mode, groups):
    bundle = build_bundle(tiny_config(mode))
    present = {name for name in ("selector", "light_head", "classifier", "scorer")
               if getattr(bundle, name) is not None}
    assert present == groups
    prefixes = {name.split(".")[0] for name in bundle.named_parameters()}
    assert prefixes == groups


def _mlp_draw(rng, prefix, n_in, hidden, n_out, out_bias=0.0):
    """A two-layer network's parameters: w1 then w2, at 1/sqrt(fan-in)."""
    w1 = (1.0 / math.sqrt(n_in)) * rng.standard_normal((n_in, hidden))
    w2 = (1.0 / math.sqrt(hidden)) * rng.standard_normal((hidden, n_out))
    return {f"{prefix}.w1": w1, f"{prefix}.b1": np.zeros(hidden),
            f"{prefix}.w2": w2, f"{prefix}.b2": np.full(n_out, out_bias)}


def _expected_parameters(cfg):
    """Every parameter of ``build_bundle(cfg)``, redrawn from the config seed
    in the documented order and scales: selector (q/k/v in context mode, light
    encoder, kernels, gate), then the light head or the scorer, then the
    classifier (encoder, head).  Names come in ``named_parameters`` order,
    where the scorer follows the classifier."""
    rng = np.random.default_rng(cfg.seed)
    d, m = cfg.dataset, cfg.model
    c = m.light_channels
    out = {}
    if cfg.mode in ("standalone", "e2e", "frame_conditioned"):
        attn = {}
        if cfg.mode != "frame_conditioned":
            for name in ("attn_q", "attn_k", "attn_v"):
                attn[f"selector.{name}"] = (1.0 / math.sqrt(c)) * rng.standard_normal((c, c))
        out.update(_mlp_draw(rng, "selector.enc", d.d_raw, LIGHT_HIDDEN, c))
        out.update(attn)
        out["selector.kernels"] = (1.0 / math.sqrt(c)) * rng.standard_normal((m.n_kernels, c))
        out.update(_mlp_draw(rng, "selector.gate", m.n_kernels, m.gate_hidden, 1,
                             out_bias=m.open_bias))
    if cfg.mode == "standalone":
        out.update(_mlp_draw(rng, "light_head", c, LIGHT_HEAD_HIDDEN, d.n_classes))
    scorer = {}
    if cfg.mode == "scsampler":
        scorer = _mlp_draw(rng, "scorer.enc", d.d_raw, LIGHT_HIDDEN, c)
        scorer["scorer.head_w"] = np.zeros((c, d.n_classes))
        scorer["scorer.head_b"] = np.zeros(d.n_classes)
    h = m.heavy_channels
    out.update(_mlp_draw(rng, "classifier.enc", d.frames_per_slot * d.d_raw, HEAVY_HIDDEN, h))
    out.update(_mlp_draw(rng, "classifier.head", h, HEAD_HIDDEN, d.n_classes))
    out.update(scorer)
    return out


@pytest.mark.parametrize("mode", MODES)
def test_parameters_follow_the_documented_draws(mode):
    """The weights are the float64 draws rounded to float32, exactly."""
    cfg = tiny_config(mode, seed=5, **{"model.open_bias": -1.5})
    got = {name: t.data for name, t in build_bundle(cfg).named_parameters().items()}
    want = _expected_parameters(cfg)
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == np.float32, name
        assert np.array_equal(got[name], want[name].astype(np.float32)), name


def test_parameter_names_of_every_mode():
    """The checkpoint's names, in block order: a tensor's dotted field path
    in ``ModelBundle``."""
    selector = [
        "selector.enc.w1", "selector.enc.b1", "selector.enc.w2", "selector.enc.b2",
        "selector.attn_q", "selector.attn_k", "selector.attn_v", "selector.kernels",
        "selector.gate.w1", "selector.gate.b1", "selector.gate.w2", "selector.gate.b2",
    ]
    classifier = [
        "classifier.enc.w1", "classifier.enc.b1", "classifier.enc.w2", "classifier.enc.b2",
        "classifier.head.w1", "classifier.head.b1", "classifier.head.w2", "classifier.head.b2",
    ]
    want = {
        "standalone": [
            *selector,
            "light_head.w1", "light_head.b1", "light_head.w2", "light_head.b2",
            *classifier,
        ],
        "e2e": [*selector, *classifier],
        "frame_conditioned": [
            "selector.enc.w1", "selector.enc.b1", "selector.enc.w2", "selector.enc.b2",
            "selector.kernels",
            "selector.gate.w1", "selector.gate.b1", "selector.gate.w2", "selector.gate.b2",
            *classifier,
        ],
        "scsampler": [
            *classifier,
            "scorer.enc.w1", "scorer.enc.b1", "scorer.enc.w2", "scorer.enc.b2",
            "scorer.head_w", "scorer.head_b",
        ],
        "uniform": classifier,
        "random": classifier,
    }
    assert set(want) == set(MODES)
    for mode, names in want.items():
        assert list(build_bundle(tiny_config(mode)).named_parameters()) == names, mode


def test_context_mode_follows_the_experiment_mode():
    # the selector attends across timesteps iff it holds attention projections
    for mode, attends in (("e2e", True), ("frame_conditioned", False),
                          ("standalone", True)):
        assert (build_bundle(tiny_config(mode)).selector.attn_q is not None) == attends


def test_build_is_deterministic_per_seed():
    a = build_bundle(tiny_config("e2e"))
    b = build_bundle(tiny_config("e2e"))
    for (na, ta), (nb, tb) in zip(a.named_parameters().items(),
                                  b.named_parameters().items()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    c = build_bundle(tiny_config("e2e", seed=1))
    flat = np.concatenate([t.data.ravel() for t in a.named_parameters().values()])
    flat_c = np.concatenate([t.data.ravel() for t in c.named_parameters().values()])
    assert not np.array_equal(flat, flat_c)


def test_parameter_names_are_unique_and_prefixed():
    names = list(build_bundle(tiny_config("standalone")).named_parameters())
    assert len(names) == len(set(names))
    assert all("." in n for n in names)


def test_training_sample_budget_default_and_override():
    cfg = tiny_config("uniform")
    assert training_sample_budget(cfg) == max(1, round(cfg.dataset.timesteps / 4))
    cfg.training.sample_budget = 5
    assert training_sample_budget(cfg) == 5


def test_empty_bundle_has_no_parameters():
    assert ModelBundle().named_parameters() == {}
