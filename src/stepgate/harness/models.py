"""Model bundles: which parameter groups each experiment mode trains.

A bundle holds weights only; its mode is ``ExperimentConfig.mode``.

standalone          selector (context) + a light head on pooled features for phase A,
                    plus a heavy classifier fitted to the frozen selector.
e2e                 selector (context) + heavy classifier, trained jointly.
frame_conditioned   same as e2e with the attention layer removed.
scsampler           saliency scorer + heavy classifier on its top-k picks.
uniform / random    heavy classifier on fixed-rule samples; no selector.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from ..autodiff import MLP, Tensor
from ..baselines import ScorerParams
from ..classifier import ClassifierParams
from ..errors import ContractError
from ..selector import SelectorParams
from .config import ExperimentConfig

LIGHT_HEAD_HIDDEN = 64


def named_tensors(group, prefix: str = "") -> dict[str, Tensor]:
    """Every tensor of a dataclass of parameters (a bundle, or one group such
    as ``bundle.selector``), named ``prefix`` + its dotted field path, in
    field order.  A dataclass field is walked into; a ``None`` group or
    projection and a plain number such as ``heavy_rows`` are skipped."""
    out: dict[str, Tensor] = {}
    for f in fields(group):
        value = getattr(group, f.name)
        if isinstance(value, Tensor):
            out[prefix + f.name] = value
        elif is_dataclass(value):
            out.update(named_tensors(value, f"{prefix}{f.name}."))
    return out


@dataclass
class ModelBundle:
    selector: SelectorParams | None = None
    light_head: MLP | None = None
    classifier: ClassifierParams | None = None
    scorer: ScorerParams | None = None

    def named_parameters(self) -> dict[str, Tensor]:
        """Every tensor by its dotted field path (``selector.enc.w1``) in
        field order: the checkpoint's names and block order."""
        return named_tensors(self)


def build_bundle(config: ExperimentConfig, dtype=np.float32) -> ModelBundle:
    """Fresh parameters for the config's mode, seeded from config.seed.

    The draws are float64; the weights store them rounded to ``dtype``.
    float32, the dtype of the stored frames, is what every model computes
    in; the gradient suite asks for float64.
    """
    bundle = _draw_bundle(config)
    for t in bundle.named_parameters().values():
        t.data = t.data.astype(dtype, copy=False)
        t.grad = np.zeros_like(t.data)
    return bundle


def _draw_bundle(config: ExperimentConfig) -> ModelBundle:
    rng = np.random.default_rng(config.seed)
    d, m = config.dataset, config.model
    mode = config.mode

    def make_selector(attention: bool) -> SelectorParams:
        return SelectorParams.init(d.d_raw, m.light_channels, m.n_kernels, m.gate_hidden,
                                   m.open_bias, attention, rng)

    def make_classifier() -> ClassifierParams:
        return ClassifierParams.init(d.d_raw, d.frames_per_slot, m.heavy_channels,
                                     d.n_classes, rng)

    if mode == "standalone":
        return ModelBundle(
            selector=make_selector(True),
            light_head=MLP.init(m.light_channels, LIGHT_HEAD_HIDDEN, d.n_classes, rng),
            classifier=make_classifier(),
        )
    if mode in ("e2e", "frame_conditioned"):
        return ModelBundle(selector=make_selector(mode == "e2e"), classifier=make_classifier())
    if mode == "scsampler":
        return ModelBundle(
            scorer=ScorerParams.init(d.d_raw, m.light_channels, d.n_classes, rng),
            classifier=make_classifier(),
        )
    if mode in ("uniform", "random"):
        return ModelBundle(classifier=make_classifier())
    raise ContractError(f"unhandled mode {mode!r}")


def training_sample_budget(config: ExperimentConfig) -> int:
    """Every arm's training budget in timesteps: the rows the selector-free
    arms feed the classifier, and over T the open rate the gated arms' rate
    term steers to.

    Defaults to a quarter of the sequence, in the ballpark of the synthetic
    relevant fraction, when the config leaves it unset.
    """
    if config.training.sample_budget is not None:
        return config.training.sample_budget
    return max(1, round(config.dataset.timesteps / 4))
