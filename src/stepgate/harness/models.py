"""Model bundles: which parameter groups each experiment mode trains.

standalone          selector (context) + a light per-timestep head for phase A,
                    plus a heavy classifier fitted to the frozen selector.
e2e                 selector (context) + heavy classifier, trained jointly.
frame_conditioned   same as e2e with the attention layer removed.
scsampler           saliency scorer + heavy classifier on its top-k picks.
uniform / random    heavy classifier on fixed-rule samples; no selector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import MLP, Tensor
from ..baselines import ScorerParams
from ..classifier import ClassifierConfig, ClassifierParams
from ..errors import ContractError
from ..selector import SelectorConfig, SelectorParams
from .config import ExperimentConfig

LIGHT_HEAD_HIDDEN = 64


@dataclass
class ModelBundle:
    mode: str
    selector: SelectorParams | None = None
    light_head: MLP | None = None
    classifier: ClassifierParams | None = None
    scorer: ScorerParams | None = None

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        if self.selector is not None:
            out.update(self.selector.named_parameters("selector"))
        if self.light_head is not None:
            out.update(self.light_head.named_parameters("light_head"))
        if self.classifier is not None:
            out.update(self.classifier.named_parameters("classifier"))
        if self.scorer is not None:
            out.update(self.scorer.named_parameters("scorer"))
        return out


def build_bundle(config: ExperimentConfig) -> ModelBundle:
    """Fresh parameters for the config's mode, seeded from config.seed."""
    rng = np.random.default_rng(config.seed)
    d, m = config.dataset, config.model
    mode = config.mode

    def make_selector(context_mode: str) -> SelectorParams:
        scfg = SelectorConfig(channels=m.light_channels, n_kernels=m.n_kernels,
                              context_mode=context_mode, timesteps=d.timesteps)
        return SelectorParams.init(scfg, d.d_raw, rng, gate_hidden=m.gate_hidden,
                                   open_bias=m.open_bias)

    def make_classifier() -> ClassifierParams:
        ccfg = ClassifierConfig(channels=m.heavy_channels, n_classes=d.n_classes,
                                segment_len=m.segment_len)
        return ClassifierParams.init(ccfg, d.d_raw, rng)

    if mode == "standalone":
        return ModelBundle(
            mode=mode, selector=make_selector("context"),
            light_head=MLP.init(m.light_channels, LIGHT_HEAD_HIDDEN, d.n_classes, rng),
            classifier=make_classifier(),
        )
    if mode == "e2e":
        return ModelBundle(mode=mode, selector=make_selector("context"),
                           classifier=make_classifier())
    if mode == "frame_conditioned":
        return ModelBundle(mode=mode, selector=make_selector("frame"),
                           classifier=make_classifier())
    if mode == "scsampler":
        return ModelBundle(
            mode=mode,
            scorer=ScorerParams.init(d.d_raw, m.light_channels, d.n_classes, rng),
            classifier=make_classifier(),
        )
    if mode in ("uniform", "random"):
        return ModelBundle(mode=mode, classifier=make_classifier())
    raise ContractError(f"unhandled mode {mode!r}")


def training_sample_budget(config: ExperimentConfig) -> int:
    """Timesteps the selector-free arms feed the classifier during training.

    Defaults to a quarter of the sequence, in the ballpark of the synthetic
    relevant fraction, when the config leaves it unset.
    """
    if config.training.sample_budget is not None:
        return config.training.sample_budget
    return max(1, round(config.dataset.timesteps / 4))
