"""Per-timestep gating: concept similarity, a gate MLP, and noisy thresholding.

All B*T timesteps of a stack of B videos are gated at once, their rows
video after video.  Each timestep feature (a row of a B*T x C matrix) is
compared against the learned concept kernels (an n_kernels x C tensor), a
two-layer ``autodiff.MLP`` reduces each similarity row to a single logit,
and the (B*T, 1) logit column is turned into B*T gate values by a noisy
clipped sigmoid.  Nothing here mixes rows, so every function takes any
number of them.  The kernels and the gate MLP live in
``selector.SelectorParams``.

During training the activation is ``a = clip(sigmoid(logit + G))`` where
``G`` is ``Generator.logistic``'s Logistic(0, 1) draw, the law of a difference
of two independent Gumbel(0, 1) draws, and the clip zeroes everything at or
below 1/2.  Because the noise is logistic, the probability that a gate opens
is exactly ``sigmoid(logit)``.  At test time the noise is dropped and the
clipped sigmoid becomes a hard step: open iff the logit is positive.

The train-time activation is one tape op, ``autodiff.noisy_gate``.  Its
backward treats the clip indicator as a constant, so gradient flows through
the sigmoid only for open gates and closed gates contribute exactly zero.

Training steers the gates to a compute budget with a rate term, one
``autodiff`` loss op on the open probabilities ``sigmoid(logit)``, so closed
gates get its gradient too.

``similarity_batch`` and ``gate_logits_batch`` are one op each (which checks
the shapes), kept only because ``perfbench/layers.py`` times them by name.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import MLP, Tensor


# ---------------------------------------------------------------------------
# similarity and logits


def similarity_batch(features: Tensor, kernels: Tensor) -> Tensor:
    """(N, C) features against (n_kernels, C) concept kernels, ``X @ K.T``."""
    return ad.matmul_t(features, kernels)


def gate_logits_batch(similarities: Tensor, mlp: MLP) -> Tensor:
    """(N, n_kernels) similarities to an (N, 1) column of gate logits."""
    return mlp(similarities)


# ---------------------------------------------------------------------------
# activation


def activate_train_batch(alphas: Tensor, noises: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Noisy clipped-sigmoid activation of a logit tensor.

    Returns the flat activated tensor and the flat open mask.  Values land
    in {0} or (1/2, 1]; an exact 1/2 closes the gate.  The threshold
    ``sigmoid(z) > 1/2`` is evaluated as ``z > 0`` so that it stays exact
    where the sigmoid itself rounds to 1/2.  The clip mask is constant for
    backward, so gradient reaches ``alphas`` only through open gates.
    """
    value = ad.noisy_gate(alphas, noises)
    # an open gate's value is sigmoid(z) >= 1/2 and a closed one's is 0
    return value, value.data > 0.0


def step_open(logits: np.ndarray) -> np.ndarray:
    """The test-time open mask of an array of gate logits, in its shape: a
    gate opens iff its logit is positive."""
    return logits > 0.0


def activate_test_batch(alphas: Tensor) -> tuple[Tensor, np.ndarray]:
    """Deterministic step activation, flat: ``step_open`` of the logits, as
    0/1 values in the logits' dtype."""
    open_mask = step_open(alphas.data.reshape(-1))
    return Tensor(open_mask.astype(alphas.data.dtype)), open_mask

