"""Binary checkpoints: a bundle's parameters, its config and its step count.

Format version 5, in the shared container (``stepgate.container``): magic
``SGCK`` | u32 version | u32 header length | u32 CRC-32 | JSON header |
float64 little-endian blocks.  The header holds the config, the step and
the parameter names and shapes in block order; one block per parameter
follows.  The weights are float32 (``build_bundle``), which the float64
blocks hold exactly; ``Checkpoint.bundle`` rounds a stored value to float32,
so a block with more precision, as written when the weights were float64,
loads rounded.
A name is the tensor's field path in ``ModelBundle`` (``selector.enc.w1``,
``scorer.head_w``), in ``ModelBundle.named_parameters`` order.  Older
versions are rejected; version 4 weights fed each row to the head before
the pool.  The header JSON is canonical (sorted keys, no whitespace) so
save -> load -> save reproduces the file byte for byte.
``load_checkpoint`` reads each block straight into its parameter's array.
``Checkpoint.bundle`` is the one way from stored weights to a model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import container
from ..errors import ContractError, FormatError
from .config import ExperimentConfig, config_from_dict
from .models import ModelBundle, build_bundle

MAGIC = b"SGCK"
FORMAT_VERSION = 5
# the weights are float32: a stored value at or past this bound rounds to inf
_FLOAT32_BOUND = 2.0 ** 128 - 2.0 ** 103


@dataclass
class Checkpoint:
    config: dict
    step: int
    params: dict[str, np.ndarray]

    @classmethod
    def from_bundle(cls, config: ExperimentConfig, bundle: ModelBundle,
                    step: int) -> "Checkpoint":
        params = {k: t.data.copy() for k, t in bundle.named_parameters().items()}
        return cls(config=config.to_dict(), step=int(step), params=params)

    def experiment_config(self) -> ExperimentConfig:
        return config_from_dict(self.config)

    def bundle(self, config: ExperimentConfig) -> ModelBundle:
        """``config``'s freshly built bundle, filled with the stored values;
        names and shapes must match exactly."""
        bundle = build_bundle(config)
        named = bundle.named_parameters()
        if set(named) != set(self.params):
            missing = sorted(set(self.params) - set(named))
            extra = sorted(set(named) - set(self.params))
            raise ContractError(
                f"parameter names do not line up (checkpoint-only: {missing}, "
                f"bundle-only: {extra})"
            )
        for name, tensor in named.items():
            stored = self.params[name]
            if stored.shape != tensor.data.shape:
                raise ContractError(
                    f"{name} has shape {tensor.data.shape}, checkpoint holds {stored.shape}"
                )
            tensor.data[...] = stored
        return bundle


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "config": ckpt.config,
        "step": ckpt.step,
        "entries": [[n, list(a.shape)] for n, a in ckpt.params.items()],
    }
    body = [np.ascontiguousarray(a, dtype="<f8") for a in ckpt.params.values()]
    container.write(path, MAGIC, FORMAT_VERSION, header, body)


def checkpoint_layout(header: dict) -> list:
    """The body an SGCK header implies (``container.read``'s layout): one
    block per entry.  Checks the version and config, requires the step to be
    an int, and makes the names strings."""
    if int(header["format_version"]) != FORMAT_VERSION:
        raise ValueError("header version disagrees with the container")
    if not isinstance(header["config"], dict):
        raise TypeError("the config is not a JSON object")
    container.int_field(header, "step")
    header["entries"] = [[str(n), dims] for n, dims in header["entries"]]
    return [("<f8", dims) for _, dims in header["entries"]]


def load_checkpoint(path) -> Checkpoint:
    """Read one checkpoint, each block straight into its parameter's array.
    A file not written intact, or holding a weight that is not finite as a
    float32, raises ``FormatError``."""
    header, blocks = container.read(path, MAGIC, FORMAT_VERSION, "checkpoint",
                                    checkpoint_layout)
    params = {name: block for (name, _), block in zip(header["entries"], blocks)}
    for name, block in params.items():
        # min and max propagate NaN, so no block-sized mask is needed
        if block.size and not -_FLOAT32_BOUND < block.min() <= block.max() < _FLOAT32_BOUND:
            raise FormatError(f"{path}: parameter {name} holds a non-finite value")
    return Checkpoint(config=header["config"], step=header["step"], params=params)
