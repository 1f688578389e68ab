"""Binary checkpoints: a bundle's parameters, its config and its step count.

Format version 6, in the shared container (``stepgate.container``): magic
``SGCK`` | u32 version | u32 header length | u32 CRC-32 | JSON header |
float32 little-endian blocks.  The header holds the config, the step and
the parameter names and shapes in block order; one block per parameter
follows, in the float32 the bundle holds it in (``build_bundle``).
A name is the tensor's field path in ``ModelBundle`` (``selector.enc.w1``,
``scorer.head_w``), in ``ModelBundle.named_parameters`` order.  Older
versions are rejected; version 5 stored the float32 weights as float64
blocks, and version 4 weights fed each row to the head before the pool.
The header JSON is canonical (sorted keys, no whitespace) so save -> load
-> save reproduces the file byte for byte.
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
FORMAT_VERSION = 6


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
    """Write one checkpoint.  A finite weight past float32's range, which
    its block would store as an infinity, raises ``ValueError`` before any
    file is written; a value within the range is rounded to float32."""
    header = {
        "format_version": FORMAT_VERSION,
        "config": ckpt.config,
        "step": ckpt.step,
        "entries": [[n, list(a.shape)] for n, a in ckpt.params.items()],
    }
    with np.errstate(over="ignore"):    # an overflow is named below
        body = [np.ascontiguousarray(a, dtype="<f4") for a in ckpt.params.values()]
    for (name, a), block in zip(ckpt.params.items(), body):
        if not container.all_finite(block) and container.all_finite(np.asarray(a)):
            raise ValueError(f"parameter {name} holds a value past float32's range")
    container.write(path, MAGIC, FORMAT_VERSION, header, body)


def checkpoint_layout(header: dict) -> list:
    """The body an SGCK header implies (``container.read``'s layout): one
    block per entry.  Checks the config, requires the step to be a
    non-negative int, and makes the names strings, none repeated."""
    if not isinstance(header["config"], dict):
        raise TypeError("the config is not a JSON object")
    if container.int_field(header, "step") < 0:
        raise ValueError(f"step {header['step']} is negative")
    header["entries"] = [[str(n), dims] for n, dims in header["entries"]]
    if len({n for n, _ in header["entries"]}) != len(header["entries"]):
        raise ValueError("a parameter name repeats")
    return [("<f4", dims) for _, dims in header["entries"]]


def load_checkpoint(path) -> Checkpoint:
    """Read one checkpoint, each block straight into its parameter's array.
    A file not written intact, or holding a weight that is not finite,
    raises ``FormatError``."""
    header, blocks = container.read(path, MAGIC, FORMAT_VERSION, "checkpoint",
                                    checkpoint_layout)
    params = {name: block for (name, _), block in zip(header["entries"], blocks)}
    for name, block in params.items():
        if not container.all_finite(block):
            raise FormatError(f"{path}: parameter {name} holds a non-finite value")
    return Checkpoint(config=header["config"], step=header["step"], params=params)
