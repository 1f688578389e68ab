"""Binary checkpoints: a bundle's parameters, its config and its step count.

Format version 4, in the shared container (``stepgate.container``): magic
``SGCK`` | u32 version | u32 header length | u32 CRC-32 | JSON header |
float64 little-endian blocks.  The header holds the config, the step and the
parameter names and shapes in block order; one block per parameter follows.
Names are ``<group>.<tensor>`` (``selector.kernels``, ``scorer.head_w``) or,
for a two-layer network, ``<group>.<net>.<w1|b1|w2|b2>`` (``selector.enc.w1``,
``classifier.head.b2``); the stand-alone light head is a group of its own
(``light_head.w1``).  Version 3 files, whose stored config still had the
heavy encoder's spatial grid (``model.height`` and ``model.width``), version
2 files, which gave encoder and gate weights flat names (``selector.enc_*``,
``selector.gate_*``), and version 1 files, which also stored optimizer
moments, are rejected.  The header JSON is
canonical (sorted keys, no whitespace) so save -> load -> save reproduces the
file byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import container
from ..errors import ContractError, FormatError
from .config import ExperimentConfig, config_from_dict
from .models import ModelBundle

MAGIC = b"SGCK"
FORMAT_VERSION = 4


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

    def apply_to_bundle(self, bundle: ModelBundle) -> None:
        """Copy stored values into the bundle's tensors, names checked strictly."""
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


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "config": ckpt.config,
        "step": ckpt.step,
        "entries": [[n, list(a.shape)] for n, a in ckpt.params.items()],
    }
    body = [np.ascontiguousarray(a, dtype="<f8") for a in ckpt.params.values()]
    container.write(path, MAGIC, FORMAT_VERSION, header, body)


def load_checkpoint(path) -> Checkpoint:
    blob, header, offset = container.read(path, MAGIC, FORMAT_VERSION, "checkpoint")
    try:
        entries = [(str(n), tuple(dims)) for n, dims in header["entries"]]
        # np.frombuffer reads the whole rest of the body for a -1
        if not all(type(d) is int and d >= 0 for _, dims in entries for d in dims):
            raise ValueError("a shape is not a list of non-negative ints")
        config, step = dict(header["config"]), int(header["step"])
        if int(header["format_version"]) != FORMAT_VERSION:
            raise ValueError("header version disagrees with the container")
        params = {}
        for name, shape in entries:
            count = int(np.prod(shape, dtype=np.int64))
            params[name] = np.frombuffer(
                blob, dtype="<f8", count=count, offset=offset
            ).reshape(shape).astype(np.float64)
            offset += 8 * count
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: corrupt checkpoint ({exc})") from exc
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes after the blocks")
    return Checkpoint(config=config, step=step, params=params)
