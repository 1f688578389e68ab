"""Experiment configuration: strict JSON in, fully-defaulted dataclasses out.

Every key is validated against its dataclass field and unknown keys are
rejected with their dotted path, because a silently ignored typo ("epcohs")
is the easiest way to wreck reproducibility.  A run is a pure function of
(config, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from ..errors import ConfigError, DomainError
from ..synthdata import ActivitySpec

MODES = ("standalone", "e2e", "frame_conditioned", "scsampler", "uniform", "random")


@dataclass
class DatasetConfig:
    """Either a directory holding train.sgds/test.sgds or a generation spec:
    every field but ``path``, ``n_train`` and ``n_test`` is an
    ``ActivitySpec`` parameter, whose docstring describes the recipe styles.
    The heavy encoder reads the first ``model.segment_len`` frames of each
    slot and the light networks read frame ``segment_len // 2``, so frames
    past ``segment_len`` are stored but never read: that is why the default
    ``frames_per_slot`` equals the default ``segment_len``.
    """

    path: str | None = None
    n_train: int = 2000
    n_test: int = 500
    n_classes: int = 10
    n_shared: int = 6
    n_background: int = 8
    d_raw: int = 32
    timesteps: int = 32
    frames_per_slot: int = 8
    noise_sigma: float = 0.3
    relevant_fraction: float = 0.3
    confuser_share: float = 0.35
    task: str = "single_label"
    recipe_style: str = "anchored"

    def spec(self) -> ActivitySpec:
        """The generation spec this section describes, its book derived; a
        section the spec's rules reject is a ``ConfigError``."""
        try:
            spec = ActivitySpec(**{f.name: getattr(self, f.name) for f in fields(ActivitySpec)})
            spec.class_recipes  # deriving the book checks each shared prototype's uses
        except DomainError as exc:
            raise ConfigError(f"dataset: {exc}") from exc
        return spec


@dataclass
class ModelConfig:
    light_channels: int = 64
    heavy_channels: int = 64
    n_kernels: int = 128
    gate_hidden: int = 64
    segment_len: int = 8
    open_bias: float = 2.0


@dataclass
class TrainingConfig:
    batch_size: int = 32
    epochs: int = 30
    lr: float = 1e-3
    eps: float = 1e-4
    # every arm's training budget in timesteps (None: round(T / 4)); the
    # gated arms steer their mean open rate to it over T
    sample_budget: int | None = None


@dataclass
class EvalConfig:
    budgets: list = field(default_factory=list)


@dataclass
class ExperimentConfig:
    mode: str = "e2e"
    seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


# the JSON kinds each field annotation accepts; a float field takes an int
_KINDS = {"int": (int,), "float": (int, float), "str": (str,), "list": (list,),
          "None": (type(None),)}


def _section(cls, raw, path: str):
    """Build the dataclass ``cls`` from ``raw``, checking every key against
    its fields: a section field recurses, any other must have a JSON kind
    its annotation allows, and a float must be finite."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config root'} must be an object, "
                          f"got {type(raw).__name__}")
    known = {f.name: f for f in fields(cls)}
    values = {}
    for key, val in raw.items():
        where = f"{path}.{key}" if path else key
        f = known.get(key)
        if f is None:
            names = ", ".join(sorted(known))
            raise ConfigError(f"unknown config key {where!r}; known keys here: {names}")
        if is_dataclass(f.default_factory):
            val = _section(f.default_factory, val, where)
        else:
            # bool is an int subclass but never a valid numeric config value
            if isinstance(val, bool):
                raise ConfigError(f"{where} must not be a boolean")
            kinds = tuple(k for name in f.type.split(" | ") for k in _KINDS[name])
            if not isinstance(val, kinds):
                names = "/".join(k.__name__ for k in kinds)
                raise ConfigError(f"{where} must be {names}, got {type(val).__name__}")
            # json reads NaN and Infinity, which pass every range check below
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"{where} must be finite, got {val}")
        values[key] = val
    return cls(**values)


def _validate_values(cfg: ExperimentConfig) -> None:
    if cfg.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    d = cfg.dataset
    d.spec()  # the dataset's own rules
    for name in ("n_train", "n_test"):
        if getattr(d, name) < 1:
            raise ConfigError(f"dataset.{name} must be positive, got {getattr(d, name)}")
    m = cfg.model
    for name in ("light_channels", "heavy_channels", "n_kernels", "gate_hidden",
                 "segment_len"):
        if getattr(m, name) < 1:
            raise ConfigError(f"model.{name} must be positive, got {getattr(m, name)}")
    if m.segment_len > d.frames_per_slot:
        raise ConfigError(
            f"model.segment_len {m.segment_len} cannot exceed "
            f"dataset.frames_per_slot {d.frames_per_slot}"
        )
    t = cfg.training
    if t.batch_size < 1 or t.epochs < 1:
        raise ConfigError("training.batch_size and training.epochs must be positive")
    if t.lr <= 0 or t.eps <= 0:
        raise ConfigError("training.lr and training.eps must be positive")
    if t.sample_budget is not None and not 1 <= t.sample_budget <= d.timesteps:
        raise ConfigError(
            f"training.sample_budget must lie in [1, {d.timesteps}], got {t.sample_budget}"
        )
    e = cfg.eval
    for b in e.budgets:
        if isinstance(b, bool) or not isinstance(b, int) or not 1 <= b <= d.timesteps:
            raise ConfigError(f"eval.budgets entries must be ints in [1, {d.timesteps}], got {b!r}")
    if len(set(e.budgets)) != len(e.budgets):
        raise ConfigError(f"eval.budgets must not repeat, got {e.budgets}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a fully-defaulted config from a (possibly partial) dict."""
    cfg = _section(ExperimentConfig, raw, "")
    _validate_values(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except OSError as e:
        raise ConfigError(f"{p}: cannot read the config file ({e.strerror})") from None
    except ValueError as e:
        raise ConfigError(f"{p}: invalid JSON ({e})") from None
    return config_from_dict(raw)
