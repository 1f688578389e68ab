"""FLOP accounting for sparse and dense pipeline configurations.

A :class:`CostRegistry` maps model tags to GFLOPs per timestep.  The stock
registry carries two families of entries:

* sparse-stage rates for the published reference backbones, derived from
  their 16-timestep budgets (``r2d``, ``s3d``, ``i3d``) together with the
  light selection stage (``light_gating``) and the baseline scorer
  (``scsampler_light``), and
* dense-baseline rates (``r2d_dense``, ``s3d_dense``, ``i3d_dense``) derived
  from the 64-timestep budgets.  The published 64-timestep totals are not
  four times the 16-timestep ones (the gap reaches 7.4 GFLOPs for the
  ShuffleNet3D backbone), so a single per-timestep rate per backbone cannot
  reproduce both columns; dense runs get their own tags instead.

``desk_flops`` counts the exact dense-matmul multiplies of this package's
own light and heavy stand-in networks so the same accounting applies to real
runs, under ``desk_light`` and ``desk_heavy`` tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ContractError, DomainError

GFLOP = 1e9

# (n_light, light_tag, n_heavy, heavy_tag, published total GFLOPs)
PUBLISHED_BUDGETS = (
    ("r2d_64", 0, None, 64, "r2d_dense", 246.6),
    ("r2d_scorer_16", 128, "scsampler_light", 16, "r2d", 69.2),
    ("r2d_gated_16", 128, "light_gating", 16, "r2d", 69.5),
    ("s3d_64", 0, None, 64, "s3d_dense", 61.8),
    ("s3d_scorer_16", 128, "scsampler_light", 16, "s3d", 24.8),
    ("s3d_gated_16", 128, "light_gating", 16, "s3d", 25.1),
    ("i3d_64", 0, None, 64, "i3d_dense", 830.7),
    ("i3d_scorer_16", 128, "scsampler_light", 16, "i3d", 215.3),
    ("i3d_gated_16", 128, "light_gating", 16, "i3d", 215.6),
)


@dataclass(frozen=True)
class CostRegistry:
    """Immutable tag -> GFLOPs-per-timestep table."""

    rates: Mapping[str, float]

    def __post_init__(self):
        for tag, rate in self.rates.items():
            if not rate > 0.0:
                raise DomainError(f"cost rate for {tag!r} must be positive, got {rate}")

    @classmethod
    def published(cls) -> "CostRegistry":
        return cls(rates={
            "light_gating": 7.8 / 128,
            "scsampler_light": 7.5 / 128,
            "r2d": 61.7 / 16,
            "s3d": 17.3 / 16,
            "i3d": 207.8 / 16,
            "r2d_dense": 246.6 / 64,
            "s3d_dense": 61.8 / 64,
            "i3d_dense": 830.7 / 64,
        })

    def rate(self, tag: str) -> float:
        if tag not in self.rates:
            raise DomainError(f"unknown cost model tag {tag!r}; known: {sorted(self.rates)}")
        return float(self.rates[tag])

    def with_entries(self, extra: Mapping[str, float]) -> "CostRegistry":
        merged = dict(self.rates)
        merged.update(extra)
        return CostRegistry(rates=merged)


@dataclass(frozen=True)
class CostReport:
    """Cost of one pipeline configuration; totals are exact sums and the
    one-decimal strings match the reporting convention of budget tables."""

    model: str
    n_light: int
    n_heavy: int
    light_gflops: float
    heavy_gflops: float

    @property
    def total_gflops(self) -> float:
        return self.light_gflops + self.heavy_gflops

    def rounded(self) -> tuple[float, float, float]:
        return (round(self.light_gflops, 1), round(self.heavy_gflops, 1),
                round(self.total_gflops, 1))


def pipeline_cost(n_light: int, n_heavy: int, heavy_model: str,
                  registry: CostRegistry,
                  light_model: str = "light_gating") -> CostReport:
    """Cost of running ``n_light`` light and ``n_heavy`` heavy timesteps.

    A dense baseline runs no light stage at all (``n_light == 0``); when the
    light stage does run it must see at least as many timesteps as the heavy
    stage, since selection happens there.
    """
    if n_light < 0 or n_heavy < 0:
        raise DomainError(f"timestep counts must be non-negative, got {n_light}, {n_heavy}")
    if 0 < n_light < n_heavy:
        raise ContractError(
            f"a running light stage must cover the heavy stage: "
            f"n_light={n_light} < n_heavy={n_heavy}"
        )
    heavy_rate = registry.rate(heavy_model)  # unknown tags error even at n_heavy=0
    light = n_light * registry.rate(light_model) if n_light else 0.0
    return CostReport(model=heavy_model, n_light=n_light, n_heavy=n_heavy,
                      light_gflops=light, heavy_gflops=n_heavy * heavy_rate)


def published_report(name: str, registry: CostRegistry | None = None) -> CostReport:
    """The cost report of one named published budget row."""
    registry = registry or CostRegistry.published()
    for row, n_light, light_tag, n_heavy, heavy_tag, _total in PUBLISHED_BUDGETS:
        if row == name:
            return pipeline_cost(n_light, n_heavy, heavy_tag, registry,
                                 light_model=light_tag or "light_gating")
    raise DomainError(f"unknown published budget {name!r}")


# ---------------------------------------------------------------------------
# tradeoff table


TRADEOFF_HEADER = "method,model,n_heavy_timesteps,gflops,metric"


def tradeoff_rows(results: Iterable[tuple[str, CostReport, float]]) -> list[str]:
    """CSV data rows ``method,model,n_heavy_timesteps,gflops,metric`` from
    ``(method, cost, metric)`` triples, ascending by (gflops, method).
    Methods must be distinct; two methods may share a budget.  Six
    significant figures keep the one-decimal look of published budget-table
    totals while desk-scale totals (far below one GFLOP) stay nonzero."""
    triples = list(results)
    methods = [m for m, _, _ in triples]
    if len(set(methods)) != len(methods):
        raise DomainError("tradeoff methods must be distinct")
    triples.sort(key=lambda t: (t[1].total_gflops, t[0]))
    return [f"{m},{r.model},{r.n_heavy:.6g},{r.total_gflops:.6g},{v:.4f}"
            for m, r, v in triples]


def tradeoff_csv(results: Iterable[tuple[str, CostReport, float]]) -> str:
    """Complete CSV text: header plus rows, every line newline-terminated."""
    return "".join(line + "\n" for line in [TRADEOFF_HEADER, *tradeoff_rows(results)])


# ---------------------------------------------------------------------------
# desk-scale stand-in models, counted exactly


def desk_flops(d_raw: int, light_channels: int, n_kernels: int, gate_hidden: int,
               timesteps: int, segment_len: int, heavy_channels: int,
               height: int, width: int, heavy_hidden: int, head_hidden: int,
               n_classes: int, context_mode: str = "context",
               light_hidden: int = 64) -> dict[str, float]:
    """Exact dense-matmul multiply counts per timestep, in GFLOPs.

    ``desk_light`` covers the light encoder, attention (context mode; its
    per-timestep share includes the T-dependent score and mixing terms),
    kernel similarity, and the gating head.  ``desk_heavy`` covers the heavy
    encoder and the classification head for one selected timestep.  Only
    multiplies inside matrix products are counted; bias adds and
    nonlinearities are excluded.
    """
    names = dict(d_raw=d_raw, light_channels=light_channels, n_kernels=n_kernels,
                 gate_hidden=gate_hidden, timesteps=timesteps, segment_len=segment_len,
                 heavy_channels=heavy_channels, height=height, width=width,
                 heavy_hidden=heavy_hidden, head_hidden=head_hidden,
                 n_classes=n_classes, light_hidden=light_hidden)
    for key, val in names.items():
        if val < 1:
            raise DomainError(f"{key} must be positive, got {val}")
    c, t = light_channels, timesteps
    light = d_raw * light_hidden + light_hidden * c
    if context_mode == "context":
        light += 3 * c * c + 2 * t * c     # q/k/v plus scores and value mixing
    light += n_kernels * c                 # kernel similarity
    light += n_kernels * gate_hidden + gate_hidden
    spatial = heavy_channels * height * width
    heavy = segment_len * d_raw * heavy_hidden + heavy_hidden * spatial
    heavy += heavy_channels * head_hidden + head_hidden * n_classes
    return {"desk_light": light / GFLOP, "desk_heavy": heavy / GFLOP}
