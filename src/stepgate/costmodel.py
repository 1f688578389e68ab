"""FLOP accounting for this package's own networks.

:func:`desk_flops` counts the exact dense-matmul multiplies of the
networks that actually run: per timestep ``desk_light`` (light encoder,
attention, kernel similarity and gate MLP), ``desk_scorer`` (the
SCSampler-style scorer) and ``desk_heavy`` (heavy encoder), and per video
``desk_head`` (the classification head on the pooled features).  A
:class:`CostRegistry` holds those rates, and :func:`pipeline_cost` turns
light and heavy timestep counts into a :class:`CostReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ContractError, DomainError

GFLOP = 1e9


@dataclass(frozen=True)
class CostRegistry:
    """Immutable tag -> GFLOPs table, per timestep or, for a head, per video."""

    rates: Mapping[str, float]

    def __post_init__(self):
        for tag, rate in self.rates.items():
            if not rate > 0.0:
                raise DomainError(f"cost rate for {tag!r} must be positive, got {rate}")

    def rate(self, tag: str) -> float:
        if tag not in self.rates:
            raise DomainError(f"unknown cost model tag {tag!r}; known: {sorted(self.rates)}")
        return float(self.rates[tag])


@dataclass(frozen=True)
class CostReport:
    """Cost of one pipeline configuration, per video; the total is the exact
    sum.  ``n_heavy`` may be a mean over videos."""

    n_light: int
    n_heavy: float
    light_gflops: float
    heavy_gflops: float
    head_gflops: float

    @property
    def total_gflops(self) -> float:
        return self.light_gflops + self.heavy_gflops + self.head_gflops


def pipeline_cost(n_light: int, n_heavy: float, light_rate: float,
                  heavy_rate: float, head_rate: float) -> CostReport:
    """Cost of running ``n_light`` light and ``n_heavy`` heavy timesteps at
    the given GFLOPs-per-timestep rates, plus one head pass at ``head_rate``
    GFLOPs per video.

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
    return CostReport(n_light=n_light, n_heavy=n_heavy,
                      light_gflops=n_light * light_rate,
                      heavy_gflops=n_heavy * heavy_rate, head_gflops=head_rate)


# ---------------------------------------------------------------------------
# tradeoff table


TRADEOFF_HEADER = "method,n_heavy_timesteps,gflops,metric"


def tradeoff_rows(results: Iterable[tuple[str, CostReport, float]]) -> list[str]:
    """CSV data rows ``method,n_heavy_timesteps,gflops,metric`` from
    ``(method, cost, metric)`` triples, ascending by (gflops, method).
    Methods must be distinct; two methods may share a budget.  Six
    significant figures keep desk-scale totals (far below one GFLOP) nonzero."""
    triples = list(results)
    methods = [m for m, _, _ in triples]
    if len(set(methods)) != len(methods):
        raise DomainError("tradeoff methods must be distinct")
    triples.sort(key=lambda t: (t[1].total_gflops, t[0]))
    return [f"{m},{r.n_heavy:.6g},{r.total_gflops:.6g},{v:.4f}"
            for m, r, v in triples]


def tradeoff_csv(results: Iterable[tuple[str, CostReport, float]]) -> str:
    """Complete CSV text: header plus rows, every line newline-terminated."""
    return "".join(line + "\n" for line in [TRADEOFF_HEADER, *tradeoff_rows(results)])


# ---------------------------------------------------------------------------
# desk-scale stand-in models, counted exactly


def desk_flops(d_raw: int, light_channels: int, n_kernels: int, gate_hidden: int,
               timesteps: int, segment_len: int, heavy_channels: int,
               heavy_hidden: int, head_hidden: int, n_classes: int,
               attention: bool, light_hidden: int) -> dict[str, float]:
    """Exact dense-matmul multiply counts, in GFLOPs.

    Per timestep, ``desk_light`` covers the light encoder (``d_raw`` ->
    ``light_hidden`` -> ``light_channels``), attention when the selector has
    it (its per-timestep share includes the T-dependent score and mixing
    terms), kernel similarity, and the gating head.  ``desk_scorer`` covers
    the light encoder plus the SCSampler scorer's linear head.
    ``desk_heavy`` covers the heavy encoder for one selected timestep.  Per
    video, ``desk_head`` covers the classification head, which runs once on
    the pooled features.  Only multiplies inside matrix products are
    counted; bias adds and nonlinearities are excluded.
    """
    names = dict(d_raw=d_raw, light_channels=light_channels, n_kernels=n_kernels,
                 gate_hidden=gate_hidden, timesteps=timesteps, segment_len=segment_len,
                 heavy_channels=heavy_channels, heavy_hidden=heavy_hidden,
                 head_hidden=head_hidden, n_classes=n_classes, light_hidden=light_hidden)
    for key, val in names.items():
        if val < 1:
            raise DomainError(f"{key} must be positive, got {val}")
    c, t = light_channels, timesteps
    encoder = d_raw * light_hidden + light_hidden * c
    scorer = encoder + c * n_classes
    light = encoder
    if attention:
        light += 3 * c * c + 2 * t * c     # q/k/v plus scores and value mixing
    light += n_kernels * c                 # kernel similarity
    light += n_kernels * gate_hidden + gate_hidden
    heavy = segment_len * d_raw * heavy_hidden + heavy_hidden * heavy_channels
    head = heavy_channels * head_hidden + head_hidden * n_classes
    return {"desk_light": light / GFLOP, "desk_scorer": scorer / GFLOP,
            "desk_heavy": heavy / GFLOP, "desk_head": head / GFLOP}
