"""FLOP accounting for this package's own networks.

One rule (:func:`row_gflops`) reads a network's cost off its weights'
shapes: per input row, an ``affine``, ``mlp`` or ``matmul_t`` layer does one
multiply per entry of its 2-d weights, and ``attention`` adds ``2 t C`` for
its scores and value mixing over t rows of C channels.  Bias adds and
nonlinearities are not counted.  A :class:`CostRegistry` holds a mode's
rates, and :func:`pipeline_cost` turns light and heavy timestep counts into
a :class:`CostReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .autodiff import Tensor
from .errors import ContractError, DomainError

GFLOP = 1e9


@dataclass(frozen=True)
class CostRegistry:
    """Immutable tag -> GFLOPs table of the networks one mode runs.

    ``desk_light``, per timestep, is the light stage: the selector or the
    SCSampler scorer; the fixed-rule samplers run none and have no such tag.
    ``desk_heavy``, per selected timestep, is the heavy encoder, and
    ``desk_head``, per video, the head that runs once on the pooled features.
    """

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
    ``(method, cost, metric)`` triples, ascending by (gflops, method, metric,
    heavy timesteps) whatever their order, so runs of one method merge.  Six
    significant figures keep desk-scale totals (far below one GFLOP) nonzero."""
    triples = sorted(results, key=lambda t: (t[1].total_gflops, t[0], t[2], t[1].n_heavy))
    return [f"{m},{r.n_heavy:.6g},{r.total_gflops:.6g},{v:.4f}"
            for m, r, v in triples]


def tradeoff_csv(results: Iterable[tuple[str, CostReport, float]]) -> str:
    """Complete CSV text: header plus rows, every line newline-terminated."""
    return "".join(line + "\n" for line in [TRADEOFF_HEADER, *tradeoff_rows(results)])


# ---------------------------------------------------------------------------
# the multiply rule


def row_gflops(tensors: Mapping[str, Tensor], timesteps: int) -> float:
    """GFLOPs per input row of one stage's ``tensors`` by the module's rule;
    attention, when its projection ``attn_q`` is among them, spans
    ``timesteps`` rows."""
    n = sum(w.numel() for w in tensors.values() if len(w.shape) == 2)
    if "attn_q" in tensors:
        n += 2 * timesteps * tensors["attn_q"].shape[0]
    return n / GFLOP
