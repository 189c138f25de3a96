"""Information-theoretic diagnostics of projected grids.

Channel-aware entropy treats channels as independent (the joint entropy is
approximated by the sum of per-channel marginal entropies), coverage is the
fraction of pixels whose accumulated weight exceeds a threshold, and their
product is the channel-masked information throughput (CMIT) used to compare
the hard and soft projection strategies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import CameraModel, PointCloud, _count, _finite_array, ccm_features
from .splatting import (
    FeatureGrid,
    SplatConfig,
    hard_hit_count,
    rasterize_hard,
    soft_density_grid,
    splat_forward,
)

PMI_FLOOR = -30.0
COVERAGE_TAU = 1e-6
ENTROPY_BINS = 256
# histogram range of CCM pseudo-color values
VALUE_RANGE = (0.0, 1.0)


@dataclass
class EntropyReport:
    """Per-channel marginal entropies in bits and their sum."""

    per_channel_bits: list[float]
    total_bits: float
    bins: int
    value_range: tuple[float, float]
    empty: bool = False

    def to_dict(self) -> dict:
        d = asdict(self)
        d["value_range"] = list(self.value_range)
        return d


@dataclass
class AnalysisReport:
    """Entropy, coverage and CMIT of one projection strategy's output."""

    entropy: EntropyReport
    coverage: float
    cmit: float
    semantics: str
    provenance: dict
    empty: bool = False

    def to_dict(self) -> dict:
        return {
            "entropy": self.entropy.to_dict(),
            "coverage": self.coverage,
            "cmit": self.cmit,
            "semantics": self.semantics,
            "provenance": self.provenance,
            "empty": self.empty,
        }


@dataclass
class StrategyComparison:
    """Hard vs. soft analysis pair with their coverage and CMIT ratios.

    Ratios are None when the hard side is empty or has zero coverage. The
    grids are kept so callers can render panels without re-projecting.
    """

    hard: AnalysisReport
    soft: AnalysisReport
    coverage_ratio: float | None
    cmit_ratio: float | None
    hard_grid: FeatureGrid
    soft_grid: FeatureGrid
    hard_weights: FeatureGrid
    soft_weights: FeatureGrid


def _hist_counts(vals: np.ndarray, bins: int, lo: float, hi: float) -> np.ndarray:
    # equal-width bins over [lo, hi]; out-of-range values clamp to the edge bins
    scaled = (vals - lo) * (bins / (hi - lo))
    idx = np.clip(np.floor(scaled).astype(np.int64), 0, bins - 1)
    return np.bincount(idx, minlength=bins)


def channel_entropy(
    grid: FeatureGrid,
    bins: int = ENTROPY_BINS,
    value_range: tuple[float, float] = VALUE_RANGE,
) -> EntropyReport:
    """Sum of per-channel histogram entropies over the foreground, in bits.

    Only pixels where some channel is nonzero enter the histograms (background
    zeros would otherwise dominate every channel). A grid with no foreground
    yields zero entropy flagged empty. Histogram bins are equal-width over
    ``value_range``; 0 log 0 counts as 0.
    """
    bins = _count(bins, 2, "bins must be an integer >= 2")
    lo, hi = _finite_array(value_range, (2,), "value_range must be finite with lo < hi").tolist()
    if not lo < hi:
        raise InvalidInputError("value_range must be finite with lo < hi")
    mask = np.any(grid.data != 0.0, axis=2)
    if not mask.any():
        return EntropyReport([0.0] * grid.channels, 0.0, bins, (lo, hi), empty=True)
    data = grid.data[mask]
    per_channel = []
    for ch in range(grid.channels):
        counts = _hist_counts(data[:, ch], bins, lo, hi)
        p = counts[counts > 0] / counts.sum()
        per_channel.append(float(-(p * np.log2(p)).sum()))
    return EntropyReport(per_channel, float(sum(per_channel)), bins, (lo, hi))


def coverage(weights: FeatureGrid, tau: float = COVERAGE_TAU) -> float:
    """Fraction of pixels whose accumulated weight exceeds tau."""
    if weights.semantics != "weightsum":
        raise InvalidInputError("coverage expects a weightsum grid")
    if weights.channels != 1:
        raise InvalidInputError("weightsum grids are single-channel")
    if not _finite_array(tau, (), "tau must be finite and nonnegative") >= 0:
        raise InvalidInputError("tau must be finite and nonnegative")
    return float((weights.data[:, :, 0] > tau).mean())


def pmi_field(cloud: PointCloud, cam: CameraModel, cfg: SplatConfig) -> FeatureGrid:
    """Pointwise mutual information log(P_soft / P_uniform) over the pixel grid.

    The uniform prior is 1 / pixel count. The field is clamped below at
    PMI_FLOOR so that zero-density pixels and underflow-level densities stay
    ordered consistently. Natural log.
    """
    dens = soft_density_grid(cloud, cam, cfg)
    d = dens.data[:, :, 0]
    out = np.full_like(d, PMI_FLOOR)
    nz = d > 0.0
    # divide by the prior; d * d.size rounds differently unless d.size is a power of two
    out[nz] = np.maximum(np.log(d[nz] / (1.0 / d.size)), PMI_FLOOR)
    return FeatureGrid(out[:, :, None], semantics="generic", empty=dens.empty)


def compare_strategies(
    cloud: PointCloud,
    cam: CameraModel,
    cfg: SplatConfig,
    bins: int = ENTROPY_BINS,
    value_range: tuple[float, float] = VALUE_RANGE,
    tau: float = COVERAGE_TAU,
) -> StrategyComparison:
    """Project the cloud hard and soft with identical settings and compare.

    Both strategies rasterize CCM pseudo-color. CMIT is computed as the exact
    product of the reported entropy and coverage, so the product invariant
    holds by construction.
    """
    feats = ccm_features(cloud)
    hard_grid = rasterize_hard(cloud, cam, mode="ccm")
    hard_weights = hard_hit_count(cloud, cam)
    soft_grid, aux = splat_forward(cloud, feats, cam, cfg, semantics="ccm")
    soft_weights = aux.weight_grid()

    base_prov = {
        "splat": asdict(cfg),
        "camera": cam.to_dict(),
        "bins": bins,
        "value_range": list(value_range),
        "tau": tau,
        "coverage_units": "fraction of pixels in [0, 1]",
        "n_points": len(cloud),
    }

    reports = {}
    for name, grid_s, weights_s in (
        ("hard", hard_grid, hard_weights),
        ("soft", soft_grid, soft_weights),
    ):
        ent = channel_entropy(grid_s, bins=bins, value_range=value_range)
        cov = coverage(weights_s, tau)
        reports[name] = AnalysisReport(
            entropy=ent,
            coverage=cov,
            cmit=ent.total_bits * cov,
            semantics=grid_s.semantics,
            provenance=dict(base_prov, strategy=name),
            empty=grid_s.empty,
        )

    hard_rep, soft_rep = reports["hard"], reports["soft"]
    cov_ratio = None
    cmit_ratio = None
    if not hard_rep.empty and not soft_rep.empty and hard_rep.coverage > 0:
        cov_ratio = soft_rep.coverage / hard_rep.coverage
        if hard_rep.cmit > 0:
            cmit_ratio = soft_rep.cmit / hard_rep.cmit
    return StrategyComparison(
        hard=hard_rep,
        soft=soft_rep,
        coverage_ratio=cov_ratio,
        cmit_ratio=cmit_ratio,
        hard_grid=hard_grid,
        soft_grid=soft_grid,
        hard_weights=hard_weights,
        soft_weights=soft_weights,
    )
