"""Tests for splatlab.infotheory: entropy, coverage, CMIT, PMI, and the
hard-vs-soft comparison."""

import math

import numpy as np
import pytest

from splatlab.errors import InvalidInputError
from splatlab.geometry import PointCloud, front_camera, gen_lidar, normalize_unit
from splatlab.infotheory import (
    channel_entropy,
    compare_strategies,
    coverage,
    pmi_field,
)
from splatlab.splatting import FeatureGrid, SplatConfig, hard_hit_count, soft_density_grid


def _grid(values, semantics="generic"):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    return FeatureGrid(arr, semantics=semantics)


def test_entropy_constant_grid_is_zero():
    rep = channel_entropy(_grid(np.full((4, 4), 0.37)), bins=256, value_range=(0, 1))
    assert rep.per_channel_bits == [0.0]
    assert rep.total_bits == 0.0


def test_entropy_two_equal_bins_unmasked():
    """Half 0.25, half 1.0 is one bit; background zeros drop out of the histograms."""
    data = np.full((4, 4), 0.25)
    data[:2] = 1.0
    rep = channel_entropy(_grid(data), bins=256, value_range=(0, 1))
    assert rep.per_channel_bits == [1.0]
    data[3] = 0.0
    assert channel_entropy(_grid(data), bins=256, value_range=(0, 1)).per_channel_bits == [
        pytest.approx(-(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3), abs=1e-15)]


def test_entropy_uniform_fill_hits_log2_bins():
    vals = (np.arange(256) + 0.5) / 256.0
    rep = channel_entropy(_grid(vals.reshape(16, 16)), bins=256, value_range=(0, 1))
    assert rep.per_channel_bits == [8.0]


def test_entropy_hand_histogram():
    # bins=4 over [0,1): values 0.1, 0.1, 0.6, 0.9 -> counts (2,0,1,1)
    # H = -(1/2 log2 1/2 + 1/4 log2 1/4 + 1/4 log2 1/4) = 1.5 bits
    rep = channel_entropy(_grid(np.array([[0.1, 0.1, 0.6, 0.9]])), bins=4, value_range=(0, 1))
    assert rep.per_channel_bits == [1.5]
    assert rep.total_bits == 1.5


def test_entropy_out_of_range_clamps_to_edge_bins():
    vals = np.array([[-3.0, 0.1, 5.0, 0.1]])
    rep = channel_entropy(_grid(vals), bins=4, value_range=(0, 1))
    # -3 joins the 0.1 pair in bin 0 after clamping; 5 lands in bin 3
    assert rep.per_channel_bits[0] == pytest.approx(
        -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)), abs=1e-12)


def test_entropy_multichannel_sums():
    rng = np.random.default_rng(0)
    data = rng.random((8, 8, 3))
    rep = channel_entropy(FeatureGrid(data, semantics="generic"), bins=16, value_range=(0, 1))
    assert len(rep.per_channel_bits) == 3
    assert abs(rep.total_bits - sum(rep.per_channel_bits)) < 1e-12
    assert all(0.0 <= b <= 4.0 for b in rep.per_channel_bits)


def test_entropy_permutation_invariant_over_pixels():
    rng = np.random.default_rng(5)
    data = rng.random((6, 6))
    flat = data.ravel()
    shuffled = flat[rng.permutation(flat.size)].reshape(6, 6)
    a = channel_entropy(_grid(data), bins=32, value_range=(0, 1))
    b = channel_entropy(_grid(shuffled), bins=32, value_range=(0, 1))
    assert a.per_channel_bits == b.per_channel_bits


def test_entropy_empty_foreground():
    rep = channel_entropy(_grid(np.zeros((4, 4))), bins=8, value_range=(0, 1))
    assert rep.empty
    assert rep.total_bits == 0.0


def test_entropy_foreground_mask_any_channel():
    """A pixel is foreground when any of its channels is nonzero."""
    data = np.zeros((1, 2, 2))
    data[0, 0] = [0.0, 0.5]
    rep = channel_entropy(FeatureGrid(data, semantics="generic"), bins=2, value_range=(0, 1))
    # one foreground pixel: each channel contributes a single occupied bin
    assert not rep.empty
    assert rep.total_bits == 0.0


def test_entropy_validates():
    with pytest.raises(InvalidInputError):
        channel_entropy(_grid(np.zeros((2, 2))), bins=1, value_range=(0, 1))
    with pytest.raises(InvalidInputError):
        channel_entropy(_grid(np.zeros((2, 2))), bins=4, value_range=(1, 1))


def test_coverage_endpoints():
    assert coverage(_grid(np.zeros((4, 4)), "weightsum"), tau=1e-6) == 0.0
    assert coverage(_grid(np.ones((4, 4)), "weightsum"), tau=1e-6) == 1.0


def test_coverage_counts_hard_hits():
    cam = front_camera((16, 16), 3.0, 0.85)
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.uniform(-0.6, 0.6, size=(5, 3)))
    counts = hard_hit_count(cloud, cam)
    occupied = np.count_nonzero(counts.data)
    assert coverage(counts, tau=1e-6) == occupied / 256.0


def test_coverage_monotone_in_tau():
    rng = np.random.default_rng(2)
    grid = _grid(rng.random((8, 8)), "weightsum")
    taus = [0.0, 0.1, 0.3, 0.7, 0.99]
    vals = [coverage(grid, t) for t in taus]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_coverage_requires_weightsum_grid():
    with pytest.raises(InvalidInputError):
        coverage(_grid(np.zeros((2, 2)), "generic"), tau=0.1)


def test_cmit_is_exact_product():
    """Each report's CMIT is its entropy times its coverage, as computed apart from the comparison."""
    cloud = normalize_unit(gen_lidar(256, 8, 0))
    comp = compare_strategies(cloud, front_camera((32, 32), 3.0, 0.85), SplatConfig(), bins=16, tau=0.25)
    for rep, grid, weights in ((comp.hard, comp.hard_grid, comp.hard_weights),
                               (comp.soft, comp.soft_grid, comp.soft_weights)):
        ent = channel_entropy(grid, bins=16, value_range=(0, 1)).total_bits
        cov = coverage(weights, tau=0.25)
        assert 0.0 < cov < 1.0
        assert rep.cmit == ent * cov


def test_cmit_zero_coverage_annihilates():
    """A tau above every weight zeroes both coverages and CMITs, and leaves the ratios undefined."""
    cloud = normalize_unit(gen_lidar(256, 8, 0))
    comp = compare_strategies(cloud, front_camera((32, 32), 3.0, 0.85), SplatConfig(), tau=1e9)
    for rep in (comp.hard, comp.soft):
        assert rep.entropy.total_bits > 0.0
        assert rep.coverage == 0.0 and rep.cmit == 0.0
    assert comp.coverage_ratio is None and comp.cmit_ratio is None


def test_pmi_max_at_projected_peak():
    cam = front_camera((24, 24), 3.0, 0.85)
    cloud = PointCloud(np.array([[0.2, -0.1, 0.0]]))
    cfg = SplatConfig()
    field = pmi_field(cloud, cam, cfg)
    density = soft_density_grid(cloud, cam, cfg)
    assert field.data.argmax() == density.data.argmax()


def test_pmi_floor_on_zero_density():
    cam = front_camera((64, 64), 3.0, 0.85)
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    # near-Dirac kernel underflows far from the projection
    field = pmi_field(cloud, cam, SplatConfig(sigma=0.05))
    assert field.data.min() == -30.0
    assert (field.data == -30.0).any()
    assert field.data.max() > 0.0


def test_pmi_kl_nonnegative():
    """Density-weighted mean of the field is a KL divergence."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        cloud = PointCloud(rng.uniform(-0.8, 0.8, size=(rng.integers(3, 30), 3)))
        cam = front_camera((20, 20), 3.0, 0.85)
        cfg = SplatConfig(sigma=float(rng.uniform(0.5, 2.5)))
        field = pmi_field(cloud, cam, cfg)
        density = soft_density_grid(cloud, cam, cfg).data
        kl = float((density * field.data).sum())
        assert kl >= -1e-9


def test_compare_strategies_fields():
    cloud = normalize_unit(gen_lidar(256, 8, 0))
    cam = front_camera((32, 32), 3.0, 0.85)
    comp = compare_strategies(cloud, cam, SplatConfig())

    assert comp.hard.semantics == "ccm" and comp.soft.semantics == "ccm"
    assert abs(comp.hard.cmit - comp.hard.entropy.total_bits * comp.hard.coverage) < 1e-12
    assert abs(comp.soft.cmit - comp.soft.entropy.total_bits * comp.soft.coverage) < 1e-12
    assert comp.coverage_ratio == comp.soft.coverage / comp.hard.coverage
    assert comp.soft.coverage > comp.hard.coverage
    for rep in (comp.hard, comp.soft):
        assert rep.provenance["n_points"] == 256
        assert "splat" in rep.provenance and "camera" in rep.provenance


def test_compare_strategies_empty_cloud():
    from splatlab.geometry import CameraModel

    # camera shifted so the whole unit ball sits behind it
    base = front_camera((16, 16), 3.0, 0.85)
    cam = CameraModel(base.focal, base.principal, base.rotation,
                      np.array([0.0, 0.0, -3.0]), base.resolution)
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [0.1, 0.2, -0.3]]))
    comp = compare_strategies(cloud, cam, SplatConfig())
    assert comp.hard.empty and comp.soft.empty
    assert comp.coverage_ratio is None
    assert comp.cmit_ratio is None


def test_entropy_report_serializes():
    rep = channel_entropy(_grid(np.array([[0.1, 0.9]])), bins=4, value_range=(0, 1))
    d = rep.to_dict()
    assert d["bins"] == 4
    assert d["total_bits"] == rep.total_bits
    assert d["value_range"] == [0.0, 1.0]
