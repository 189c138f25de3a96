"""Tests for splatlab.splatting.

The load-bearing check is the dual route: splat_forward against a naive
untruncated per-pixel accumulation oracle written here with none of the
windowing machinery.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splatlab.errors import InvalidInputError
from splatlab.geometry import CameraModel, PointCloud, camera_coords, front_camera, gen_sphere, project_points
from splatlab.infotheory import PMI_FLOOR, pmi_field
from splatlab.splatting import (
    SplatConfig,
    _contribution_blocks,
    _contributions,
    _scatter_min_depth,
    hard_hit_count,
    rasterize_hard,
    soft_density,
    soft_density_grid,
    splat_backward,
    splat_forward,
    support_measure,
)


def naive_splat(points, feats, cam, cfg):
    """O(N*H*W) direct summation over every pixel, no truncation window."""
    h, w = cam.resolution
    c = feats.shape[1]
    u, z, valid = project_points(cam, points)
    num = np.zeros((h, w, c))
    den = np.zeros((h, w))
    for row in range(h):
        for col in range(w):
            q = np.array([col + 0.5, row + 0.5])
            for k in range(len(points)):
                if not valid[k]:
                    continue
                d2 = float(((u[k] - q) ** 2).sum())
                wk = math.exp(-d2 / (2.0 * cfg.sigma ** 2))
                if cfg.depth_weighting:
                    wk /= z[k] + cfg.eps_depth
                num[row, col] += wk * feats[k]
                den[row, col] += wk
    return num / (den[:, :, None] + cfg.eps_norm)


def loop_density(cloud, cam, cfg):
    """Untruncated mixture summed one full H x W Gaussian per point; returns (field, u, alpha)."""
    u, z, valid = project_points(cam, cloud.points)
    u = u[valid]
    alpha = 1.0 / (z[valid] + cfg.eps_depth) if cfg.depth_weighting else np.ones(len(u))
    h, w = cam.resolution
    field = np.zeros((h, w), dtype=np.float64)
    inv_two_sigma2 = 1.0 / (2.0 * cfg.sigma * cfg.sigma)
    xs = np.arange(w) + 0.5
    ys = np.arange(h) + 0.5
    with np.errstate(over="ignore"):
        for (ux, uy), a in zip(u, alpha):
            dx2 = (xs - ux) ** 2
            dy2 = (ys - uy) ** 2
            field += a * np.exp(-(dy2[:, None] + dx2[None, :]) * inv_two_sigma2)
    return field, u, alpha


def gather_backward(aux, cloud, feats, upstream):
    """splat_backward by per-contribution row gathers; returns (d_points, d_features, d_sigma).

    Every product and sum runs in the order splat_backward must keep, so the
    two agree bit for bit.
    """
    cfg, cam = aux.config, aux.camera
    h, w = cam.resolution
    c = feats.shape[1]
    g = np.asarray(upstream, dtype=np.float64)
    n = len(cloud)
    pts, count, pixel, wgt, _, _ = _contributions(aux.u, aux.z, np.flatnonzero(aux.valid), cfg, h, w)
    k = np.repeat(pts, count)
    g_pix = g.reshape(-1, c)[pixel]
    inv_den = 1.0 / (aux.weight_sum.reshape(-1)[pixel] + cfg.eps_norm)

    def per_point(x):
        return np.bincount(k, weights=x, minlength=n)

    d_features_contrib = g_pix * (wgt * inv_den)[:, None]
    d_features = np.stack([per_point(d_features_contrib[:, ch]) for ch in range(c)], axis=1)
    d_w = np.einsum("mc,mc->m", g_pix, feats[k] - aux.value.reshape(-1, c)[pixel]) * inv_den
    rows, cols = np.divmod(pixel, w)
    ex = (cols + 0.5) - aux.u[k, 0]
    ey = (rows + 0.5) - aux.u[k, 1]
    inv_sigma2 = 1.0 / (cfg.sigma * cfg.sigma)
    d_u = np.stack([per_point(d_w * wgt * ex * inv_sigma2), per_point(d_w * wgt * ey * inv_sigma2)], axis=1)
    d_z = per_point(-d_w * wgt / (aux.z[k] + cfg.eps_depth)) if cfg.depth_weighting else np.zeros(n)
    d_sigma = float(np.sum(d_w * wgt * (ex * ex + ey * ey)) / cfg.sigma**3)

    fx, fy = cam.focal
    cam_pts = camera_coords(cam, cloud.points)
    active = aux.valid & ((d_u != 0).any(axis=1) | (d_z != 0))
    d_points = np.zeros((n, 3))
    if np.any(active):
        xc, yc, zc = cam_pts[active].T
        dux, duy = d_u[active].T
        d_cam = np.empty((int(active.sum()), 3))
        d_cam[:, 0] = dux * fx / zc
        d_cam[:, 1] = duy * fy / zc
        d_cam[:, 2] = -dux * fx * xc / (zc * zc) - duy * fy * yc / (zc * zc) + d_z[active]
        d_points[active] = d_cam @ cam.rotation
    return d_points, d_features, d_sigma


def _cam(side=12, focal=9.0, depth=3.0):
    return CameraModel(
        focal=(focal, focal),
        principal=(side / 2.0, side / 2.0),
        rotation=np.eye(3),
        translation=np.array([0.0, 0.0, depth]),
        resolution=(side, side),
    )


def _point_at_pixel_center(cam, row, col, depth=None):
    """Invert the projection so u lands exactly on a pixel center."""
    z = depth if depth is not None else cam.translation[2]
    x = (col + 0.5 - cam.principal[0]) * z / cam.focal[0]
    y = (row + 0.5 - cam.principal[1]) * z / cam.focal[1]
    p_cam = np.array([x, y, z])
    return cam.rotation.T @ (p_cam - cam.translation)


def test_single_point_at_pixel_center():
    """Normalization cancels: V = 0.7 * w / (w + eps) within 1e-6 of 0.7."""
    cam = _cam()
    p = _point_at_pixel_center(cam, 5, 5, depth=1.0)
    cloud = PointCloud(p[None, :])
    grid, _ = splat_forward(cloud, np.array([[0.7]]), cam, SplatConfig())
    assert abs(grid.data[5, 5, 0] - 0.7) < 1e-6


def test_single_point_frozen_window_values():
    # sigma=1, radius=1, no depth factor: weights exp(0), exp(-1/2), exp(-1)
    # at the center, edge, and corner pixels; V = w / (w + 1e-8) with f = 1
    cam = _cam(side=3, focal=2.0, depth=1.0)
    p = _point_at_pixel_center(cam, 1, 1, depth=1.0)
    cfg = SplatConfig(sigma=1.0, radius=1, depth_weighting=False)
    grid, aux = splat_forward(PointCloud(p[None, :]), np.array([[1.0]]), cam, cfg)

    np.testing.assert_allclose(grid.data[1, 1, 0], 0.9999999900000002, rtol=0, atol=1e-15)
    for r, c in ((0, 1), (1, 0), (1, 2), (2, 1)):
        np.testing.assert_allclose(grid.data[r, c, 0], 0.9999999835127875, rtol=0, atol=1e-15)
    for r, c in ((0, 0), (0, 2), (2, 0), (2, 2)):
        np.testing.assert_allclose(grid.data[r, c, 0], 0.9999999728171824, rtol=0, atol=1e-15)
    np.testing.assert_allclose(aux.weight_sum[1, 1], 1.0, rtol=0, atol=1e-15)


def test_two_equidistant_points_average():
    """Equal weight and depth, features 0 and 1, so V lands on 0.5."""
    cam = _cam()
    pa = _point_at_pixel_center(cam, 6, 5, depth=2.0)
    pb = _point_at_pixel_center(cam, 6, 7, depth=2.0)
    cloud = PointCloud(np.stack([pa, pb]))
    grid, _ = splat_forward(cloud, np.array([[0.0], [1.0]]), cam, SplatConfig(sigma=2.0))
    # query pixel (6, 6) sits exactly between the two projections
    assert abs(grid.data[6, 6, 0] - 0.5) < 1e-6


def test_forward_matches_naive_oracle():
    """Truncation-free agreement where the window covers the whole grid."""
    rng = np.random.default_rng(21)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.7, 0.7, size=(7, 3))
        feats = rng.random((7, 2))
        cam = _cam(side=10, focal=7.0)
        cfg = SplatConfig(sigma=1.1, radius=20, depth_weighting=bool(seed % 2))
        grid, _ = splat_forward(PointCloud(pts), feats, cam, cfg)
        expected = naive_splat(pts, feats, cam, cfg)
        np.testing.assert_allclose(grid.data, expected, rtol=0, atol=1e-12)


def test_forward_truncation_tail_bound():
    """Default radius stays within the analytic tail bound of the oracle."""
    rng = np.random.default_rng(33)
    pts = rng.uniform(-0.7, 0.7, size=(16, 3))
    feats = rng.random((16, 3))
    cam = _cam(side=16, focal=11.0)
    cfg = SplatConfig(sigma=0.5, radius=5)
    grid, _ = splat_forward(PointCloud(pts), feats, cam, cfg)
    expected = naive_splat(pts, feats, cam, cfg)
    # radius = 10 sigma: excluded mass < exp(-50), far below 1e-7
    np.testing.assert_allclose(grid.data, expected, rtol=0, atol=1e-7)


# seeded, so every run draws the same examples and writes no example database
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), h=st.integers(1, 24), w=st.integers(1, 24),
       sigma=st.floats(0.2, 8.0), radius=st.integers(1, 30), depth_weighting=st.booleans())
def test_sequential_equals_parallel_bitwise(seed, n, h, w, sigma, radius, depth_weighting):
    """Both accumulators agree bit for bit, over windows clipped on every side.

    The contributions must be exactly the in-grid pixel centers within
    Chebyshev distance radius of each visible point, in (point, row, col) order.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.2, 1.2, size=(n, 3))
    feats = rng.random((n, 3))
    cam = front_camera((h, w), 3.0, 0.85)
    cfg = SplatConfig(sigma=sigma, radius=radius, depth_weighting=depth_weighting)
    par, par_aux = splat_forward(PointCloud(pts), feats, cam, cfg, sequential=False)
    seq, seq_aux = splat_forward(PointCloud(pts), feats, cam, cfg, sequential=True)
    assert np.array_equal(par.data, seq.data)
    assert np.array_equal(par_aux.weight_sum, seq_aux.weight_sum)

    u, _, valid = project_points(cam, pts)
    rows, cols = np.divmod(np.arange(h * w), w)
    pairs = [(k, pix) for k in np.flatnonzero(valid) for pix in range(h * w)
             if abs(cols[pix] + 0.5 - u[k, 0]) <= radius and abs(rows[pix] + 0.5 - u[k, 1]) <= radius]
    expected = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    pts, count, pixel, *_ = _contributions(par_aux.u, par_aux.z, np.flatnonzero(par_aux.valid), cfg, h, w)
    assert np.array_equal(np.repeat(pts, count), expected[:, 0])
    assert np.array_equal(pixel, expected[:, 1])
    assert par_aux.n_contrib == len(pairs)
    assert par.empty == (len(pairs) == 0)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), h=st.integers(1, 24), w=st.integers(1, 24),
       sigma=st.floats(0.2, 8.0), radius=st.integers(1, 30), c=st.integers(1, 5),
       depth_weighting=st.booleans(), fortran=st.booleans(), culled=st.floats(0.0, 1.0))
@example(seed=0, n=5, h=6, w=7, sigma=1.0, radius=2, c=2, depth_weighting=True, fortran=False, culled=1.0)
def test_backward_matches_gather_oracle_bitwise(seed, n, h, w, sigma, radius, c, depth_weighting, fortran, culled):
    """splat_backward equals the row-gather oracle bit for bit; culled=1 leaves no contribution."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.2, 1.2, size=(n, 3))
    pts[rng.random(n) < culled, 2] = -9.0
    feats = rng.random((n, c))
    upstream = rng.standard_normal((h, w, c))
    if fortran:
        upstream = np.asfortranarray(upstream)
    cam = front_camera((h, w), 3.0, 0.85)
    cfg = SplatConfig(sigma=sigma, radius=radius, depth_weighting=depth_weighting)
    cloud = PointCloud(pts)
    _, aux = splat_forward(cloud, feats, cam, cfg)
    if culled == 1.0:
        assert aux.n_contrib == 0
        assert aux.weight_grid().empty
    got = splat_backward(aux, cloud, feats, upstream, with_sigma=True)
    d_points, d_features, d_sigma = gather_backward(aux, cloud, feats, upstream)
    assert np.array_equal(got.d_points, d_points)
    assert np.array_equal(got.d_features, d_features)
    assert got.d_sigma == d_sigma


@pytest.mark.parametrize("n, h, w, radius", [(3000, 40, 48, 4), (600, 24, 20, 30)])
def test_blocked_splat_matches_whole_list_bitwise(n, h, w, radius):
    """Across at least three point blocks, both passes keep the whole-list sums bit for bit.

    The forward equals one bincount over the unblocked contribution list and
    the backward the gather oracle; at radius 30 every window is clipped.
    """
    rng = np.random.default_rng(n + radius)
    pts = rng.uniform(-0.9, 0.9, size=(n, 3))
    feats = rng.random((n, 3))
    upstream = rng.standard_normal((h, w, 3))
    cam = front_camera((h, w), 3.0, 0.85)
    cfg = SplatConfig(sigma=radius / 3.0, radius=radius)
    cloud = PointCloud(pts)
    grid, aux = splat_forward(cloud, feats, cam, cfg)
    assert len(list(_contribution_blocks(aux.u, aux.z, aux.valid, cfg, h, w))) >= 3

    pts, count, pixel, weight, _, _ = _contributions(aux.u, aux.z, np.flatnonzero(aux.valid), cfg, h, w)
    point = np.repeat(pts, count)
    assert aux.n_contrib == point.size
    den = np.bincount(pixel, weights=weight, minlength=h * w).reshape(h, w)
    num = np.stack([np.bincount(pixel, weights=weight * feats[:, ch][point], minlength=h * w)
                    for ch in range(3)], axis=1)
    assert np.array_equal(aux.weight_sum, den)
    assert np.array_equal(grid.data, num.reshape(h, w, 3) / (den + cfg.eps_norm)[:, :, None])

    got = splat_backward(aux, cloud, feats, upstream, with_sigma=True)
    d_points, d_features, d_sigma = gather_backward(aux, cloud, feats, upstream)
    assert np.array_equal(got.d_points, d_points)
    assert np.array_equal(got.d_features, d_features)
    assert got.d_sigma == d_sigma


def test_splat_memory_stays_flat_in_contribution_count():
    """At radius 40 on 32x32 every point covers the grid; 4x the points may not cost 4x the memory."""
    h = w = 32
    cam = front_camera((h, w), 3.0, 0.85)
    cfg = SplatConfig(sigma=4.0, radius=40)
    peaks = []
    for n in (600, 2400):
        rng = np.random.default_rng(n)
        cloud = PointCloud(rng.uniform(-0.9, 0.9, size=(n, 3)))
        feats = rng.random((n, 3))
        upstream = rng.standard_normal((h, w, 3))
        tracemalloc.start()
        try:
            _, aux = splat_forward(cloud, feats, cam, cfg)
            splat_backward(aux, cloud, feats, upstream)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert aux.n_contrib > n * h * w // 2
        arrays = [v for v in vars(aux).values() if isinstance(v, np.ndarray)]
        assert all(a.size <= max(2 * n, h * w * 3) for a in arrays)
    assert peaks[1] <= 1.25 * peaks[0]


def test_translation_equivariance_integer_shift():
    """Shifting the principal point by one pixel shifts the grid exactly."""
    rng = np.random.default_rng(9)
    pts = rng.uniform(-0.4, 0.4, size=(12, 3))
    feats = rng.random((12, 2))
    cfg = SplatConfig(sigma=1.0, radius=3)
    base = _cam(side=16, focal=6.0)
    shifted = CameraModel(base.focal, (base.principal[0] + 1.0, base.principal[1]),
                          base.rotation, base.translation, base.resolution)
    g1, _ = splat_forward(PointCloud(pts), feats, base, cfg)
    g2, _ = splat_forward(PointCloud(pts), feats, shifted, cfg)
    # u picks up one rounding step from the shifted principal-point sum, so
    # agreement is ulp-level rather than bitwise
    np.testing.assert_allclose(g1.data[:, :-1], g2.data[:, 1:], rtol=1e-12, atol=1e-15)


def test_convex_combination_bound():
    rng = np.random.default_rng(14)
    pts = rng.uniform(-0.6, 0.6, size=(20, 3))
    feats = rng.random((20, 1))
    cam = _cam(side=14, focal=10.0)
    grid, aux = splat_forward(PointCloud(pts), feats, cam, SplatConfig())
    covered = aux.weight_sum > 0
    lo, hi = feats.min(), feats.max()
    vals = grid.data[:, :, 0][covered]
    assert (vals >= lo - 1e-6).all() and (vals <= hi + 1e-6).all()


def test_empty_when_all_culled():
    cloud = PointCloud(np.array([[0.0, 0.0, -5.0]]))
    cam = _cam()
    grid, aux = splat_forward(cloud, np.array([[1.0]]), cam, SplatConfig())
    assert grid.empty
    assert not grid.data.any()
    assert not aux.weight_sum.any()


def test_offgrid_point_contributes_nothing():
    cam = _cam(side=8, focal=4.0)
    # projects far outside the 8x8 grid
    cloud = PointCloud(np.array([[50.0, 0.0, 0.0]]))
    grid, _ = splat_forward(cloud, np.array([[1.0]]), cam, SplatConfig(radius=2))
    assert grid.empty


def test_backward_zero_upstream():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.5, 0.5, size=(6, 3))
    feats = rng.random((6, 2))
    cam = _cam()
    cloud = PointCloud(pts)
    _, aux = splat_forward(cloud, feats, cam, SplatConfig())
    g = splat_backward(aux, cloud, feats, np.zeros((12, 12, 2)), with_sigma=True)
    assert not g.d_points.any()
    assert not g.d_features.any()
    assert g.d_sigma == 0.0


def test_backward_single_contributor_feature_grad():
    """One point, upstream 1 on one pixel: d_features = w / (w + eps)."""
    cam = _cam(side=3, focal=2.0, depth=1.0)
    p = _point_at_pixel_center(cam, 1, 1, depth=1.0)
    cfg = SplatConfig(sigma=1.0, radius=1, depth_weighting=False)
    cloud = PointCloud(p[None, :])
    feats = np.array([[0.3]])
    _, aux = splat_forward(cloud, feats, cam, cfg)
    # upstream zero except at the center pixel, where the weight is exp(0)
    upstream = np.zeros((3, 3, 1))
    upstream[1, 1, 0] = 1.0
    g = splat_backward(aux, cloud, feats, upstream)
    np.testing.assert_allclose(g.d_features, [[1.0 / (1.0 + 1e-8)]], rtol=0, atol=1e-15)


def test_backward_culled_points_get_zero_grad():
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -9.0]])
    feats = np.array([[0.5], [0.5]])
    cam = _cam()
    cloud = PointCloud(pts)
    _, aux = splat_forward(cloud, feats, cam, SplatConfig())
    g = splat_backward(aux, cloud, feats, np.ones((12, 12, 1)))
    assert g.d_points[1].tolist() == [0.0, 0.0, 0.0]
    assert g.d_features[1, 0] == 0.0
    assert g.d_points[0].any()


def test_backward_shape_mismatch_rejected():
    cam = _cam()
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    feats = np.array([[1.0]])
    _, aux = splat_forward(cloud, feats, cam, SplatConfig())
    with pytest.raises(InvalidInputError):
        splat_backward(aux, cloud, feats, np.zeros((5, 5, 1)))


def test_rasterize_hard_single_write():
    cam = _cam(side=8, focal=4.0, depth=0.0)
    p = _point_at_pixel_center(cam, 3, 4, depth=2.0)
    grid = rasterize_hard(PointCloud(p[None, :]), cam, mode="depth")
    assert grid.data[3, 4, 0] == 2.0
    assert np.count_nonzero(grid.data) == 1


def test_rasterize_hard_zbuffer_nearer_wins():
    cam = _cam(side=8, focal=4.0, depth=0.0)
    pa = _point_at_pixel_center(cam, 2, 2, depth=2.0)
    pb = _point_at_pixel_center(cam, 2, 2, depth=1.0)
    grid = rasterize_hard(PointCloud(np.stack([pa, pb])), cam, mode="depth")
    assert grid.data[2, 2, 0] == 1.0


def test_rasterize_hard_equal_depth_lower_index():
    cam = _cam(side=8, focal=4.0, depth=0.0)
    p = _point_at_pixel_center(cam, 2, 2, depth=1.0)
    cloud = PointCloud(np.stack([p, p]), np.array([[0.2, 0.2, 0.2], [0.9, 0.9, 0.9]]))
    grid = rasterize_hard(cloud, cam, mode="ccm")
    np.testing.assert_array_equal(grid.data[2, 2], [0.2, 0.2, 0.2])


def test_rasterize_hard_ccm_matches_bruteforce():
    """Per-pixel argmin-depth oracle over all points."""
    rng = np.random.default_rng(6)
    pts = rng.uniform(-0.8, 0.8, size=(60, 3))
    feats = rng.random((60, 3))
    cloud = PointCloud(pts, feats)
    cam = _cam(side=10, focal=6.0)
    grid = rasterize_hard(cloud, cam, mode="ccm")

    u, z, valid = project_points(cam, pts)
    expected = np.zeros((10, 10, 3))
    best = np.full((10, 10), np.inf)
    owner = np.full((10, 10), -1)
    for k in range(60):
        if not valid[k]:
            continue
        col, row = int(math.floor(u[k, 0])), int(math.floor(u[k, 1]))
        if not (0 <= row < 10 and 0 <= col < 10):
            continue
        if z[k] < best[row, col]:
            best[row, col] = z[k]
            owner[row, col] = k
    for row in range(10):
        for col in range(10):
            if owner[row, col] >= 0:
                expected[row, col] = feats[owner[row, col]]
    np.testing.assert_array_equal(grid.data, expected)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), h=st.integers(1, 8), w=st.integers(1, 8),
       levels=st.integers(1, 6), culled=st.floats(0.0, 0.5))
def test_zbuffer_matches_bruteforce_argmin(seed, n, h, w, levels, culled):
    """Each pixel takes the row of its lowest (z, index) member, also among coincident points.

    Coordinates snap to a lattice of ``levels`` values per axis, so points
    coincide and depths tie; some points are culled and some fall off the grid.
    """
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, levels, size=(n, 3)) / max(levels - 1, 1) * 2.4 - 1.2
    pts[rng.random(n) < culled, 2] = -9.0
    feats = rng.random((n, 2))
    cam = front_camera((h, w), 3.0, 0.85)
    data, empty = _scatter_min_depth(pts, feats, cam)

    u, z, valid = project_points(cam, pts)
    expected = np.zeros((h, w, 2))
    hit = False
    for row in range(h):
        for col in range(w):
            members = [k for k in range(n) if valid[k]
                       and math.floor(u[k, 0]) == col and math.floor(u[k, 1]) == row]
            if members:
                expected[row, col] = feats[min(members, key=lambda k: (z[k], k))]
                hit = True
    assert np.array_equal(data, expected)
    assert empty == (not hit)


def test_rasterize_hard_empty_flag():
    # camera sits at z = 3 looking forward, so this point is behind it
    cloud = PointCloud(np.array([[0.0, 0.0, -5.0]]))
    grid = rasterize_hard(cloud, _cam(), mode="depth")
    assert grid.empty


def test_hard_hit_count_counts_multiplicity():
    cam = _cam(side=8, focal=4.0, depth=0.0)
    p = _point_at_pixel_center(cam, 1, 1, depth=1.0)
    cloud = PointCloud(np.stack([p, p, p]))
    counts = hard_hit_count(cloud, cam)
    assert counts.data[1, 1, 0] == 3.0
    assert counts.data.sum() == 3.0


def test_support_hard_counts_distinct_pixels():
    cam = _cam(side=16, focal=10.0, depth=0.0)
    pts = np.stack([
        _point_at_pixel_center(cam, 2, 2, depth=1.0),
        _point_at_pixel_center(cam, 2, 2, depth=2.0),
        _point_at_pixel_center(cam, 5, 9, depth=1.0),
    ])
    assert support_measure(PointCloud(pts), cam, SplatConfig(), "hard") == 2.0


def test_support_soft_disc_area():
    """Isolated point: soft support within 5% of pi*(3 sigma)^2, 3 sigma = 10."""
    cam = _cam(side=64, focal=30.0, depth=0.0)
    p = _point_at_pixel_center(cam, 32, 32, depth=1.0)
    cfg = SplatConfig(sigma=10.0 / 3.0)
    area = support_measure(PointCloud(p[None, :]), cam, cfg, "soft")
    assert area == 317.0
    assert abs(area - math.pi * 100.0) / (math.pi * 100.0) < 0.05


def test_support_soft_huge_sigma_covers_grid():
    """A 3 sigma reach past float64 range still covers every pixel, without an overflow."""
    cam = _cam(side=16, focal=8.0)
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [0.1, -0.2, 0.3]]))
    assert support_measure(cloud, cam, SplatConfig(sigma=1e308), "soft") == 256.0


def test_support_soft_memory_stays_near_one_block():
    """At a reach past the grid every window is the whole 256x256 grid.

    Blocks of about 1 MB of window cells, down to one window, keep the traced
    peak near 8 MiB; blocks of 64 whole-grid windows would take about 260 MiB.
    """
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.uniform(-0.9, 0.9, size=(128, 3)))
    cam = front_camera((256, 256), 3.0, 0.85)
    tracemalloc.start()
    try:
        area = support_measure(cloud, cam, SplatConfig(sigma=1000.0), "soft")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert area == 256.0 * 256.0
    assert peak < 16 * 2**20


def test_support_soft_disjoint_union_doubles():
    cam = _cam(side=64, focal=30.0, depth=0.0)
    pa = _point_at_pixel_center(cam, 16, 16, depth=1.0)
    pb = _point_at_pixel_center(cam, 48, 48, depth=1.0)
    cfg = SplatConfig(sigma=1.0)
    one = support_measure(PointCloud(pa[None, :]), cam, cfg, "soft")
    both = support_measure(PointCloud(np.stack([pa, pb])), cam, cfg, "soft")
    assert both == 2.0 * one


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), h=st.integers(1, 40), w=st.integers(1, 40),
       sigma=st.floats(0.1, 7.0))
# sigma = 30 on 48x200 spreads the windows of 200 points over two 2**20-cell chunks
@example(seed=1, n=200, h=48, w=200, sigma=30.0)
def test_support_soft_matches_bruteforce(seed, n, h, w, sigma):
    """Soft support counts the pixel centers within 3 sigma of a point, or hit by a hard bin."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.2, 1.2, size=(n, 3))
    cam = front_camera((h, w), 3.0, 0.85)
    u, _, valid = project_points(cam, pts)
    reach = 3.0 * sigma
    dx = (np.arange(w) + 0.5)[None, None, :] - u[valid, 0][:, None, None]
    dy = (np.arange(h) + 0.5)[None, :, None] - u[valid, 1][:, None, None]
    covered = (dy ** 2 + dx ** 2 <= reach * reach).any(axis=0)
    inside = valid & (u[:, 0] >= 0) & (u[:, 0] < w) & (u[:, 1] >= 0) & (u[:, 1] < h)
    covered[np.floor(u[inside, 1]).astype(int), np.floor(u[inside, 0]).astype(int)] = True
    assert support_measure(PointCloud(pts), cam, SplatConfig(sigma=sigma), "soft") == covered.sum()


def test_support_dominance_random_triples():
    rng = np.random.default_rng(77)
    for _ in range(25):
        pts = rng.uniform(-1.0, 1.0, size=(rng.integers(2, 40), 3))
        cam = front_camera((20, 20), 3.0, 0.85)
        cfg = SplatConfig(sigma=float(rng.uniform(0.2, 3.0)))
        cloud = PointCloud(pts)
        assert (support_measure(cloud, cam, cfg, "soft")
                >= support_measure(cloud, cam, cfg, "hard"))


def test_soft_density_riemann_sum_is_one():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.uniform(-0.8, 0.8, size=(30, 3)))
    cam = front_camera((32, 32), 3.0, 0.85)
    field = soft_density_grid(cloud, cam, SplatConfig())
    assert abs(field.data.sum() - 1.0) < 1e-12


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), h=st.integers(1, 64), w=st.integers(1, 64),
       log_sigma=st.floats(math.log(0.05), math.log(10.0)), depth_weighting=st.booleans())
def test_density_matches_loop_oracle(seed, n, h, w, log_sigma, depth_weighting):
    """The separable field, its closed-form normalizer and PMI agree with the per-point loop."""
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.uniform(-1.2, 1.2, size=(n, 3)))
    cam = front_camera((h, w), 3.0, 0.85)
    cfg = SplatConfig(sigma=math.exp(log_sigma), depth_weighting=depth_weighting)
    q = rng.uniform(0.0, 1.0, 2) * (w, h)

    field, u, alpha = loop_density(cloud, cam, cfg)
    total = field.sum()
    empty = alpha.size == 0 or total <= 0.0
    got = soft_density_grid(cloud, cam, cfg)
    assert got.empty == empty
    want = np.zeros_like(field) if empty else field / total
    normal = want >= np.finfo(float).tiny
    np.testing.assert_allclose(got.data[:, :, 0][normal], want[normal], rtol=1e-12, atol=0)

    pmi = np.full_like(want, PMI_FLOOR)
    nz = want > 0.0
    pmi[nz] = np.maximum(np.log(want[nz] * want.size), PMI_FLOOR)
    np.testing.assert_allclose(pmi_field(cloud, cam, cfg).data[:, :, 0], pmi, rtol=0, atol=1e-12)

    d2 = ((u - q) ** 2).sum(axis=1)
    at_q = 0.0 if empty else float(np.sum(alpha * np.exp(-d2 / (2.0 * cfg.sigma ** 2)))) / total
    np.testing.assert_allclose(soft_density(cloud, cam, cfg, q), at_q, rtol=1e-12, atol=0)


def test_soft_density_peak_at_projection():
    cam = _cam(side=21, focal=12.0, depth=0.0)
    p = _point_at_pixel_center(cam, 10, 10, depth=1.5)
    cloud = PointCloud(p[None, :])
    field = soft_density_grid(cloud, cam, SplatConfig())
    assert np.unravel_index(field.data.argmax(), field.data.shape) == (10, 10, 0)
    # point query at the projection equals the grid maximum
    q = np.array([10.5, 10.5])
    assert abs(soft_density(cloud, cam, SplatConfig(), q) - field.data.max()) < 1e-12


def test_soft_density_multiplicity_absorbed():
    """Two identical points give the same normalized field as one."""
    cam = _cam(side=16, focal=8.0, depth=0.0)
    p = _point_at_pixel_center(cam, 8, 8, depth=1.0)
    one = soft_density_grid(PointCloud(p[None, :]), cam, SplatConfig())
    two = soft_density_grid(PointCloud(np.stack([p, p])), cam, SplatConfig())
    np.testing.assert_allclose(two.data, one.data, rtol=0, atol=1e-15)


def test_soft_density_all_culled_is_zero():
    cloud = PointCloud(np.array([[0.0, 0.0, -4.0]]))
    cam = _cam()
    field = soft_density_grid(cloud, cam, SplatConfig())
    assert field.empty
    assert not field.data.any()
    assert soft_density(cloud, cam, SplatConfig(), np.array([1.0, 1.0])) == 0.0


def test_far_point_changes_nothing():
    """x = 1e200 at depth 0.5 projects to a finite but huge u; it adds nothing and warns nowhere."""
    rng = np.random.default_rng(5)
    near = rng.uniform(-0.8, 0.8, size=(6, 3))
    clouds = [PointCloud(near), PointCloud(np.vstack([near, [1e200, 0.0, -2.5]]))]
    feats = rng.random((7, 2))
    cam = front_camera((8, 8))
    cfg = SplatConfig()

    def outputs(cloud):
        grid, aux = splat_forward(cloud, feats[: len(cloud)], cam, cfg)
        return [grid.data, aux.weight_sum,
                support_measure(cloud, cam, cfg, "hard"), support_measure(cloud, cam, cfg, "soft"),
                soft_density_grid(cloud, cam, cfg).data, pmi_field(cloud, cam, cfg).data,
                soft_density(cloud, cam, cfg, (4.2, 3.9)), soft_density(cloud, cam, cfg, (1e200, 4.0))]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        without, with_far = (outputs(c) for c in clouds)
    for a, b in zip(without, with_far):
        assert np.array_equal(a, b)


def test_splat_config_validation():
    with pytest.raises(InvalidInputError):
        SplatConfig(sigma=0.0)
    with pytest.raises(InvalidInputError):
        SplatConfig(radius=-1)
    with pytest.raises(InvalidInputError):
        SplatConfig(eps_norm=0.0)


def test_feature_count_must_match():
    cloud = PointCloud(np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        splat_forward(cloud, np.ones((3, 1)), _cam(), SplatConfig())
