"""Tests for splatlab.geometry: cameras, projection, normalization, knn,
and the synthetic cloud generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatlab import geometry
from splatlab.errors import InvalidInputError
from splatlab.geometry import (
    MAX_PIXELS,
    BBox3D,
    CameraModel,
    PointCloud,
    camera_coords,
    ccm_features,
    front_camera,
    gen_lidar,
    gen_sphere,
    knn,
    normalize_kitti,
    normalize_unit,
    project_points,
)
from splatlab.losses import _nn_sq, chamfer


def brute_nn_sq(a, b, chunk=512):
    """Nearest row of b per row of a by einsum over the all-pairs differences; first index on ties."""
    d = np.empty(a.shape[0])
    idx = np.empty(a.shape[0], dtype=np.int64)
    for start in range(0, a.shape[0], chunk):
        diff = a[start:start + chunk, None, :] - b[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        best = np.argmin(d2, axis=1)
        idx[start:start + chunk] = best
        d[start:start + chunk] = d2[np.arange(len(best)), best]
    return d, idx


def brute_knn(points, k):
    """Stable argsort of each einsum distance row, self excluded, self-padded when N <= k."""
    n = points.shape[0]
    m = min(k, n - 1)
    out = np.empty((n, k), dtype=np.int64)
    chunk = max(1, 2**20 // n)
    for start in range(0, n, chunk):
        rows = np.arange(start, min(n, start + chunk))
        diff = points[rows, None, :] - points[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        d2[rows - start, rows] = np.inf
        out[rows, :m] = np.argsort(d2, axis=1, kind="stable")[:, :m]
        out[rows, m:] = rows[:, None]
    return out


def _identity_cam(focal=(1.0, 1.0), principal=(0.0, 0.0), resolution=(8, 8)):
    return CameraModel(
        focal=focal,
        principal=principal,
        rotation=np.eye(3),
        translation=np.zeros(3),
        resolution=resolution,
    )


def test_project_on_axis():
    """Point on the optical axis lands on the principal point."""
    cam = _identity_cam()
    u, z, valid = project_points(cam, np.array([[0.0, 0.0, 1.0]]))
    assert valid.tolist() == [True]
    np.testing.assert_array_equal(u, [[0.0, 0.0]])
    assert z.tolist() == [1.0]


def test_project_pinhole_division():
    cam = _identity_cam()
    u, z, _ = project_points(cam, np.array([[1.0, 0.0, 2.0]]))
    np.testing.assert_array_equal(u, [[0.5, 0.0]])
    assert z.tolist() == [2.0]


def test_project_hand_case():
    # fx*x/z + cx = 100*0.5/4 + 32 = 44.5; fy*y/z + cy = 100*(-0.25)/4 + 32
    cam = _identity_cam(focal=(100.0, 100.0), principal=(32.0, 32.0), resolution=(64, 64))
    cam = CameraModel(cam.focal, cam.principal, cam.rotation,
                      np.array([0.0, 0.0, 4.0]), cam.resolution)
    u, z, _ = project_points(cam, np.array([[0.5, -0.25, -4.0 + 4.0]]))
    np.testing.assert_allclose(u, [[44.5, 25.75]], rtol=0, atol=1e-12)
    assert z.tolist() == [4.0]


def test_project_matches_straightline_oracle():
    """Random pose and points against a second, straight-line implementation."""
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    t = rng.normal(size=3)
    cam = CameraModel((37.0, 41.0), (15.5, 16.5), q, t, (32, 32))
    pts = rng.normal(size=(50, 3))

    u, z, valid = project_points(cam, pts)
    for i, p in enumerate(pts):
        pc = q @ p + t
        if pc[2] <= 1e-9:
            assert not valid[i]
            continue
        ux = 37.0 * pc[0] / pc[2] + 15.5
        uy = 41.0 * pc[1] / pc[2] + 16.5
        np.testing.assert_allclose(u[i], [ux, uy], rtol=0, atol=1e-12)
        np.testing.assert_allclose(z[i], pc[2], rtol=0, atol=1e-12)


def test_project_ray_scaling_invariance():
    """Scaling a point along its ray leaves u unchanged under identity pose."""
    cam = _identity_cam(focal=(50.0, 50.0), principal=(4.0, 4.0))
    p = np.array([[0.3, -0.2, 1.7]])
    base, _, _ = project_points(cam, p)
    for lam in (0.5, 2.0, 7.3):
        u, _, _ = project_points(cam, lam * p)
        np.testing.assert_allclose(u, base, rtol=0, atol=1e-9)


def test_project_culls_nonpositive_depth():
    """Each point alone, so the one-row path of camera_coords is the one culled."""
    cam = _identity_cam()
    for p in ([0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1e-10]):
        u, _, valid = project_points(cam, np.array([p]))
        assert valid.tolist() == [False]
        assert np.isnan(u).all()


def test_project_rejects_nonfinite():
    cam = _identity_cam()
    with pytest.raises(InvalidInputError):
        project_points(cam, np.array([[np.nan, 0.0, 1.0]]))


def test_camera_rejects_bad_rotation():
    with pytest.raises(InvalidInputError):
        CameraModel((1.0, 1.0), (0.0, 0.0), np.eye(3) * 2.0, np.zeros(3), (4, 4))


def test_camera_rejects_non_integral_resolution():
    for res in ((32.7, 16), ("a", 3), (4,), (float("nan"), 4)):
        with pytest.raises(InvalidInputError):
            CameraModel((1.0, 1.0), (0.0, 0.0), np.eye(3), np.zeros(3), res)
    cam = CameraModel((1.0, 1.0), (0.0, 0.0), np.eye(3), np.zeros(3), (np.int64(5), 7.0))
    assert cam.resolution == (5, 7) and all(type(v) is int for v in cam.resolution)


def test_camera_coords_applies_extrinsics():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    cam = CameraModel((1.0, 1.0), (0.0, 0.0), q, np.array([1.0, 2.0, 3.0]), (4, 4))
    pts = rng.normal(size=(5, 3))
    np.testing.assert_allclose(camera_coords(cam, pts), pts @ q.T + [1, 2, 3], atol=1e-12)


def test_camera_coords_of_a_row_do_not_depend_on_its_block():
    """One row alone, two rows or 500 rows: each row gets the same bits."""
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    cam = CameraModel((1.0, 1.0), (0.0, 0.0), q * np.sign(np.linalg.det(q)), rng.normal(size=3), (4, 4))
    pts = rng.normal(size=(500, 3)) * 10.0
    whole = camera_coords(cam, pts)
    assert np.array_equal(np.vstack([camera_coords(cam, p[None]) for p in pts]), whole)
    assert np.array_equal(np.vstack([camera_coords(cam, pts[i:i + 2]) for i in range(0, 500, 2)]), whole)


def test_front_camera_frozen_focal():
    # 0.85 * (128/2) * sqrt(3^2 - 1), frozen from the construction formula
    cam = front_camera((128, 128), 3.0, 0.85)
    assert cam.focal[0] == pytest.approx(153.86643558619275, abs=1e-12)
    assert cam.focal[0] == cam.focal[1]
    assert cam.principal == (64.0, 64.0)
    np.testing.assert_array_equal(cam.rotation, np.eye(3))
    np.testing.assert_array_equal(cam.translation, [0.0, 0.0, 3.0])


def test_front_camera_keeps_unit_ball_visible():
    """Every unit-ball point projects inside the image for moderate fill."""
    cam = front_camera((96, 128), 2.5, 0.9)
    pts = gen_sphere(500, 1).points
    u, _, valid = project_points(cam, pts)
    assert valid.all()
    assert (u[:, 0] > 0).all() and (u[:, 0] < 128).all()
    assert (u[:, 1] > 0).all() and (u[:, 1] < 96).all()


def test_front_camera_validates():
    with pytest.raises(InvalidInputError):
        front_camera((32, 32), 1.0, 0.85)
    with pytest.raises(InvalidInputError):
        front_camera((32, 32), 3.0, 0.0)
    # 10**400 used to overflow at h / 2.0; 10**6 squared used to reach np.zeros;
    # 10**5000 has no repr under the int-to-str digit limit
    for res in ((32.7, 16), ("a", 3), (0, 16), (10**400, 3), (10**6, 10**6), (10**5000, "a")):
        with pytest.raises(InvalidInputError):
            front_camera(res)
    assert front_camera((np.int32(32), 16.0)).resolution == (32, 16)


def test_normalize_unit_symmetric_pair():
    out = normalize_unit(PointCloud(np.array([[2.0, 0, 0], [-2.0, 0, 0]])))
    np.testing.assert_allclose(out.points, [[1, 0, 0], [-1, 0, 0]], atol=1e-12)


def test_normalize_unit_degenerate_single_point():
    out = normalize_unit(PointCloud(np.array([[5.0, 5.0, 5.0]])))
    np.testing.assert_array_equal(out.points, [[0.0, 0.0, 0.0]])


def test_normalize_unit_contract_posthoc():
    """Recomputed centroid and max norm satisfy the contract."""
    rng = np.random.default_rng(7)
    out = normalize_unit(PointCloud(rng.normal(size=(200, 3)) * 3.0 + 5.0))
    np.testing.assert_allclose(out.points.mean(axis=0), np.zeros(3), atol=1e-12)
    assert abs(np.linalg.norm(out.points, axis=1).max() - 1.0) < 1e-12


def test_normalize_unit_preserves_features():
    feats = np.array([[0.1, 0.2, 0.3]])
    out = normalize_unit(PointCloud(np.array([[1.0, 2.0, 3.0]]), feats))
    np.testing.assert_array_equal(out.features, feats)


def test_normalize_kitti_centering():
    bbox = BBox3D(np.array([1.0, -2.0, 0.5]), np.array([2.0, 1.0, 1.0]), 0.77)
    out = normalize_kitti(PointCloud(bbox.center[None, :].copy()), bbox)
    np.testing.assert_allclose(out.points, [[0.0, 0.0, 0.0]], atol=1e-15)


def test_normalize_kitti_hand_composed():
    """yaw=pi/2, dims[0]=2: (2,0,0) -> rotate (0,-2,0) -> scale (0,-1,0)
    -> permute (0,0,-1)."""
    bbox = BBox3D(np.zeros(3), np.array([2.0, 1.0, 1.0]), math.pi / 2)
    out = normalize_kitti(PointCloud(np.array([[2.0, 0.0, 0.0]])), bbox)
    np.testing.assert_allclose(out.points, [[0.0, 0.0, -1.0]], atol=1e-12)


def test_normalize_kitti_identity_rotation_scale():
    bbox = BBox3D(np.zeros(3), np.array([1.0, 1.0, 1.0]), 0.0)
    out = normalize_kitti(PointCloud(np.array([[1.0, 2.0, 3.0]])), bbox)
    np.testing.assert_allclose(out.points, [[1.0, 3.0, 2.0]], atol=1e-15)


def test_normalize_kitti_rigid_invariance():
    """Rotating cloud and box together about the up axis changes nothing."""
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 3))
    bbox = BBox3D(np.array([0.5, 0.3, -0.2]), np.array([3.0, 1.5, 1.2]), 0.4)
    base = normalize_kitti(PointCloud(pts.copy()), bbox)

    theta = 1.1
    rot = np.array([
        [math.cos(theta), -math.sin(theta), 0.0],
        [math.sin(theta), math.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])
    shift = np.array([4.0, -1.0, 2.0])
    moved = PointCloud(pts @ rot.T + shift)
    bbox2 = BBox3D(rot @ bbox.center + shift, bbox.dims, bbox.yaw + theta)
    out = normalize_kitti(moved, bbox2)
    np.testing.assert_allclose(out.points, base.points, atol=1e-9)


def test_normalize_kitti_rejects_bad_dims():
    with pytest.raises(InvalidInputError):
        BBox3D(np.zeros(3), np.array([0.0, 1.0, 1.0]), 0.0)


def test_knn_collinear():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]]))
    graph = knn(cloud, 1)
    np.testing.assert_array_equal(graph.indices[:, 0], [1, 0, 1])


def test_knn_self_padding():
    graph = knn(PointCloud(np.array([[1.0, 2.0, 3.0]])), 2)
    np.testing.assert_array_equal(graph.indices, [[0, 0]])


def test_knn_excludes_self_when_enough_points():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.normal(size=(30, 3)))
    graph = knn(cloud, 6)
    for i in range(30):
        assert i not in graph.indices[i]


def test_knn_matches_bruteforce():
    """Sort-based all-pairs oracle, lower index on ties."""
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(64, 3))
    graph = knn(PointCloud(pts), 4)
    np.testing.assert_array_equal(graph.indices, brute_knn(pts, 4))


def _tie_cloud(kind, n, seed):
    """n points with many exactly equal distances: lattice, duplicated, or random with planted twins."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        side = int(np.ceil(n ** (1 / 3))) + 1
        grid = np.stack(np.meshgrid(*[np.arange(side) * 0.25] * 3, indexing="ij"), -1).reshape(-1, 3)
        return grid[rng.permutation(len(grid))[:n]] - 0.5
    if kind == "duplicates":
        return rng.integers(-2, 3, size=(n, 3)) * 0.5
    pts = rng.normal(size=(n, 3))
    twins = rng.integers(0, n, size=n // 4)
    pts[rng.integers(0, n, size=n // 4)] = pts[twins]
    return pts


EXACT_NN = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@settings(EXACT_NN, max_examples=25)
@given(kind=st.sampled_from(["lattice", "duplicates", "twins"]), seed=st.integers(0, 2**31 - 1),
       n=st.one_of(st.integers(1, 24), st.sampled_from([64 * 32 - 1, 64 * 32 + 1])),
       k=st.one_of(st.just(1), st.integers(1, 30)))
def test_knn_bit_equal_to_bruteforce_with_ties(kind, seed, n, k):
    """knn equals the stable-argsort oracle on clouds full of exact ties, N <= k and N = 1 included.

    From 2,047 points up the distance rows stream in 64-row blocks, so the
    large sizes end on a tail block of 63 or 1 rows.
    """
    pts = _tie_cloud(kind, n, seed)
    assert np.array_equal(knn(PointCloud(pts), k).indices, brute_knn(pts, k))


@EXACT_NN
@given(kind=st.sampled_from(["lattice", "duplicates", "twins"]), seed=st.integers(0, 2**31 - 1),
       j=st.integers(0, 34), off=st.integers(-1, 1), n_b=st.sampled_from([1, 7, 2048, 2300]))
def test_nn_sq_bit_equal_to_bruteforce_with_ties(kind, seed, j, off, n_b):
    """Distances and first-index argmins equal the einsum oracle, both ways, at 64 j +- 1 query rows."""
    a = _tie_cloud(kind, max(1, 64 * j + off), seed)
    b = _tie_cloud(kind, n_b, seed + 1)
    for x, y in ((a, b), (b, a)):
        d, idx = _nn_sq(x, y)
        want_d, want_idx = brute_nn_sq(x, y)
        assert np.array_equal(d, want_d) and np.array_equal(idx, want_idx)


def _lidar(n, seed):
    return normalize_unit(gen_lidar(n, 8, seed)).points


def _engine_case(case):
    """(queries a, searched b, k) with len(a) * len(b) past one distance block, so the cell grids run."""
    rng = np.random.default_rng(7)
    if case == "lidar":
        return _lidar(2048, 1), _lidar(2048, 2), 8
    if case == "shifted":  # scaled and moved partly outside b's box
        return 0.9 * _lidar(2048, 3) + [0.3, 0.0, -0.1], _lidar(2048, 3), 8
    if case == "faces":
        # 9^3 points with one corner moved out: box [0, 9]^3, cell widths 0.5, 1, 2 and 4,
        # so every lattice point and every half-integer query sits on cell faces
        grid = np.stack(np.meshgrid(*[np.arange(9.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
        grid[-1] = 9.0
        assert geometry._cell_width([9.0, 9.0, 9.0], len(grid)) == 1.0
        return grid[rng.permutation(len(grid))[:600]] + 0.5, grid, 6
    if case == "coincident":
        return np.full((600, 3), 0.25), np.full((600, 3), 0.25), 5
    if case == "collinear":
        # one axis, so the 1-D cell width; shuffled even spacing, so each query has
        # two equidistant nearest points and each knn row two equidistant neighbors,
        # met in cell order, not index order
        line = np.zeros((1500, 3)) + [0.0, 0.5, -0.25]
        line[:, 0] = rng.permutation(1500) * 0.25
        return line + [0.125, 0.0, 0.0], line, 2
    # "mixed": two far clusters certify; queries halfway between them find empty
    # blocks at every cell width and fall back to the brute-force scan
    b = rng.uniform(0.0, 0.1, (2048, 3))
    b[1024:, 0] += 10.0
    a = np.concatenate([b[::8] + 0.002, rng.uniform(0.0, 0.1, (256, 3)) + [5.0, 0.0, 0.0]])
    return a, b, 1


@pytest.mark.parametrize("case", ["lidar", "shifted", "faces", "coincident", "collinear", "mixed"])
def test_nn_sq_and_knn_bit_equal_to_bruteforce_past_the_crossover(case, monkeypatch):
    """The certified cell search returns the brute-force bits: distances, first-index argmins, knn order."""
    a, b, k = _engine_case(case)
    brute_rows = []

    def counting(q, pts):
        brute_rows.append(len(q))
        return _sq_dist_rows(q, pts)

    _sq_dist_rows = geometry._sq_dist_rows
    monkeypatch.setattr(geometry, "_sq_dist_rows", counting)
    for x, y in ((a, b), (b, a)):
        d, idx = _nn_sq(x, y)
        want_d, want_idx = brute_nn_sq(x, y)
        assert np.array_equal(d, want_d) and np.array_equal(idx, want_idx)
    if case == "mixed":
        assert 0 < brute_rows[0] < len(a)
    assert np.array_equal(knn(PointCloud(a), k).indices, brute_knn(a, k))


def test_knn_rejects_an_index_table_past_max_pixels():
    cloud = gen_sphere(10, 0)
    for k in (10**12, 2**62, np.int64(2**62), MAX_PIXELS // 10 + 1):
        with pytest.raises(InvalidInputError):
            knn(cloud, k)
    assert knn(cloud, 20).indices.shape == (10, 20)


def test_knn_permutation_equivariance():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(25, 3))
    perm = rng.permutation(25)
    inverse = np.empty(25, dtype=np.int64)
    inverse[perm] = np.arange(25)

    g1 = knn(PointCloud(pts), 3)
    g2 = knn(PointCloud(pts[perm]), 3)
    np.testing.assert_array_equal(g2.indices, inverse[g1.indices[perm]])


def test_gen_sphere_unit_norms():
    pts = gen_sphere(1000, 4).points
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)


def test_gen_sphere_deterministic():
    a = gen_sphere(100, 17).points
    b = gen_sphere(100, 17).points
    assert np.array_equal(a, b)


def test_gen_sphere_frozen_regression():
    pts = gen_sphere(4, 11).points
    expected = np.array([
        [0.018681436816318283, 0.74290675488042601, 0.66913418495210097],
        [-0.64429156388168507, -0.37620337054372088, -0.66585238957477377],
        [0.60541753377356788, -0.059576661617080237, 0.7936751421016629],
        [-0.7620842566379824, 0.64625460510085331, -0.039781543088146951],
    ])
    np.testing.assert_array_equal(pts, expected)


def test_gen_lidar_ray_structure():
    """Within-ray elevation spread is tiny next to the across-ray spread."""
    cloud = gen_lidar(1000, 8, 2)
    pts = cloud.points
    elev = np.arctan2(pts[:, 1], np.hypot(pts[:, 0], pts[:, 2]))

    # gen_lidar is block-contiguous by ray, the first n % rays rays one point longer
    blocks = np.array_split(np.arange(1000), 8)
    within = [elev[b].std() for b in blocks]
    means = [elev[b].mean() for b in blocks]
    assert max(within) < 0.01
    assert np.std(means) > 0.1
    assert max(within) < np.std(elev)


def test_gen_lidar_deterministic_and_validates():
    assert np.array_equal(gen_lidar(64, 8, 5).points, gen_lidar(64, 8, 5).points)
    with pytest.raises(InvalidInputError):
        gen_lidar(4, 8, 0)
    with pytest.raises(InvalidInputError):
        gen_lidar(0, 1, 0)


def test_ccm_features_from_coordinates():
    cloud = PointCloud(np.array([[1.0, -1.0, 0.0]]))
    np.testing.assert_allclose(ccm_features(cloud), [[1.0, 0.0, 0.5]], atol=1e-15)


def test_ccm_features_prefers_stored_features():
    feats = np.array([[0.25, 0.5, 0.75]])
    cloud = PointCloud(np.array([[9.0, 9.0, 9.0]]), feats)
    np.testing.assert_array_equal(ccm_features(cloud), feats)


def test_ccm_features_rejects_out_of_range():
    cloud = PointCloud(np.zeros((1, 3)), np.array([[1.5, 0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        ccm_features(cloud)


@pytest.mark.parametrize("points", [[[0, 0, 0], [1, 1]], "abc", [[0, 0, "x"]]])
def test_malformed_points_are_invalid_input(points):
    """Ragged or non-numeric rows raise InvalidInputError, not numpy's ValueError."""
    with pytest.raises(InvalidInputError):
        PointCloud(points)
    with pytest.raises(InvalidInputError):
        chamfer(points, np.zeros((1, 3)))


def test_pointcloud_validation():
    with pytest.raises(InvalidInputError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(InvalidInputError):
        PointCloud(np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        PointCloud(np.array([[np.inf, 0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        PointCloud(np.zeros((2, 3)), np.zeros((3, 1)))
