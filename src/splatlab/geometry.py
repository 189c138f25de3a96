"""Geometric core: point clouds, pinhole cameras, normalization, k-NN, synthetic clouds.

Conventions used throughout the package:

* world and camera frames are right-handed; a camera at identity rotation with
  translation (0, 0, d) looks along +z at geometry near the origin,
* image coordinates u = (u_x, u_y) put u_x along columns and u_y along rows,
  pixel (row, col) covers [col, col+1) x [row, row+1) with its center at
  (col + 0.5, row + 0.5),
* points whose camera-frame depth is <= CULL_DEPTH are culled.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

CULL_DEPTH = 1e-9
# front_camera defaults; the CLI's camera defaults are these same values
FRONT_RESOLUTION = (128, 128)
FRONT_DISTANCE = 3.0
FRONT_FILL = 0.85
# largest pixel grid a camera may have: 2**26 float64 pixels are 512 MB per channel
MAX_PIXELS = 2**26
# row-blocked kernels (knn, nearest-neighbor scans, attention) size each block's
# temporary to about 1 MB so it stays in cache
_CHUNK_BYTES = 2**20
_MIN_CHUNK_ROWS = 64


def _as_points(arr) -> np.ndarray:
    """``arr`` as finite (N, 3) float64 coordinates, N >= 1; a PointCloud's points pass as they are."""
    if isinstance(arr, PointCloud):
        return arr.points
    return _finite_array(arr, (None, 3), "points must be an (N, 3) array of finite numbers, N >= 1")


def _finite_array(value, shape: tuple[int | None, ...], msg: str) -> np.ndarray:
    """``value`` as a finite float64 array of ``shape``, else InvalidInputError(msg).

    A None extent matches any extent >= 1, a vector may come in any layout and
    ``shape=()`` takes one real number as a 0-d array. Only bool, integer and
    float values pass (no strings or objects); a float64 array comes back
    as it is, without a copy.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        raise InvalidInputError(msg) from None
    if arr.dtype.kind not in "biuf":
        raise InvalidInputError(msg)
    arr = arr.astype(np.float64, copy=False)
    if len(shape) == 1:
        arr = arr.reshape(-1)
    fits = arr.ndim == len(shape) and all(n >= 1 if s is None else n == s for n, s in zip(arr.shape, shape))
    if not fits or not np.isfinite(arr).all():
        raise InvalidInputError(msg)
    return arr


def _count(value, lo: int, msg: str) -> int:
    """``value`` as an int >= lo, else InvalidInputError(msg).

    Integral reals pass (4.0, numpy integers); strings, None, fractions, NaN,
    inf and integers too large for a float64 do not.
    """
    try:
        ok = isinstance(value, numbers.Real) and int(value) == value and math.isfinite(float(value))
    except (ValueError, OverflowError):
        ok = False
    if not ok or value < lo:
        raise InvalidInputError(msg)
    return int(value)


def _resolution(value) -> tuple[int, int]:
    """(height, width) as ints; both entries must be integral numbers >= 1, at most MAX_PIXELS in all."""
    msg = "resolution must be two integral numbers >= 1"
    try:
        h, w = value
    except (TypeError, ValueError):
        raise InvalidInputError(msg) from None
    h, w = _count(h, 1, msg), _count(w, 1, msg)
    if h * w > MAX_PIXELS:
        raise InvalidInputError(f"resolution must have at most {MAX_PIXELS} pixels")
    return h, w


@dataclass
class PointCloud:
    """N world-space positions with optional per-point feature rows.

    ``points`` is (N, 3) float64; ``features`` is (N, C) float64 or None.
    Feature values are expected to lie in [0, 1] when used as CCM pseudo-color.
    """

    points: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self):
        self.points = _as_points(self.points)
        if self.features is not None:
            n = self.points.shape[0]
            self.features = _finite_array(self.features, (n, None), f"features must be a finite ({n}, C) array, C >= 1")

    def __len__(self) -> int:
        return self.points.shape[0]

    def with_points(self, points: np.ndarray) -> "PointCloud":
        """Same features, new coordinates."""
        feats = None if self.features is None else self.features.copy()
        return PointCloud(_as_points(points).copy(), feats)


@dataclass
class CameraModel:
    """Pinhole intrinsics, rigid extrinsics and the target grid resolution.

    ``focal`` is (f_x, f_y), ``principal`` is (c_x, c_y), ``resolution`` is
    (height, width). ``rotation`` must be orthonormal within 1e-9.
    """

    focal: tuple[float, float]
    principal: tuple[float, float]
    rotation: np.ndarray
    translation: np.ndarray
    resolution: tuple[int, int]

    def __post_init__(self):
        fx, fy = _finite_array(self.focal, (2,), "focal lengths must be a finite 2-vector")
        if fx <= 0 or fy <= 0:
            raise InvalidInputError("focal lengths must be finite and positive")
        self.focal = (float(fx), float(fy))
        cx, cy = _finite_array(self.principal, (2,), "principal point must be a finite 2-vector")
        self.principal = (float(cx), float(cy))
        rot = _finite_array(self.rotation, (3, 3), "rotation must be a finite 3x3 matrix")
        if np.max(np.abs(rot.T @ rot - np.eye(3))) > 1e-9:
            raise InvalidInputError("rotation must be orthonormal within 1e-9")
        self.rotation = rot
        self.translation = _finite_array(self.translation, (3,), "translation must be a finite 3-vector")
        self.resolution = _resolution(self.resolution)

    @property
    def height(self) -> int:
        return self.resolution[0]

    @property
    def width(self) -> int:
        return self.resolution[1]

    def to_dict(self) -> dict:
        """JSON-ready intrinsics, extrinsics and resolution, as reports echo them."""
        return {
            "focal": list(self.focal),
            "principal": list(self.principal),
            "rotation": self.rotation.tolist(),
            "translation": self.translation.tolist(),
            "resolution": list(self.resolution),
        }


@dataclass
class BBox3D:
    """Oriented 3D box: center, per-axis dimensions (all > 0), yaw about the up axis."""

    center: np.ndarray
    dims: np.ndarray
    yaw: float

    def __post_init__(self):
        self.center = _finite_array(self.center, (3,), "bbox center must be a finite 3-vector")
        self.dims = _finite_array(self.dims, (3,), "bbox dims must be three positive finite values")
        if np.any(self.dims <= 0):
            raise InvalidInputError("bbox dims must be three positive finite values")
        self.yaw = float(_finite_array(self.yaw, (), "bbox yaw must be a finite number"))


@dataclass
class NeighborGraph:
    """k nearest-neighbor indices per point, row i listing point i's neighbors."""

    k: int
    indices: np.ndarray

    def __post_init__(self):
        try:
            idx = np.asarray(self.indices)
            ok = idx.dtype.kind in "iu" and idx.ndim == 2 and idx.shape[1] == self.k
        except ValueError:  # ragged nesting
            ok = False
        if not ok:
            raise InvalidInputError(f"indices must be an (N, {self.k}) integer array")
        self.indices = idx.astype(np.int64, copy=False)


def camera_coords(cam: CameraModel, points: np.ndarray) -> np.ndarray:
    """Apply the rigid extrinsics: p_cam = R p + t, row-wise.

    A row's result does not depend on how many rows come with it: numpy sends
    a one-row matmul to gemv, whose sums round differently from gemm's, so a
    single row is projected as a two-row block.
    """
    if points.shape[0] == 1:
        return (np.repeat(points, 2, axis=0) @ cam.rotation.T + cam.translation)[:1]
    return points @ cam.rotation.T + cam.translation


def project_points(cam: CameraModel, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project points through the pinhole model.

    Returns (u, z, valid) where u is (N, 2) image coordinates, z is (N,)
    camera-frame depth and valid marks points with z > CULL_DEPTH and finite
    u and z (a huge coordinate over a small depth overflows u to inf). Culled
    rows of u are NaN so accidental use is loud.
    """
    pts = _as_points(points)
    cam_pts = camera_coords(cam, pts)
    z = cam_pts[:, 2]
    valid = z > CULL_DEPTH
    fx, fy = cam.focal
    cx, cy = cam.principal
    safe_z = np.where(valid, z, 1.0)
    u = np.empty((pts.shape[0], 2), dtype=np.float64)
    with np.errstate(over="ignore"):
        u[:, 0] = fx * cam_pts[:, 0] / safe_z + cx
        u[:, 1] = fy * cam_pts[:, 1] / safe_z + cy
    valid &= np.isfinite(u).all(axis=1) & np.isfinite(z)
    u[~valid] = np.nan
    return u, z, valid


def normalize_unit(cloud: PointCloud) -> PointCloud:
    """Center on the centroid and scale so the farthest point sits on the unit sphere.

    Degenerate clouds (all points coincident) are centered and left at scale 1.
    The second centering pass keeps the output centroid at zero to within a few
    float eps even for large input offsets.
    """
    pts = cloud.points - cloud.points.mean(axis=0)
    pts = pts - pts.mean(axis=0)
    scale = float(np.max(np.linalg.norm(pts, axis=1)))
    if scale < 1e-12:
        scale = 1.0
    return cloud.with_points(pts / scale)


def _rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def normalize_kitti(cloud: PointCloud, bbox: BBox3D) -> PointCloud:
    """Express an object crop in its box's canonical frame.

    Steps: subtract the box center, rotate by -yaw about the up axis (z is up
    here, the usual LiDAR convention), divide by the box's first dimension
    (its length), then permute axes (x, y, z) -> (x, z, y).
    """
    if bbox.dims[0] <= 0:
        raise InvalidInputError("bbox length must be positive")
    pts = (cloud.points - bbox.center) @ _rot_z(-bbox.yaw).T
    pts = pts / bbox.dims[0]
    return cloud.with_points(pts[:, [0, 2, 1]])


def _row_chunks(n_rows: int, bytes_per_row: int, min_rows: int = _MIN_CHUNK_ROWS):
    """Slices covering range(n_rows) in order, each block's temporary about _CHUNK_BYTES.

    Blocks never drop below min_rows rows (except the tail). The default keeps
    _MIN_CHUNK_ROWS: a block of one row turns a BLAS gemm into a gemv, whose
    sums round differently. Kernels without BLAS can pass 1.
    """
    step = max(min_rows, _CHUNK_BYTES // max(bytes_per_row, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(n_rows, start + step))


def _sq_dist_rows(a: np.ndarray, b: np.ndarray):
    """Yield (rows, d2) per row block of a, d2[i, j] the squared distance from a[rows][i] to b[j].

    The sum order (dx*dx + dz*dz) + dy*dy is the one numpy's
    einsum("ijk,ijk->ij") takes over the three coordinates, so the entries
    are bit-equal to it while built only from correctly rounded elementwise
    ops. Each block holds about _CHUNK_BYTES of distances.
    """
    bt = b.T.copy()
    for rows in _row_chunks(a.shape[0], 8 * b.shape[0]):
        ar = a[rows]
        d2 = ar[:, 0, None] - bt[0]
        d2 *= d2
        for axis in (2, 1):
            t = ar[:, axis, None] - bt[axis]
            t *= t
            d2 += t
        yield rows, d2


def knn(cloud: PointCloud, k: int) -> NeighborGraph:
    """Exact k nearest neighbors by Euclidean distance.

    The query point itself is excluded while the cloud has more than k points;
    when N <= k every other point appears (nearest first) and the remaining
    slots are padded with the query's own index. Distance ties break toward
    the lower point index. The (N, k) index table may hold at most MAX_PIXELS
    entries.
    """
    pts = cloud.points
    n = pts.shape[0]
    k = _count(k, 1, "k must be an integer >= 1")
    if k > MAX_PIXELS // n:
        raise InvalidInputError(f"k must keep the (N, k) neighbor table within {MAX_PIXELS} entries")
    m = min(k, n - 1)  # neighbors that are other points; any slots past m hold the query
    out = np.empty((n, k), dtype=np.int64)
    for rows, d2 in _sq_dist_rows(pts, pts):
        own = np.arange(rows.start, rows.stop)
        d2[own - rows.start, own] = np.inf
        out[rows, m:] = own[:, None]
        if m:
            # every entry up to each row's m-th smallest distance, ties included,
            # sorted by (row, distance); lexsort is stable, so equal distances keep
            # nonzero's ascending column order
            thr = np.partition(d2, m - 1, axis=1)[:, m - 1]
            r, c = np.nonzero(d2 <= thr[:, None])
            order = np.lexsort((d2[r, c], r))
            first = np.searchsorted(r, np.arange(own.shape[0]))
            out[rows, :m] = c[order][first[:, None] + np.arange(m)]
    return NeighborGraph(k=k, indices=out)


def gen_sphere(n: int, seed: int) -> PointCloud:
    """n points drawn uniformly on the unit sphere (normalized Gaussian draws)."""
    n = _count(n, 1, "n must be an integer >= 1")
    rng = np.random.default_rng(_count(seed, 0, "seed must be an integer >= 0"))
    v = rng.standard_normal((n, 3))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        v[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1)
    return PointCloud(v / norms[:, None])


def gen_lidar(n: int, rays: int, seed: int) -> PointCloud:
    """n points along ``rays`` scan lines from a virtual sensor at the origin.

    Scan lines are separated in elevation (about y, sensor looking along +z)
    so a front camera sees the familiar horizontal streak bands. Point order
    is block-contiguous by ray: ray r holds n // rays points, the first
    n % rays rays one extra. Within a ray the azimuth varies widely while the
    elevation carries only a tiny jitter, giving the ray-like anisotropy.
    """
    n = _count(n, 1, "n must be an integer >= 1")
    rays = _count(rays, 1, "rays must be an integer >= 1")
    if rays > n:
        raise InvalidInputError("rays must satisfy 1 <= rays <= n")
    rng = np.random.default_rng(_count(seed, 0, "seed must be an integer >= 0"))
    base, extra = divmod(n, rays)
    if rays == 1:
        elevations = np.array([0.0])
    else:
        elevations = np.linspace(-0.35, 0.35, rays)
    parts = []
    for r in range(rays):
        m = base + (1 if r < extra else 0)
        azim = rng.uniform(-math.pi / 4, math.pi / 4, m)
        elev = elevations[r] + rng.normal(0.0, 0.002, m)
        dist = 2.0 + 0.25 * np.sin(3.0 * azim) + rng.normal(0.0, 0.01, m)
        x = dist * np.cos(elev) * np.sin(azim)
        y = dist * np.sin(elev)
        z = dist * np.cos(elev) * np.cos(azim)
        parts.append(np.stack([x, y, z], axis=1))
    return PointCloud(np.concatenate(parts, axis=0))


def ccm_features(cloud: PointCloud) -> np.ndarray:
    """Coordinate color map: three pseudo-color channels in [0, 1] per point.

    Uses the cloud's own features when they already carry three channels in
    [0, 1]; otherwise derives (p + 1) / 2 from the coordinates, which must lie
    in [-1, 1] (normalize_unit puts them there).
    """
    if cloud.features is not None and cloud.features.shape[1] == 3:
        feats = cloud.features
        if feats.min() < -1e-9 or feats.max() > 1.0 + 1e-9:
            raise InvalidInputError("3-channel features used as CCM must lie in [0, 1]")
        return np.clip(feats, 0.0, 1.0)
    pts = cloud.points
    if np.abs(pts).max() > 1.0 + 1e-9:
        raise InvalidInputError(
            "CCM needs coordinates in [-1, 1]; run normalize_unit (or normalize_kitti) first"
        )
    return np.clip((pts + 1.0) * 0.5, 0.0, 1.0)


def front_camera(
    resolution: tuple[int, int] = FRONT_RESOLUTION,
    distance: float = FRONT_DISTANCE,
    fill: float = FRONT_FILL,
) -> CameraModel:
    """Identity-rotation camera at (0, 0, -distance) framing the unit ball.

    ``fill`` scales the focal length so the ball's silhouette occupies that
    fraction of the half-extent; distance must exceed 1 so the tangent cone
    exists.
    """
    distance = float(_finite_array(distance, (), "distance must be a finite number"))
    if distance <= 1.0:
        raise InvalidInputError("distance must be > 1 to frame the unit ball")
    fill = float(_finite_array(fill, (), "fill must be a finite number"))
    if not 0.0 < fill <= 1.0:
        raise InvalidInputError("fill must be in (0, 1]")
    h, w = _resolution(resolution)
    f = fill * (min(h, w) / 2.0) * math.sqrt(distance * distance - 1.0)
    return CameraModel(
        focal=(f, f),
        principal=(w / 2.0, h / 2.0),
        rotation=np.eye(3),
        translation=np.array([0.0, 0.0, distance]),
        resolution=(h, w),
    )
