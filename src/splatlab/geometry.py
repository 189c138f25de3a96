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
# row-blocked kernels (attention, and the brute-force and cell-list nearest-neighbor
# scans) size each block's temporary to about 1 MB so it stays in cache. A
# nearest-neighbor scan whose whole distance table fits in one such block stays
# brute force: sorting the points into cells costs more than it saves there.
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


def _check_span(both: np.ndarray) -> None:
    """Raise InvalidInputError unless the box around the points has finite extents and squared diagonal.

    Every squared distance between the points is then finite too (rounding is
    monotone), and so is every cell index. Coordinates within +-2**509 pass
    on one reduction: every extent is then at most 2**510, and the three
    squares sum below 2**1022.
    """
    if np.abs(both).max() <= 2.0**509:
        return
    (hx, hy, hz), (lx, ly, lz) = both.max(axis=0).tolist(), both.min(axis=0).tolist()
    ext = [hx - lx, hy - ly, hz - lz]  # Python floats: an overflow gives inf, not a warning
    if not math.isfinite((ext[0] * ext[0] + ext[2] * ext[2]) + ext[1] * ext[1]):
        raise InvalidInputError("points are too far apart: a squared distance overflows float64")


def _cell_width(ext: list[float], n: int) -> float:
    """Width of cubic cells that hold about one point each if n points fill the box's non-flat axes.

    An axis narrower than a cell counts as flat: a curve gets its length / n,
    a sheet sqrt(area / n) and a solid (volume / n)^(1/3). Coincident points
    give 0. Extents enter as ratios to the longest, so nothing overflows.
    """
    e = sorted(ext, reverse=True)
    if not e[0] > 0.0:
        return 0.0
    for dim in (3, 2):
        h = e[0] * (math.prod(x / e[0] for x in e[1:dim]) / n) ** (1.0 / dim)
        if 0.0 < h <= e[dim - 1]:
            return h
    return e[0] / n


def _smallest(d2: np.ndarray, ids: np.ndarray | None, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the values and point indices of the m smallest entries of d2, by (value, index).

    ids[i, j] is the point index of entry (i, j); None means it is j. Every
    row needs at least m finite entries.
    """
    if ids is None and m == 1:  # the first-occurrence argmin is the lowest index among ties
        return d2.min(axis=1)[:, None], np.argmin(d2, axis=1)[:, None]
    # every entry up to each row's m-th smallest value, ties included; nonzero
    # lists them row by row
    kth = d2.min(axis=1) if m == 1 else np.partition(d2, m - 1, axis=1)[:, m - 1]
    r, c = np.nonzero(d2 <= kth[:, None])
    val = d2[r, c]
    ident = c if ids is None else ids[r, c]
    if r.shape[0] == d2.shape[0] * m:  # no row has a tie past its m-th entry: sort each row's m
        val, ident = val.reshape(-1, m), ident.reshape(-1, m)
        if m == 1:
            return val, ident
        order = np.lexsort((ident, val), axis=1)
        return np.take_along_axis(val, order, axis=1), np.take_along_axis(ident, order, axis=1)
    order = np.lexsort((ident, val, r))
    pick = order[np.searchsorted(r, np.arange(d2.shape[0]))[:, None] + np.arange(m)]
    return val[pick], ident[pick]


# cell widths tried, in units of _cell_width, before the brute-force scan takes the rest
_CELL_SCALES = (0.5, 1.0, 2.0, 4.0)


def _cell_search(a: np.ndarray, b: np.ndarray, m: int, exclude_self: bool, both: np.ndarray, d: np.ndarray,
                 idx: np.ndarray) -> np.ndarray:
    """Fill d and idx for the rows of a that a cell grid certifies; return the other rows.

    b is sorted into cubic cells ("cell lists") over the box of both clouds
    (both: a and b stacked, already through _check_span).
    A query's candidates are the points of the 3x3x3 block of cells around
    it, and their squared distances are computed exactly as _sq_dist_rows
    does. A row is certified when its m-th smallest candidate distance is
    strictly below the squared distance from the query to the block's
    boundary, shrunk by a margin that covers the rounding of the cell indices
    and of d2: then every point outside the block is strictly farther, and
    the candidates hold the exact answer. The other rows try the next,
    coarser grid.
    """
    nb = b.shape[0]
    left = np.arange(a.shape[0])
    lo = both.min(axis=0)
    ext = (both.max(axis=0) - lo).tolist()
    h0 = _cell_width(ext, nb)
    # below this width a squared block distance could leave float64's normal range
    if not h0 > 2.0**-400:
        return left
    for h in (s * h0 for s in _CELL_SCALES):
        dims = [math.floor(e / h) + 3 for e in ext]  # the cells, plus an empty layer on each side
        n_cells = math.prod(dims)
        if not left.size or n_cells > 32 * nb:  # keep the cell table O(len(b))
            continue

        def cell_of(p):
            """Cell indices of points p (t >= 0, so truncation is floor) and the points in cell units."""
            t = (p - lo) / h
            c = t.astype(np.int64)
            return c, t, (c[:, 0] + 1) * (dims[1] * dims[2]) + (c[:, 1] + 1) * dims[2] + (c[:, 2] + 1)

        # b sorted by cell; cell c holds sorted points starts[c]:starts[c + 1]
        cell_b = cell_of(b)[2]
        order = np.argsort(cell_b, kind="stable")
        starts = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell_b, minlength=n_cells), out=starts[1:])

        q = a[left]
        cell, t, lin = cell_of(q)
        edge = t - cell  # exact
        edge = np.minimum(1.0 + edge, 2.0 - edge)
        # distance to the block's boundary in cell units, less rounding: t is within
        # 2.0001 * 2**-53 * t < 2**-52 * max(dims) of exact, for the query and for a
        # point across the boundary, and the edge sums add 2**-52
        gap = np.minimum(np.minimum(edge[:, 0], edge[:, 1]), edge[:, 2]) - 2.0**-50 * max(dims)
        # the squared bound, clamped to stay finite and shrunk past d2's five roundings
        bound = np.minimum(gap * h, 2.0**510) ** 2 * (1.0 - 2.0**-40)
        # the 3x3x3 block as 9 runs of 3 cells adjacent along z, so adjacent in the sorted order
        lin = lin + (np.arange(-1, 2)[:, None] * (dims[1] * dims[2]) + np.arange(-1, 2) * dims[2]).reshape(9, 1)
        run0 = starts[lin - 1]
        run_len = starts[lin + 2] - run0
        n_cand = run_len.sum(axis=0)

        tried = np.flatnonzero(n_cand >= m + exclude_self)
        tried = tried[np.argsort(n_cand[tried], kind="stable")]  # blocks of similar width pad less
        width = int(n_cand[tried[-1]]) if tried.size else 0
        # sorted coordinates one axis per row, then `width` points at infinity (d2 = inf) as padding
        bs = np.full((3, nb + width), np.inf)
        bs[:, :nb] = b[order].T
        ids = np.concatenate([order, np.full(width, -1)])
        done = np.zeros(left.shape[0], dtype=bool)
        # about eight (rows, width) temporaries are live at once
        for blk in _row_chunks(tried.shape[0], 64 * width, min_rows=1):
            rows = tried[blk]
            w = int(n_cand[rows].max())
            # per row its 9 runs, then a run of padding up to w: the (rows, w) positions in bs
            size = np.vstack([run_len[:, rows], w - n_cand[rows]]).T.ravel()
            start = np.vstack([run0[:, rows], np.full(rows.shape[0], nb)]).T.ravel()
            pos = (np.arange(rows.shape[0] * w) + np.repeat(start - (np.cumsum(size) - size), size)).reshape(-1, w)
            qr = q[rows]
            d2 = qr[:, 0, None] - bs[0][pos]
            d2 *= d2
            for axis in (2, 1):
                diff = qr[:, axis, None] - bs[axis][pos]
                diff *= diff
                d2 += diff
            point = ids[pos]
            if exclude_self:
                d2[point == left[rows, None]] = np.inf
            val, near = _smallest(d2, point, m)
            ok = val[:, -1] < bound[rows]
            hit = rows[ok]
            d[left[hit]], idx[left[hit]] = val[ok], near[ok]
            done[hit] = True
        left = left[~done]
    return left


def _nearest(a: np.ndarray, b: np.ndarray, m: int, exclude_self: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Exact m nearest rows of b for every row of a: (d2, idx), each (len(a), m).

    Rows come in (squared distance, index) order, so ties break toward the
    lower index; exclude_self (a is b, m < len(b)) leaves each row's own
    point out. Squared distances are _sq_dist_rows's bits. A scan larger than
    one _CHUNK_BYTES block first tries the cell grids of _cell_search; rows
    they do not certify, and small scans, take the brute-force scan.
    """
    both = np.concatenate((a, b))
    _check_span(both)
    if 8 * a.shape[0] * b.shape[0] <= _CHUNK_BYTES:  # the whole scan is one distance block
        for _, d2 in _sq_dist_rows(a, b):  # no block when a is empty: that falls through
            if exclude_self:
                np.fill_diagonal(d2, np.inf)
            return _smallest(d2, None, m)
    d = np.empty((a.shape[0], m))
    idx = np.empty((a.shape[0], m), dtype=np.int64)
    left = _cell_search(a, b, m, exclude_self, both, d, idx)
    for rows, d2 in _sq_dist_rows(a[left], b):
        own = left[rows]
        if exclude_self:
            d2[np.arange(own.shape[0]), own] = np.inf
        d[own], idx[own] = _smallest(d2, None, m)
    return d, idx


def knn(cloud: PointCloud, k: int) -> NeighborGraph:
    """Exact k nearest neighbors by Euclidean distance.

    The query point itself is excluded while the cloud has more than k points;
    when N <= k every other point appears (nearest first) and the remaining
    slots are padded with the query's own index. Distance ties break toward
    the lower point index. The search is the exact nearest-neighbor engine
    shared with the Chamfer losses: certified cell lists on large clouds, a
    brute-force scan otherwise. The (N, k) index table may hold at most
    MAX_PIXELS entries.
    """
    pts = cloud.points
    n = pts.shape[0]
    k = _count(k, 1, "k must be an integer >= 1")
    if k > MAX_PIXELS // n:
        raise InvalidInputError(f"k must keep the (N, k) neighbor table within {MAX_PIXELS} entries")
    m = min(k, n - 1)  # neighbors that are other points; any slots past m hold the query
    out = np.empty((n, k), dtype=np.int64)
    out[:, m:] = np.arange(n)[:, None]
    if m:
        out[:, :m] = _nearest(pts, pts, m, exclude_self=True)[1]
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
