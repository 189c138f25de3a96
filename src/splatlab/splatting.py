"""Hard rasterization and differentiable Gaussian soft splatting.

The soft path computes, per pixel center q,

    V(q) = sum_k w_k f_k / (sum_k w_k + eps_norm),
    w_k  = exp(-|u_k - q|^2 / (2 sigma^2)) * (z_k + eps_depth)^-1,

with the depth factor optional and the sum truncated to pixels within
Chebyshev distance ``radius`` of the projected point u_k. splat_backward
implements the exact reverse-mode derivatives of this forward map, chaining
through the kernel, the depth factor and the pinhole projection.

Accumulation order is fixed: every pixel sums its contributions in ascending
point index, so the vectorized path and the sequential reference path are
bit-for-bit identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, InvalidInputError
from .geometry import CameraModel, PointCloud, camera_coords, ccm_features, project_points

DEFAULT_RADIUS = 4

_SEMANTICS = ("depth", "ccm", "weightsum", "generic")


@dataclass(frozen=True)
class SplatConfig:
    """Soft-splat parameters; defaults follow the radius-4 truncation window."""

    sigma: float = DEFAULT_RADIUS / 3.0
    radius: int = DEFAULT_RADIUS
    eps_norm: float = 1e-8
    eps_depth: float = 1e-6
    depth_weighting: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidInputError("sigma must be finite and positive")
        if int(self.radius) != self.radius or self.radius < 1:
            raise InvalidInputError("radius must be an integer >= 1")
        if not (self.eps_norm > 0 and self.eps_depth > 0):
            raise InvalidInputError("eps_norm and eps_depth must be positive")


@dataclass
class FeatureGrid:
    """(H, W, C) float64 raster with value semantics and an emptiness flag.

    ``empty`` is set when nothing contributed (all points culled or every
    window fell off-grid); untouched pixels hold 0.
    """

    data: np.ndarray
    semantics: str = "generic"
    empty: bool = False

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 3 or min(d.shape) < 1:
            raise InvalidInputError(f"grid data must be (H, W, C), got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise InvalidInputError("grid data must be finite")
        if self.semantics not in _SEMANTICS:
            raise InvalidInputError(f"semantics must be one of {_SEMANTICS}")
        if self.semantics == "ccm" and (d.min() < 0.0 or d.max() > 1.0):
            raise InvalidInputError("ccm grids must lie in [0, 1]")
        if self.semantics == "weightsum" and d.min() < 0.0:
            raise InvalidInputError("weightsum grids must be nonnegative")
        self.data = d

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass
class SplatAux:
    """Forward-pass bookkeeping needed by splat_backward.

    The contrib_* arrays hold one row per (point, pixel) contribution, ordered
    by point index then window position; ``weight_sum`` is the per-pixel sum of
    contributor weights.
    """

    u: np.ndarray
    z: np.ndarray
    valid: np.ndarray
    contrib_point: np.ndarray
    contrib_row: np.ndarray
    contrib_col: np.ndarray
    contrib_weight: np.ndarray
    weight_sum: np.ndarray
    config: SplatConfig
    camera: CameraModel

    def weight_grid(self) -> FeatureGrid:
        return FeatureGrid(self.weight_sum[:, :, None].copy(), semantics="weightsum",
                           empty=bool(self.contrib_point.size == 0))


@dataclass
class GradientBundle:
    """Gradients produced by splat_backward; d_sigma is None unless requested."""

    d_points: np.ndarray
    d_features: np.ndarray
    d_sigma: float | None = None


def _window_bounds(u_k, reach: float, h: int, w: int) -> tuple[int, int, int, int]:
    """(c0, c1, r0, r1): the grid-clipped pixel window around u_k; empty when c0 > c1 or r0 > r1."""
    ux, uy = u_k
    # centers c+0.5 with |c+0.5-u| <= reach  <=>  c in [u-reach-0.5, u+reach-0.5]
    return (max(math.ceil(ux - reach - 0.5), 0),
            min(math.floor(ux + reach - 0.5), w - 1),
            max(math.ceil(uy - reach - 0.5), 0),
            min(math.floor(uy + reach - 0.5), h - 1))


def _pixel_bins(u: np.ndarray, valid: np.ndarray, h: int, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hard binning: (idx, rows, cols) of the valid points whose floor(u) lands on the grid.

    idx ascends. The grid test runs on the float coordinates (floor(u) >= 0 iff
    u >= 0, floor(u) < w iff u < w), so far off-grid points are never cast.
    """
    idx = np.flatnonzero(valid & (u[:, 0] >= 0) & (u[:, 0] < w) & (u[:, 1] >= 0) & (u[:, 1] < h))
    rows = np.floor(u[idx, 1]).astype(np.int64)
    cols = np.floor(u[idx, 0]).astype(np.int64)
    return idx, rows, cols


def _check_feats(cloud: PointCloud, feats) -> np.ndarray:
    if feats is None:
        return ccm_features(cloud)
    f = np.asarray(feats, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] != len(cloud) or f.shape[1] < 1:
        raise InvalidInputError(f"features must be (N, C) with N == {len(cloud)}, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise InvalidInputError("feature values must be finite")
    return f


def splat_forward(
    cloud: PointCloud,
    feats: np.ndarray | None,
    cam: CameraModel,
    cfg: SplatConfig,
    semantics: str = "generic",
    sequential: bool = False,
) -> tuple[FeatureGrid, SplatAux]:
    """Soft-splat per-point features onto the camera's pixel grid.

    ``feats`` defaults to the cloud's CCM pseudo-colors. ``sequential`` selects
    the scalar-loop reference path (same accumulation order, bit-identical).
    Returns the normalized feature grid and the aux record for the backward
    pass.
    """
    feats = _check_feats(cloud, feats)
    u, z, valid = project_points(cam, cloud.points)
    h, w = cam.resolution
    c = feats.shape[1]
    inv_two_sigma2 = 1.0 / (2.0 * cfg.sigma * cfg.sigma)

    num = np.zeros((h, w, c), dtype=np.float64)
    den = np.zeros((h, w), dtype=np.float64)
    cp: list[np.ndarray] = []
    cr: list[np.ndarray] = []
    cc: list[np.ndarray] = []
    cw: list[np.ndarray] = []

    for k in np.flatnonzero(valid):
        ux, uy = u[k, 0], u[k, 1]
        c0, c1, r0, r1 = _window_bounds(u[k], cfg.radius, h, w)
        if c0 > c1 or r0 > r1:
            continue
        depth_factor = 1.0 / (z[k] + cfg.eps_depth) if cfg.depth_weighting else 1.0
        cols1 = np.arange(c0, c1 + 1)
        rows1 = np.arange(r0, r1 + 1)
        dx = (cols1 + 0.5) - ux
        dy = (rows1 + 0.5) - uy
        # weights are computed identically in both modes; only the accumulation
        # across cells differs, and each cell sees one add per point either way
        win2 = np.exp(-(dy[:, None] ** 2 + dx[None, :] ** 2) * inv_two_sigma2) * depth_factor
        if sequential:
            for i, r in enumerate(rows1):
                for j, col in enumerate(cols1):
                    wgt = win2[i, j]
                    den[r, col] += wgt
                    for ch in range(c):
                        num[r, col, ch] += wgt * feats[k, ch]
        else:
            den[r0 : r1 + 1, c0 : c1 + 1] += win2
            num[r0 : r1 + 1, c0 : c1 + 1, :] += win2[:, :, None] * feats[k]
        rows = np.repeat(rows1, cols1.size)
        cols = np.tile(cols1, rows1.size)
        win = win2.ravel()
        cp.append(np.full(win.size, k, dtype=np.int64))
        cr.append(rows)
        cc.append(cols)
        cw.append(win)

    if not np.all(np.isfinite(den)):
        raise InternalConsistencyError("non-finite splat weights")

    if cp:
        contrib_point = np.concatenate(cp)
        contrib_row = np.concatenate(cr)
        contrib_col = np.concatenate(cc)
        contrib_weight = np.concatenate(cw)
        is_empty = False
    else:
        contrib_point = np.empty(0, dtype=np.int64)
        contrib_row = np.empty(0, dtype=np.int64)
        contrib_col = np.empty(0, dtype=np.int64)
        contrib_weight = np.empty(0, dtype=np.float64)
        is_empty = True

    grid = FeatureGrid(num / (den + cfg.eps_norm)[:, :, None], semantics=semantics, empty=is_empty)
    aux = SplatAux(
        u=u, z=z, valid=valid,
        contrib_point=contrib_point, contrib_row=contrib_row,
        contrib_col=contrib_col, contrib_weight=contrib_weight,
        weight_sum=den, config=cfg, camera=cam,
    )
    return grid, aux


def splat_backward(
    aux: SplatAux,
    cloud: PointCloud,
    feats: np.ndarray | None,
    upstream: np.ndarray,
    with_sigma: bool = False,
) -> GradientBundle:
    """Exact reverse-mode gradients of splat_forward.

    ``upstream`` is dL/dV with the grid's (H, W, C) shape. Culled points and
    points whose window missed the grid receive zero gradient. d_sigma is
    returned only when ``with_sigma`` is set.
    """
    feats = _check_feats(cloud, feats)
    cfg = aux.config
    cam = aux.camera
    h, w = cam.resolution
    c = feats.shape[1]
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != (h, w, c):
        raise InvalidInputError(f"upstream must have shape {(h, w, c)}, got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise InvalidInputError("upstream gradient must be finite")

    n = len(cloud)
    d_points = np.zeros((n, 3), dtype=np.float64)
    d_features = np.zeros((n, c), dtype=np.float64)
    if aux.contrib_point.size == 0:
        return GradientBundle(d_points, d_features, 0.0 if with_sigma else None)

    den_eps = aux.weight_sum + cfg.eps_norm
    # value grid rebuilt from the stored contributions (same accumulation order)
    num = np.zeros((h, w, c), dtype=np.float64)
    np.add.at(num, (aux.contrib_row, aux.contrib_col),
              aux.contrib_weight[:, None] * feats[aux.contrib_point])
    v = num / den_eps[:, :, None]

    k = aux.contrib_point
    rows = aux.contrib_row
    cols = aux.contrib_col
    wgt = aux.contrib_weight
    g_pix = g[rows, cols, :]
    inv_den = 1.0 / den_eps[rows, cols]

    # dL/df_k and dL/dw_k at each contribution
    d_features_contrib = g_pix * (wgt * inv_den)[:, None]
    np.add.at(d_features, k, d_features_contrib)
    d_w = np.einsum("mc,mc->m", g_pix, feats[k] - v[rows, cols, :]) * inv_den

    # kernel chain: dw/du = w (q - u) / sigma^2, dw/dz = -w / (z + eps_depth)
    qx = cols + 0.5
    qy = rows + 0.5
    ex = qx - aux.u[k, 0]
    ey = qy - aux.u[k, 1]
    inv_sigma2 = 1.0 / (cfg.sigma * cfg.sigma)
    d_u = np.zeros((n, 2), dtype=np.float64)
    np.add.at(d_u[:, 0], k, d_w * wgt * ex * inv_sigma2)
    np.add.at(d_u[:, 1], k, d_w * wgt * ey * inv_sigma2)
    d_z = np.zeros(n, dtype=np.float64)
    if cfg.depth_weighting:
        np.add.at(d_z, k, -d_w * wgt / (aux.z[k] + cfg.eps_depth))

    d_sigma = None
    if with_sigma:
        d_sigma = float(np.sum(d_w * wgt * (ex * ex + ey * ey)) / cfg.sigma**3)

    # projection chain: u = (fx x/z + cx, fy y/z + cy), depth passthrough z
    fx, fy = cam.focal
    cam_pts = camera_coords(cam, cloud.points)
    active = aux.valid & ((d_u != 0).any(axis=1) | (d_z != 0))
    if np.any(active):
        xc = cam_pts[active, 0]
        yc = cam_pts[active, 1]
        zc = cam_pts[active, 2]
        dux = d_u[active, 0]
        duy = d_u[active, 1]
        d_cam = np.empty((int(active.sum()), 3), dtype=np.float64)
        d_cam[:, 0] = dux * fx / zc
        d_cam[:, 1] = duy * fy / zc
        d_cam[:, 2] = -dux * fx * xc / (zc * zc) - duy * fy * yc / (zc * zc) + d_z[active]
        d_points[active] = d_cam @ cam.rotation
    return GradientBundle(d_points, d_features, d_sigma)


def _scatter_min_depth(points: np.ndarray, feats: np.ndarray, cam: CameraModel) -> tuple[np.ndarray, bool]:
    """Z-buffer scatter: each pixel takes the nearest point's feature row.

    Ties in depth break toward the lower point index. Returns the raw data
    array and the emptiness flag.
    """
    u, z, valid = project_points(cam, points)
    h, w = cam.resolution
    data = np.zeros((h, w, feats.shape[1]), dtype=np.float64)
    idx, rows, cols = _pixel_bins(u, valid, h, w)
    if idx.size == 0:
        return data, True
    pix = rows * w + cols
    order = np.lexsort((idx, z[idx], pix))
    pix_sorted = pix[order]
    first = np.flatnonzero(np.concatenate(([True], pix_sorted[1:] != pix_sorted[:-1])))
    winners = order[first]
    data[rows[winners], cols[winners], :] = feats[idx[winners]]
    return data, False


def rasterize_hard(cloud: PointCloud, cam: CameraModel, mode: str = "depth") -> FeatureGrid:
    """Dirac rasterization with floor(u) binning and a min-depth z-buffer.

    ``depth`` writes the winning point's camera depth; ``ccm`` writes its
    pseudo-color (coordinates must be normalized, see ccm_features).
    Background pixels hold 0; the empty flag is set when nothing landed.
    """
    if mode not in ("depth", "ccm"):
        raise InvalidInputError("mode must be 'depth' or 'ccm'")
    if mode == "ccm":
        feats = ccm_features(cloud)
    else:
        _, z, _ = project_points(cam, cloud.points)
        feats = z[:, None]
    data, is_empty = _scatter_min_depth(cloud.points, feats, cam)
    return FeatureGrid(data, semantics=mode, empty=is_empty)


def hard_hit_count(cloud: PointCloud, cam: CameraModel) -> FeatureGrid:
    """Per-pixel count of hard-rasterized points, as a weightsum grid."""
    u, z, valid = project_points(cam, cloud.points)
    h, w = cam.resolution
    counts = np.zeros((h, w), dtype=np.float64)
    idx, rows, cols = _pixel_bins(u, valid, h, w)
    np.add.at(counts, (rows, cols), 1.0)
    return FeatureGrid(counts[:, :, None], semantics="weightsum", empty=bool(idx.size == 0))


def _raw_density(cloud: PointCloud, cam: CameraModel, cfg: SplatConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Untruncated mixture over the full pixel grid; returns (field, u, alpha) of the valid points."""
    u, z, valid = project_points(cam, cloud.points)
    u = u[valid]
    alpha = 1.0 / (z[valid] + cfg.eps_depth) if cfg.depth_weighting else np.ones(len(u))
    h, w = cam.resolution
    field = np.zeros((h, w), dtype=np.float64)
    inv_two_sigma2 = 1.0 / (2.0 * cfg.sigma * cfg.sigma)
    xs = np.arange(w) + 0.5
    ys = np.arange(h) + 0.5
    for (ux, uy), a in zip(u, alpha):
        dx2 = (xs - ux) ** 2
        dy2 = (ys - uy) ** 2
        field += a * np.exp(-(dy2[:, None] + dx2[None, :]) * inv_two_sigma2)
    return field, u, alpha


def soft_density_grid(cloud: PointCloud, cam: CameraModel, cfg: SplatConfig) -> FeatureGrid:
    """Normalized soft occupancy field over pixel centers.

    The mixture is untruncated and scaled so its Riemann sum over the grid
    (unit pixel area) is 1. All points culled, or total mass underflowing to
    zero, yields a zero grid flagged empty.
    """
    field, _, alpha = _raw_density(cloud, cam, cfg)
    total = float(field.sum())
    if alpha.size == 0 or total <= 0.0:
        return FeatureGrid(np.zeros_like(field)[:, :, None], semantics="generic", empty=True)
    return FeatureGrid((field / total)[:, :, None], semantics="generic", empty=False)


def soft_density(cloud: PointCloud, cam: CameraModel, cfg: SplatConfig, q) -> float:
    """Normalized soft density at one image point q = (q_x, q_y).

    Shares the pixel-grid Riemann normalizer with soft_density_grid, so the
    field integrates to 1 over the grid and sub-pixel queries stay consistent
    with it.
    """
    qv = np.asarray(q, dtype=np.float64).reshape(-1)
    if qv.shape != (2,) or not np.all(np.isfinite(qv)):
        raise InvalidInputError("q must be a finite 2-vector")
    field, u, alpha = _raw_density(cloud, cam, cfg)
    total = float(field.sum())
    if alpha.size == 0 or total <= 0.0:
        return 0.0
    inv_two_sigma2 = 1.0 / (2.0 * cfg.sigma * cfg.sigma)
    d2 = ((u - qv) ** 2).sum(axis=1)
    return float(np.sum(alpha * np.exp(-d2 * inv_two_sigma2))) / total


def support_measure(cloud: PointCloud, cam: CameraModel, cfg: SplatConfig, mode: str) -> float:
    """Occupied area, in pixel^2, of the hard or soft projection support.

    hard: number of distinct pixels hit by floor-binned projections.
    soft: number of pixel centers within Euclidean 3*sigma of any projected
    point, unioned with the hard support so dominance holds for every sigma.
    Both are clipped to the grid.
    """
    if mode not in ("hard", "soft"):
        raise InvalidInputError("mode must be 'hard' or 'soft'")
    u, z, valid = project_points(cam, cloud.points)
    h, w = cam.resolution
    _, rows, cols = _pixel_bins(u, valid, h, w)
    hard_mask = np.zeros((h, w), dtype=bool)
    hard_mask[rows, cols] = True
    if mode == "hard":
        return float(hard_mask.sum())
    reach = 3.0 * cfg.sigma
    soft_mask = hard_mask.copy()
    for ux, uy in u[valid]:
        c0, c1, r0, r1 = _window_bounds((ux, uy), reach, h, w)
        if c0 > c1 or r0 > r1:
            continue
        dx = (np.arange(c0, c1 + 1) + 0.5) - ux
        dy = (np.arange(r0, r1 + 1) + 0.5) - uy
        disc = dy[:, None] ** 2 + dx[None, :] ** 2 <= reach * reach
        soft_mask[r0 : r1 + 1, c0 : c1 + 1] |= disc
    return float(soft_mask.sum())
