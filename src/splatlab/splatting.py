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

Both passes stream the valid points in blocks (``_contribution_blocks``) and
keep no per-contribution list: the backward recomputes each block's window
weights from u, z and the config, through the same arrays and the same
``np.exp`` as the forward, so they are the forward's bit for bit, and reads
each point's run of cells and each cell's offset from u off the block. Working
memory is O(N + H*W*C) plus about 1 MB of window cells per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, InvalidInputError
from .geometry import (CameraModel, PointCloud, _count, _finite_array, _row_chunks, camera_coords, ccm_features,
                       project_points)

DEFAULT_RADIUS = 4
# _stepped_losses re-sums about this many contributions per chunk of copies
_PROBE_CHUNK_ENTRIES = 2**13

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
        for name in ("sigma", "eps_norm", "eps_depth"):
            msg = f"{name} must be finite and positive"
            if not _finite_array(getattr(self, name), (), msg) > 0:
                raise InvalidInputError(msg)
        _count(self.radius, 1, "radius must be an integer >= 1")
        if not isinstance(self.depth_weighting, (bool, np.bool_)):
            raise InvalidInputError("depth_weighting must be a bool")


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
        d = _finite_array(self.data, (None, None, None), "grid data must be a finite (H, W, C) array")
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

    Only per-point and per-pixel arrays: the projection (u, z, valid), the
    per-pixel sum of contributor weights ``weight_sum`` and the normalized
    (H, W, C) grid ``value``. ``n_contrib`` counts the (point, pixel)
    contributions; splat_backward recomputes them block by block.
    """

    u: np.ndarray
    z: np.ndarray
    valid: np.ndarray
    n_contrib: int
    weight_sum: np.ndarray
    value: np.ndarray
    config: SplatConfig
    camera: CameraModel

    def weight_grid(self) -> FeatureGrid:
        return FeatureGrid(self.weight_sum[:, :, None].copy(), semantics="weightsum",
                           empty=self.n_contrib == 0)


@dataclass
class GradientBundle:
    """Gradients produced by splat_backward; d_sigma is None unless requested."""

    d_points: np.ndarray
    d_features: np.ndarray
    d_sigma: float | None = None


def _window_bounds(u: np.ndarray, reach: float, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): per row of the (n, 2) u, the float (col, row) corners of its grid-clipped window.

    A window is empty when lo > hi on either axis.
    """
    # centers c+0.5 with |c+0.5-u| <= reach  <=>  c in [u-reach-0.5, u+reach-0.5]
    lo = np.maximum(np.ceil(u - reach - 0.5), 0.0)
    hi = np.minimum(np.floor(u + reach - 0.5), [w - 1, h - 1])
    return lo, hi


def _window_cells(u: np.ndarray, reach: float, h: int, w: int) -> tuple[np.ndarray, ...]:
    """Every grid cell of every non-empty window around the rows of u, flattened.

    Returns (keep, count, pixel, dx, dy): the ascending rows of u with a
    non-empty window and their cell counts, then per cell, in (point, window
    row, window column) order, the row-major pixel id and the offsets (cell
    center - u). The windows are built as one dense (n, rows, cols) block
    sized by the widest window and masked to each window's own extent.
    """
    lo, hi = _window_bounds(u, reach, h, w)
    # dropping empty windows first keeps a finite but huge u from being cast
    keep = np.flatnonzero((lo <= hi).all(axis=1))
    u = u[keep]
    lo = lo[keep].astype(np.int64)
    hi = hi[keep].astype(np.int64)
    count = (hi - lo + 1).prod(axis=1)
    width, height = (hi - lo).max(axis=0, initial=0) + 1
    cols = lo[:, 0:1] + np.arange(width)
    rows = lo[:, 1:2] + np.arange(height)
    inside = (rows <= hi[:, 1:2])[:, :, None] & (cols <= hi[:, 0:1])[:, None, :]
    pixel = (rows[:, :, None] * w + cols[:, None, :])[inside]
    dx = np.broadcast_to(((cols + 0.5) - u[:, 0:1])[:, None, :], inside.shape)[inside]
    dy = np.broadcast_to(((rows + 0.5) - u[:, 1:2])[:, :, None], inside.shape)[inside]
    return keep, count, pixel, dx, dy


def _window_chunks(n_rows: int, reach: float, h: int, w: int):
    """geometry._row_chunks over n_rows windows of the given reach, about 1 MB of cells each.

    A window spans at most floor(2 reach) + 1 cells per axis, one more when
    rounding widens its bounds, and never more than the grid; clipping to the
    grid before the floor keeps a huge reach from overflowing. No BLAS call
    sees these blocks, so they may shrink to one window: a window that covers
    a large grid then costs about H*W cells, not 64 H*W.
    """
    span = 2.0 * reach + 2.0
    return _row_chunks(n_rows, 8 * math.floor(min(span, h)) * math.floor(min(span, w)), min_rows=1)


def _contributions(u: np.ndarray, z: np.ndarray, vis: np.ndarray, cfg: SplatConfig,
                   h: int, w: int) -> tuple[np.ndarray, ...]:
    """(pts, count, pixel, weight, dx, dy): _window_cells of the ascending rows vis of u, with weights.

    pts are the rows whose window meets the grid; np.repeat(pts, count) is each cell's point.
    """
    keep, count, pixel, dx, dy = _window_cells(u[vis], cfg.radius, h, w)
    pts = vis[keep]
    inv_two_sigma2 = 1.0 / (2.0 * cfg.sigma * cfg.sigma)
    weight = np.exp(-(dy ** 2 + dx ** 2) * inv_two_sigma2)
    if cfg.depth_weighting:
        weight *= np.repeat(1.0 / (z[pts] + cfg.eps_depth), count)
    return pts, count, pixel, weight, dx, dy


def _contribution_blocks(u: np.ndarray, z: np.ndarray, valid: np.ndarray, cfg: SplatConfig, h: int, w: int):
    """Yield _contributions per block of the valid rows of u; the blocks concatenate to the whole list.

    The blocks depend only on ``valid``, the config and the resolution, so the
    forward, the backward and the probe see the same blocks and weight bits.
    A point's contributions never straddle two blocks.
    """
    vis = np.flatnonzero(valid)
    # with nothing valid, one empty block keeps every caller's outputs typed
    for rows in _window_chunks(max(vis.size, 1), cfg.radius, h, w):
        yield _contributions(u, z, vis[rows], cfg, h, w)


def _pixel_bins(u: np.ndarray, valid: np.ndarray, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Hard binning: (idx, pixel) of the valid points whose floor(u) lands on the grid.

    idx ascends and pixel is the row-major id floor(u_y) * w + floor(u_x). The
    grid test runs on the float coordinates (floor(u) >= 0 iff u >= 0,
    floor(u) < w iff u < w), so far off-grid points are never cast.
    """
    idx = np.flatnonzero(valid & (u[:, 0] >= 0) & (u[:, 0] < w) & (u[:, 1] >= 0) & (u[:, 1] < h))
    rows = np.floor(u[idx, 1]).astype(np.int64)
    cols = np.floor(u[idx, 0]).astype(np.int64)
    return idx, rows * w + cols


def _check_feats(cloud: PointCloud, feats) -> np.ndarray:
    if feats is None:
        return ccm_features(cloud)
    n = len(cloud)
    return _finite_array(feats, (n, None), f"features must be a finite ({n}, C) array, C >= 1")


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
    # every pixel sums its contributions in list order, i.e. ascending point index
    den = np.zeros(h * w, dtype=np.float64)
    if sequential:
        pts, count, pixel, weight, _, _ = _contributions(u, z, np.flatnonzero(valid), cfg, h, w)
        n_contrib = pixel.size
        num = np.zeros((h * w, c), dtype=np.float64)
        for p, pix, wgt in zip(np.repeat(pts, count), pixel, weight):
            den[pix] += wgt
            for ch in range(c):
                num[pix, ch] += wgt * feats[p, ch]
    else:
        # np.add.at adds each block in list order, as one bincount over the whole list would
        n_contrib = 0
        num = np.zeros((c, h * w), dtype=np.float64)
        for pts, count, pixel, weight, _, _ in _contribution_blocks(u, z, valid, cfg, h, w):
            n_contrib += pixel.size
            np.add.at(den, pixel, weight)
            for ch in range(c):
                np.add.at(num[ch], pixel, weight * np.repeat(feats[pts, ch], count))
        num = num.T
    den = den.reshape(h, w)

    if not np.all(np.isfinite(den)):
        raise InternalConsistencyError("non-finite splat weights")

    value = num.reshape(h, w, c) / (den + cfg.eps_norm)[:, :, None]
    # the grid gets its own copy, so editing it cannot change the backward pass
    grid = FeatureGrid(value.copy(), semantics=semantics, empty=n_contrib == 0)
    aux = SplatAux(u=u, z=z, valid=valid, n_contrib=n_contrib, weight_sum=den, value=value,
                   config=cfg, camera=cam)
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
    returned only when ``with_sigma`` is set; it is the one per-contribution
    array, 8 bytes per contribution, that the pass allocates.
    """
    feats = _check_feats(cloud, feats)
    cfg = aux.config
    cam = aux.camera
    h, w = cam.resolution
    c = feats.shape[1]
    g = _finite_array(upstream, (h, w, c), f"upstream must be a finite array of shape {(h, w, c)}")

    n = len(cloud)
    d_points = np.zeros((n, 3), dtype=np.float64)
    d_features = np.zeros((n, c), dtype=np.float64)
    d_u = np.zeros((n, 2), dtype=np.float64)
    d_z = np.zeros(n, dtype=np.float64)
    g_flat = g.reshape(-1, c)
    value = aux.value.reshape(-1, c)
    inv_den_grid = 1.0 / (aux.weight_sum.reshape(-1) + cfg.eps_norm)
    inv_sigma2 = 1.0 / (cfg.sigma * cfg.sigma)
    # np.sum over the point-major list sums as a pairwise tree, so the d_sigma
    # terms of every block go into one buffer: 8 bytes per contribution
    sigma_terms = np.empty(aux.n_contrib, dtype=np.float64) if with_sigma else None
    at = 0

    for pts, counts, pixel, wgt, ex, ey in _contribution_blocks(aux.u, aux.z, aux.valid, cfg, h, w):
        # each point's contributions are one run; per-point values are repeated over it
        run = np.repeat(np.arange(pts.size), counts)
        g_pix = np.take(g_flat, pixel, axis=0)
        inv_den = inv_den_grid[pixel]

        def per_point(x):
            # bincount adds in contribution order, so every point sums in a fixed order
            return np.bincount(run, weights=x, minlength=pts.size)

        # dL/df_k and dL/dw_k at each contribution
        wgt_inv_den = wgt * inv_den
        d_features[pts] = np.stack([per_point(g_pix[:, ch] * wgt_inv_den) for ch in range(c)], axis=1)
        diff = np.repeat(feats[pts], counts, axis=0)
        diff -= np.take(value, pixel, axis=0)
        # the einsum stays on (m, C) rows: its channel order is not that of a per-channel sum
        d_w = np.einsum("mc,mc->m", g_pix, diff) * inv_den
        # drop the (m, C) rows before the kernel chain allocates, which lowers peak memory
        del g_pix, diff

        # kernel chain: dw/du = w (q - u) / sigma^2, dw/dz = -w / (z + eps_depth), with (ex, ey) = q - u
        s = d_w * wgt
        d_u[pts, 0] = per_point(s * ex * inv_sigma2)
        d_u[pts, 1] = per_point(s * ey * inv_sigma2)
        if cfg.depth_weighting:
            d_z[pts] = per_point(-s / np.repeat(aux.z[pts] + cfg.eps_depth, counts))
        if with_sigma:
            sigma_terms[at : at + pixel.size] = s * (ex * ex + ey * ey)
            at += pixel.size

    d_sigma = None
    if with_sigma:
        d_sigma = float(np.sum(sigma_terms) / cfg.sigma**3)

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
    data = np.zeros((h * w, feats.shape[1]), dtype=np.float64)
    pix, idx, head = _depth_runs(u, z, valid, h, w)
    data[pix[head]] = feats[idx[head]]
    return data.reshape(h, w, -1), bool(idx.size == 0)


def _depth_runs(u: np.ndarray, z: np.ndarray, valid: np.ndarray, h: int, w: int) -> tuple[np.ndarray, ...]:
    """(pix, idx, head): the binned points sorted by (pixel, depth, index), and their run starts.

    The head of each pixel's run is its z-buffer winner: the lowest (z, index).
    """
    idx, pix = _pixel_bins(u, valid, h, w)
    order = np.lexsort((idx, z[idx], pix))
    pix, idx = pix[order], idx[order]
    # pixel ids are >= 0, so the first of each run differs from its -1 predecessor
    return pix, idx, np.diff(pix, prepend=-1) != 0


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated aranges: starts[j], ..., starts[j] + counts[j] - 1 for each j."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


def _stepped_losses(cloud: PointCloud, feats: np.ndarray, cam: CameraModel, cfg: SplatConfig, mode: str,
                    mask: np.ndarray, stepped: np.ndarray, owner: np.ndarray) -> tuple:
    """Masked sums of the cloud's projection and of copies that each move one point.

    Copy j is the cloud with the valid row owner[j] moved to stepped[j]; its
    sum is (grid * mask).sum() over the soft splat (mode "soft") or the z-buffer
    scatter (mode "hard") of the fixed ``feats``. Each copy patches the base
    grid where the moved point can change it: its old and new windows (soft,
    re-summed in ascending point order as splat_forward sums) or its old and
    new bins (hard, the lowest (z, index) wins). The sums are bit for bit
    those of a full re-splat of each copy. In soft mode the base contribution
    list, which the patches re-sum from, is the concatenation of the forward's
    ``_contribution_blocks``.

    Returns (total, sums, moved, aux). moved[j] is set when the copy's point
    is culled, shifts its clipped window (soft) or its floor(u) cell (hard),
    or wins its z-buffer bin in the copy but not in the cloud or the reverse
    (hard). aux is the cloud's SplatAux in soft mode and None in hard mode.
    """
    h, w = cam.resolution
    n, hw, c = len(cloud), h * w, feats.shape[1]
    us, zs, vs = project_points(cam, stepped)
    if mode == "soft":
        _, aux = splat_forward(cloud, feats, cam, cfg)
        u0, base = aux.u, aux.value.reshape(hw, c)
        # the forward's blocks, so the base weights are its bits
        blocks = _contribution_blocks(u0, aux.z, aux.valid, cfg, h, w)
        pts, count, pixel, weight = (np.concatenate(parts) for parts in zip(*(b[:4] for b in blocks)))
        k = np.repeat(pts, count)
        # contributions indexed pixel-major; within a pixel, point order
        by_pixel = np.argsort(pixel, kind="stable")
        pm_point, pm_weight = k[by_pixel], weight[by_pixel]
        occupancy = np.bincount(pixel, minlength=hw)
        pm_start = np.concatenate(([0], np.cumsum(occupancy)))
        run_start = np.searchsorted(k, owner)
        run_count = np.searchsorted(k, owner, side="right") - run_start
        # a copy re-sums about as many contributions as its point's base window holds
        load = np.bincount(k, weights=occupancy[pixel], minlength=n)[owner]

        def cells(u):
            return np.hstack(_window_bounds(u, cfg.radius, h, w))

        def patch(j):
            o = owner[j]
            rows, n_new, new_pix, new_weight, _, _ = _contributions(us[j], zs[j], np.flatnonzero(vs[j]), cfg, h, w)
            new_copy = np.repeat(rows, n_new)
            old_copy = np.repeat(np.arange(len(o)), run_count[j])
            old_pix = pixel[_ranges(run_start[j], run_count[j])]
            new_keys = new_copy * hw + new_pix
            keys = np.sort(np.concatenate((old_copy * hw + old_pix, new_keys)))
            keys = keys[np.diff(keys, prepend=-1) != 0]
            copy, pix = np.divmod(keys, hw)
            # every other contributor of an affected pixel keeps its base weight and order
            count = pm_start[pix + 1] - pm_start[pix]
            seg = np.repeat(np.arange(keys.size), count)
            pos = _ranges(pm_start[pix], count)
            point = pm_point[pos]
            others = point != o[copy[seg]]
            seg, point, weight = seg[others], point[others], pm_weight[pos][others]
            # the moved point's new contributions go in at its place in each pixel's point order
            new_seg = np.searchsorted(keys, new_keys)
            at = np.searchsorted(seg * n + point, new_seg * n + o[new_copy])
            seg = np.insert(seg, at, new_seg)
            point = np.insert(point, at, o[new_copy])
            weight = np.insert(weight, at, new_weight)
            den = np.bincount(seg, weights=weight, minlength=keys.size)
            num = np.stack([np.bincount(seg, weights=weight * feats[:, ch][point], minlength=keys.size)
                            for ch in range(c)], axis=1)
            return copy, pix, num / (den + cfg.eps_norm)[:, None]
    else:
        aux = None
        u0, z0, v0 = project_points(cam, cloud.points)
        pix, idx, head = _depth_runs(u0, z0, v0, h, w)
        base = np.zeros((hw, c), dtype=np.float64)
        base[pix[head]] = feats[idx[head]]
        # per pixel the winner and the runner-up, so a left-out winner has a successor
        best = np.full(hw, -1)
        best[pix[head]] = idx[head]
        second = np.flatnonzero(head[:-1] & ~head[1:]) + 1
        runner = np.full(hw, -1)
        runner[pix[second]] = idx[second]
        bin0 = np.full(n, -1)
        bin0[idx] = pix
        won0 = np.zeros(n, dtype=bool)
        won0[idx[head]] = True

        def best_other(b, o):
            return np.where(best[b] == o, runner[b], best[b])

        rows, bins = _pixel_bins(us, vs, h, w)
        o = owner[rows]
        rival = best_other(bins, o)
        zr = z0[rival]
        won = np.zeros(len(owner), dtype=bool)
        won[rows] = (rival < 0) | (zs[rows] < zr) | ((zs[rows] == zr) & (o < rival))
        bin1 = np.full(len(owner), -1)
        bin1[rows] = bins
        # a copy patches at most two rows, so one chunk holds every copy
        load = np.zeros(len(owner))

        def cells(u):
            return np.floor(u)

        def patch(j):
            # the old bin, if the point left it, falls to its best other member;
            # the new bin takes the point if it wins there
            o, b0, b1 = owner[j], bin0[owner[j]], bin1[j]
            left = np.flatnonzero((b0 >= 0) & (b0 != b1))
            other = best_other(b0[left], o[left])
            rows0 = np.where((other >= 0)[:, None], feats[other], 0.0)
            came = np.flatnonzero(b1 >= 0)
            rows1 = np.where(won[j][came][:, None], feats[o[came]], feats[best_other(b1[came], o[came])])
            copy = np.concatenate((left, came))
            order = np.argsort(copy, kind="stable")
            return (copy[order], np.concatenate((b0[left], b1[came]))[order],
                    np.concatenate((rows0, rows1))[order])

    moved = ~vs
    moved[vs] = (cells(us[vs]) != cells(u0[owner[vs]])).any(axis=1)
    if mode == "hard":
        moved |= won != won0[owner]

    # grid * mask is elementwise, so a copy's products differ from the base's only where
    # it patches; each copy patches the one product buffer, sums it whole and restores it
    mask = mask.reshape(hw, c)
    product = base * mask
    total = float(product.sum())
    sums = np.empty(len(owner), dtype=np.float64)
    starts = np.flatnonzero(np.diff(np.cumsum(load) // _PROBE_CHUNK_ENTRIES, prepend=-1))
    for start, stop in zip(starts, np.append(starts[1:], len(owner))):
        copy, pix, rows = patch(slice(start, stop))
        rows *= mask[pix]
        edges = np.searchsorted(copy, np.arange(stop - start + 1))
        for t in range(stop - start):
            at = pix[edges[t] : edges[t + 1]]
            saved = product[at]
            product[at] = rows[edges[t] : edges[t + 1]]
            sums[start + t] = product.sum()
            product[at] = saved
    return total, sums, moved, aux


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
    idx, pix = _pixel_bins(u, valid, h, w)
    counts = np.bincount(pix, minlength=h * w).astype(np.float64)
    return FeatureGrid(counts.reshape(h, w, 1), semantics="weightsum", empty=bool(idx.size == 0))


def _density_factors(cloud: PointCloud, cam: CameraModel, cfg: SplatConfig) -> tuple[np.ndarray, ...]:
    """Separable factors of the untruncated mixture over the valid points.

    Returns (gy, gx, u, alpha): the (N, H) row and (N, W) column Gaussians,
    so point k contributes alpha_k gy[k, r] gx[k, c] at pixel (r, c).
    """
    u, z, valid = project_points(cam, cloud.points)
    u = u[valid]
    alpha = 1.0 / (z[valid] + cfg.eps_depth) if cfg.depth_weighting else np.ones(len(u))
    h, w = cam.resolution
    inv_two_sigma2 = 1.0 / (2.0 * cfg.sigma * cfg.sigma)
    # a finite but huge u squares to inf, and exp(-inf) = 0 is its right weight
    with np.errstate(over="ignore"):
        gy = -(((np.arange(h) + 0.5) - u[:, 1:2]) ** 2) * inv_two_sigma2
        gx = -(((np.arange(w) + 0.5) - u[:, 0:1]) ** 2) * inv_two_sigma2
    # in place, so the factors are the only (N, H) and (N, W) arrays
    return np.exp(gy, out=gy), np.exp(gx, out=gx), u, alpha


def _density_total(gy: np.ndarray, gx: np.ndarray, alpha: np.ndarray) -> float:
    """Riemann sum of the mixture over the grid (unit pixel area), in O(N (H + W))."""
    return float(np.sum(alpha * gy.sum(axis=1) * gx.sum(axis=1)))


def soft_density_grid(cloud: PointCloud, cam: CameraModel, cfg: SplatConfig) -> FeatureGrid:
    """Normalized soft occupancy field over pixel centers.

    The mixture is untruncated and scaled so its Riemann sum over the grid
    (unit pixel area) is 1. All points culled, or total mass underflowing to
    zero, yields a zero grid flagged empty.
    """
    gy, gx, _, alpha = _density_factors(cloud, cam, cfg)
    total = _density_total(gy, gx, alpha)
    if alpha.size == 0 or total <= 0.0:
        return FeatureGrid(np.zeros((*cam.resolution, 1)), semantics="generic", empty=True)
    gy *= alpha[:, None]
    field = gy.T @ gx
    return FeatureGrid((field / total)[:, :, None], semantics="generic", empty=False)


def soft_density(cloud: PointCloud, cam: CameraModel, cfg: SplatConfig, q) -> float:
    """Normalized soft density at one image point q = (q_x, q_y).

    Shares the pixel-grid Riemann normalizer with soft_density_grid, so the
    field integrates to 1 over the grid and sub-pixel queries stay consistent
    with it.
    """
    qv = _finite_array(q, (2,), "q must be a finite 2-vector")
    gy, gx, u, alpha = _density_factors(cloud, cam, cfg)
    total = _density_total(gy, gx, alpha)
    if alpha.size == 0 or total <= 0.0:
        return 0.0
    inv_two_sigma2 = 1.0 / (2.0 * cfg.sigma * cfg.sigma)
    # a far u or q squares to inf, and exp(-inf) = 0 is its right weight
    with np.errstate(over="ignore"):
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
    mask = np.zeros(h * w, dtype=bool)
    mask[_pixel_bins(u, valid, h, w)[1]] = True
    if mode == "soft":
        reach = 3.0 * cfg.sigma
        uv = u[valid]
        for rows in _window_chunks(len(uv), reach, h, w):
            _, _, pixel, dx, dy = _window_cells(uv[rows], reach, h, w)
            mask[pixel[dy ** 2 + dx ** 2 <= reach * reach]] = True
    return float(mask.sum())
