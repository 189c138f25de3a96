"""Micro neural primitives with hand-derived reverse-mode gradients.

EdgeConv aggregates a shared two-layer perceptron over each point's local
edges with a channelwise max; residual single-head cross-attention fuses
geometry tokens with visual tokens. Both backward passes are exact: the
EdgeConv max routes gradients through the cached argmax edge (ties resolved
toward the lower neighbor slot at forward time), and the attention backward
chains through the row softmax and all three projections.

The two diagnostics at the bottom drive these pieces end to end: a gradient
flow probe contrasting hard and soft projection, and a counterfactual
ablation zeroing the visual tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalConsistencyError, InvalidInputError
from .geometry import (CameraModel, NeighborGraph, PointCloud, _count, _finite_array, _row_chunks, ccm_features,
                       knn, project_points)
from .splatting import SplatConfig, _stepped_losses, splat_backward, splat_forward

EDGECONV_HIDDEN = 32
PROBE_STEP_PX = 1e-4
# analytic and finite-difference gradients agree when every err_ratio entry is <= 1
RTOL = 1e-5
ATOL = 1e-9


def err_ratio(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Largest |analytic - fd| / (ATOL + RTOL |fd|) over the entries; inf if one is not finite, so NaN cannot pass."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    f = np.asarray(fd, dtype=np.float64).ravel()
    ratios = np.abs(a - f) / (ATOL + RTOL * np.abs(f))
    return float(ratios.max(initial=0.0)) if np.all(np.isfinite(ratios)) else np.inf


def _uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    msg = "layer widths must be >= 1"
    fan_in = _count(fan_in, 1, msg)
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, [_count(n, 1, msg) for n in np.atleast_1d(shape)])


@dataclass
class MlpParams:
    """Two-layer perceptron weights; also reused as the gradient container."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def init(cls, in_dim: int, hidden: int, out_dim: int, seed: int) -> "MlpParams":
        """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) init for each layer."""
        rng = np.random.default_rng(_count(seed, 0, "seed must be an integer >= 0"))
        return cls(
            w1=_uniform_init(rng, in_dim, (in_dim, hidden)),
            b1=_uniform_init(rng, in_dim, hidden),
            w2=_uniform_init(rng, hidden, (hidden, out_dim)),
            b2=_uniform_init(rng, hidden, out_dim),
        )


@dataclass
class AttentionParams:
    """Query, key and value weight matrices for residual single-head cross-attention."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    @classmethod
    def init(cls, geo_dim: int, visual_dim: int, proj_dim: int, seed: int) -> "AttentionParams":
        rng = np.random.default_rng(_count(seed, 0, "seed must be an integer >= 0"))
        return cls(
            w_q=_uniform_init(rng, geo_dim, (geo_dim, proj_dim)),
            w_k=_uniform_init(rng, visual_dim, (visual_dim, proj_dim)),
            w_v=_uniform_init(rng, visual_dim, (visual_dim, geo_dim)),
        )


@dataclass
class EdgeConvCache:
    """Forward intermediates needed to route gradients through the edge max."""

    indices: np.ndarray
    params: MlpParams
    edge_in: np.ndarray
    pre_act: np.ndarray
    hidden: np.ndarray
    argmax: np.ndarray


def _edgeconv_body(pts, idx, w1, b1, w2, b2) -> tuple[np.ndarray, ...]:
    """EdgeConv forward, broadcast over any leading batch axes of the points and weights.

    Each batch entry runs the same matmuls, sums and argmax as the unbatched
    call, so its tokens are bit for bit those of edgeconv_forward on that
    entry. Returns (tokens, edge_in, pre_act, hidden, argmax).
    """
    n, k = idx.shape
    centers = np.repeat(pts[..., :, None, :], k, axis=-2)
    rel = pts[..., idx, :] - centers
    edge_in = np.concatenate([centers, rel], axis=-1).reshape(*pts.shape[:-2], n * k, 6)
    pre_act = edge_in @ w1 + b1[..., None, :]
    hidden = np.maximum(pre_act, 0.0)
    edge_out = hidden @ w2 + b2[..., None, :]
    edge_out = edge_out.reshape(*edge_out.shape[:-2], n, k, -1)
    arg = np.argmax(edge_out, axis=-2)
    tokens = np.take_along_axis(edge_out, arg[..., None, :], axis=-2)[..., 0, :]
    return tokens, edge_in, pre_act, hidden, arg


def edgeconv_forward(cloud: PointCloud, graph: NeighborGraph, params: MlpParams) -> tuple[np.ndarray, EdgeConvCache]:
    """Channelwise max over edge features h_i = max_j phi(p_i, p_j - p_i).

    The shared perceptron phi sees the 6-vector (p_i, p_j - p_i) per edge.
    Ties in the max resolve to the earliest neighbor slot (numpy argmax).
    Returns the (N, C) token matrix and the backward cache.
    """
    pts = cloud.points
    n = pts.shape[0]
    idx = graph.indices
    if idx.shape[0] != n:
        raise InvalidInputError("graph and cloud sizes disagree")
    if idx.min() < 0 or idx.max() >= n:
        raise InvalidInputError("graph indices out of range")
    tokens, edge_in, pre_act, hidden, arg = _edgeconv_body(pts, idx, params.w1, params.b1, params.w2, params.b2)
    cache = EdgeConvCache(
        indices=idx, params=params, edge_in=edge_in, pre_act=pre_act, hidden=hidden, argmax=arg,
    )
    return tokens, cache


def edgeconv_backward(cache: EdgeConvCache, upstream: np.ndarray) -> tuple[np.ndarray, MlpParams]:
    """Exact gradients of edgeconv_forward for upstream dL/dtokens.

    Each (point, channel) gradient flows only through its argmax edge, then
    through the perceptron into both endpoint positions; self-padded edges
    (neighbor == point) collapse both paths onto the point itself.
    """
    n, k = cache.indices.shape
    c = cache.params.b2.shape[0]
    g = _finite_array(upstream, (n, c), f"upstream must be a finite array of shape {(n, c)}")
    d_edge_out = np.zeros((n, k, c), dtype=np.float64)
    np.put_along_axis(d_edge_out, cache.argmax[:, None, :], g[:, None, :], axis=1)
    d_out_flat = d_edge_out.reshape(n * k, c)

    d_w2 = cache.hidden.T @ d_out_flat
    d_b2 = d_out_flat.sum(axis=0)
    d_hidden = (d_out_flat @ cache.params.w2.T) * (cache.pre_act > 0.0)
    d_w1 = cache.edge_in.T @ d_hidden
    d_b1 = d_hidden.sum(axis=0)
    d_x = (d_hidden @ cache.params.w1.T).reshape(n, k, 6)

    d_points = (d_x[:, :, :3] - d_x[:, :, 3:]).sum(axis=1)
    np.add.at(d_points, cache.indices, d_x[:, :, 3:])
    return d_points, MlpParams(d_w1, d_b1, d_w2, d_b2)


@dataclass
class CrossAttentionGrads:
    d_geo: np.ndarray
    d_visual: np.ndarray
    d_w_q: np.ndarray
    d_w_k: np.ndarray
    d_w_v: np.ndarray


def _attention_blocks(geo, q, key, val, out):
    """Write out = geo + softmax(q key^T / sqrt(d)) val one block of score rows at a time.

    Yields (rows, attn) per block, attn the block's softmax rows. Broadcasts
    over any leading batch axes; row-wise max, exp, sum and matmul rows come
    out the same as over the whole N x HW matrix, for every batch entry.
    """
    scale = math.sqrt(q.shape[-1])
    key_t = np.swapaxes(key, -1, -2)
    for rows in _row_chunks(q.shape[-2], 8 * key.shape[-2]):
        attn = q[..., rows, :] @ key_t
        attn /= scale
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        out[..., rows, :] = geo[..., rows, :] + attn @ val
        yield rows, attn


def _attention_forward(geo, vis, w_q, w_k, w_v) -> np.ndarray:
    """cross_attention's output, broadcast over any leading batch axes of the inputs."""
    q, key, val = geo @ w_q, vis @ w_k, vis @ w_v
    out = np.empty(np.broadcast_shapes(q.shape[:-2], key.shape[:-2], val.shape[:-2]) + geo.shape[-2:])
    for _ in _attention_blocks(geo, q, key, val, out):
        pass
    return out


def cross_attention(f_geo: np.ndarray, visual: np.ndarray, params: AttentionParams, upstream=None):
    """Residual single-head cross-attention.

    out = f_geo + softmax((f_geo W_q)(visual W_k)^T / sqrt(d)) (visual W_v),
    rows of the score matrix softmaxed independently. With ``upstream``
    (dL/dout, same shape as out) provided, returns (out, CrossAttentionGrads)
    with exact gradients for both token matrices and all three projections.

    Score rows are streamed in blocks of at least 64 rows (``geometry._row_chunks``),
    so no N x HW array is built; ``d_visual``, ``d_w_k`` and ``d_w_v`` sum
    their per-block parts. Both token matrices need at least one row and one column.
    """
    geo = _finite_array(f_geo, (None, None), "geometry tokens must be a finite, non-empty 2-D array")
    vis = _finite_array(visual, (None, None), "visual tokens must be a finite, non-empty 2-D array")
    if geo.shape[1] != params.w_q.shape[0] or vis.shape[1] != params.w_k.shape[0]:
        raise InvalidInputError("token widths disagree with projection shapes")
    if params.w_v.shape != (vis.shape[1], geo.shape[1]):
        raise InvalidInputError("w_v must map visual width to geometry width")
    d = params.w_q.shape[1]
    if params.w_k.shape[1] != d:
        raise InvalidInputError("w_q and w_k must share the projection width")

    if upstream is None:
        return _attention_forward(geo, vis, params.w_q, params.w_k, params.w_v)
    g = _finite_array(upstream, geo.shape, f"upstream must be a finite array of shape {geo.shape}")
    q, key, val = geo @ params.w_q, vis @ params.w_k, vis @ params.w_v
    scale = math.sqrt(d)
    out = np.empty_like(geo)
    d_q = np.empty_like(q)
    d_key = np.zeros_like(key)
    d_val = np.zeros_like(val)
    for rows, attn in _attention_blocks(geo, q, key, val, out):
        d_val += attn.T @ g[rows]
        # softmax backward per row: dS = P * (dP - sum(dP * P))
        d_scores = g[rows] @ val.T
        d_scores -= (d_scores * attn).sum(axis=1, keepdims=True)
        d_scores *= attn
        d_scores /= scale
        d_q[rows] = d_scores @ key
        d_key += d_scores.T @ q[rows]

    d_geo = g + d_q @ params.w_q.T
    d_visual = d_key @ params.w_k.T + d_val @ params.w_v.T
    grads = CrossAttentionGrads(
        d_geo=d_geo,
        d_visual=d_visual,
        d_w_q=geo.T @ d_q,
        d_w_k=vis.T @ d_key,
        d_w_v=vis.T @ d_val,
    )
    return out, grads


@dataclass
class ProbeReport:
    """Per-coordinate gradient evidence for one projection mode.

    ``fd`` holds central finite differences of the masked-mean loss; ``unstable``
    marks coordinates whose perturbation culled the point, crossed a pixel
    boundary or changed whether the point wins its pixel's z-buffer, where the
    lowest (z, index) wins (hard), or shifted a truncation window (soft). The
    exactness stats exclude them.
    """

    mode: str
    loss: float
    fd: np.ndarray
    analytic: np.ndarray | None
    unstable: np.ndarray
    summary: dict
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "loss": self.loss,
            "fd": self.fd.tolist(),
            "analytic": None if self.analytic is None else self.analytic.tolist(),
            "unstable": self.unstable.astype(int).tolist(),
            "summary": self.summary,
            "provenance": self.provenance,
        }


def grad_flow_probe(cloud: PointCloud, cam: CameraModel, cfg: SplatConfig, mode: str, seed: int) -> ProbeReport:
    """Measure gradient flow through hard or soft projection.

    The pipeline is: positions -> projection (frozen per-point CCM features)
    -> grid -> loss = mean of the grid weighted by a seeded random mask.
    Features are frozen at the unperturbed cloud so the hard path is genuinely
    piecewise constant in the positions. Finite differences use a central step
    of about 1e-4 pixels (scaled into scene units per point depth). Each
    stepped loss patches the base grid locally, with the bits of a full
    re-splat of the stepped cloud.

    hard: reports FD gradients and flags a coordinate when a step moves its
    point to another pixel bin, culls it, or changes whether it wins its bin
    (the z-buffer keeps the lowest (z, index)); every unflagged FD entry must
    be exactly zero.
    soft: additionally reports the analytic splat_backward gradient; the
    summary's max_err_ratio is err_ratio of analytic against FD on the
    window-stable coordinates.
    """
    if mode not in ("hard", "soft"):
        raise InvalidInputError("mode must be 'hard' or 'soft'")
    seed = _count(seed, 0, "seed must be an integer >= 0")
    feats = ccm_features(cloud)
    pts = cloud.points
    n = pts.shape[0]
    h, w = cam.resolution
    rng = np.random.default_rng(seed)
    mask = rng.random((h, w, feats.shape[1]))

    _, z0, valid0 = project_points(cam, pts)
    if not np.any(valid0):
        raise InvalidInputError("all points culled; probe needs visible geometry")
    fx, fy = cam.focal
    f_avg = 0.5 * (fx + fy)
    steps = PROBE_STEP_PX * np.where(valid0, z0, 1.0) / f_avg

    # stepped rows ordered (point, axis, sign): +step, then -step, per axis
    vis = np.flatnonzero(valid0)
    stepped = np.repeat(pts[vis], 6, axis=0).reshape(-1, 3, 2, 3)
    for axis in range(3):
        stepped[:, axis, 0, axis] += steps[vis]
        stepped[:, axis, 1, axis] -= steps[vis]
    total, sums, moved, aux = _stepped_losses(cloud, feats, cam, cfg, mode, mask,
                                              stepped.reshape(-1, 3), np.repeat(vis, 6))
    loss0 = total / mask.size
    losses = (sums / mask.size).reshape(-1, 3, 2)
    fd = np.zeros((n, 3), dtype=np.float64)
    fd[vis] = (losses[:, :, 0] - losses[:, :, 1]) / (2.0 * steps[vis])[:, None]
    unstable = np.zeros((n, 3), dtype=bool)
    unstable[vis] = moved.reshape(-1, 3, 2).any(axis=2)
    analytic = None if mode == "hard" else splat_backward(aux, cloud, feats, mask / mask.size).d_points

    stable = ~unstable & valid0[:, None]
    summary: dict = {
        "n_coords": int(3 * n),
        "n_stable": int(stable.sum()),
        "n_unstable": int((unstable & valid0[:, None]).sum()),
        "n_culled": int((~valid0).sum() * 3),
    }
    if mode == "hard":
        zero_frac = float((fd[stable] == 0.0).mean()) if stable.any() else 1.0
        summary["stable_zero_fd_fraction"] = zero_frac
        summary["max_abs_fd_stable"] = float(np.abs(fd[stable]).max()) if stable.any() else 0.0
    else:
        norms = np.linalg.norm(analytic, axis=1)
        summary["median_grad_norm"] = float(np.median(norms))
        summary["max_grad_norm"] = float(norms.max())
        summary["max_err_ratio"] = err_ratio(analytic[stable], fd[stable])
    return ProbeReport(
        mode=mode,
        loss=loss0,
        fd=fd,
        analytic=analytic,
        unstable=unstable,
        summary=summary,
        provenance={"seed": seed, "step_px": PROBE_STEP_PX, "n_points": n},
    )


@dataclass
class AblationParams:
    """Parameter bundle for the counterfactual pipeline."""

    mlp: MlpParams
    attention: AttentionParams

    @classmethod
    def init(cls, geo_dim: int, visual_dim: int, proj_dim: int, seed: int) -> "AblationParams":
        return cls(
            mlp=MlpParams.init(6, EDGECONV_HIDDEN, geo_dim, seed),
            attention=AttentionParams.init(geo_dim, visual_dim, proj_dim, seed + 1),
        )


@dataclass
class AblationReport:
    """Relative output change when the visual tokens are zeroed."""

    sensitivity: float
    value_path_only: bool
    output_norm: float
    delta_norm: float
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "sensitivity": self.sensitivity,
            "value_path_only": self.value_path_only,
            "output_norm": self.output_norm,
            "delta_norm": self.delta_norm,
            "provenance": self.provenance,
        }


def _frobenius(x: np.ndarray) -> float:
    # np.linalg.norm calls BLAS ddot, whose sum splits by thread count; np.sum never does
    return math.sqrt(float(np.sum(x * x)))


def counterfactual_ablate(
    cloud: PointCloud,
    cam: CameraModel,
    cfg: SplatConfig,
    params: AblationParams | None = None,
    seed: int = 0,
    k: int = 8,
    geo_dim: int = 16,
    proj_dim: int = 16,
) -> AblationReport:
    """Zero the visual tokens and measure the fused output's relative change.

    Pipeline: knn -> EdgeConv geometry tokens; soft splat of CCM -> flattened
    visual tokens; cross-attention fusion run intact and ablated. Sensitivity
    is |out - out_ablated|_F / |out|_F. Because zeroed tokens kill the value
    projection outright, the ablated output must equal the geometry tokens
    bit for bit; value_path_only records that check.
    """
    feats = ccm_features(cloud)
    k = _count(k, 1, "k must be an integer >= 1")
    if params is None:
        params = AblationParams.init(geo_dim, feats.shape[1], proj_dim, seed)
    graph = knn(cloud, min(k, max(1, len(cloud) - 1)))
    geo_tokens, _ = edgeconv_forward(cloud, graph, params.mlp)
    grid, _ = splat_forward(cloud, feats, cam, cfg, semantics="ccm")
    visual = grid.data.reshape(-1, grid.channels)
    out_full = cross_attention(geo_tokens, visual, params.attention)
    out_abl = cross_attention(geo_tokens, np.zeros_like(visual), params.attention)
    delta = _frobenius(out_full - out_abl)
    denom = _frobenius(out_full)
    sensitivity = delta / denom if denom > 0 else 0.0
    if not math.isfinite(sensitivity):
        raise InternalConsistencyError("ablation sensitivity is not finite")
    return AblationReport(
        sensitivity=sensitivity,
        value_path_only=bool(np.array_equal(out_abl, geo_tokens)),
        output_norm=denom,
        delta_norm=delta,
        provenance={
            "seed": seed,
            "k": graph.k,
            "geo_dim": geo_tokens.shape[1],
            "proj_dim": params.attention.w_q.shape[1],
            "n_points": len(cloud),
            "grid": list(cam.resolution),
        },
    )
