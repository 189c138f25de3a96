"""Finite-difference verification suites for every hand-derived backward pass.

Each suite draws seeded random instances, rejects tie or singularity
configurations at construction time (pixel-boundary proximity, argmax or
argmin near-ties, near-zero Chamfer), and compares analytic gradients against
central finite differences. Agreement is scored as

    ratio = |analytic - fd| / (atol + rtol * |fd|),  rtol = 1e-5, atol = 1e-9,

and an instance passes when every coordinate's ratio is <= 1. The suites are
shared by the unit tests, the acceptance gate and the gradcheck subcommand.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import InvalidInputError
from .geometry import CameraModel, PointCloud, _count, _sq_dist_rows, knn, project_points
from .losses import arc_cd, chamfer
from .nnprims import (
    AttentionParams,
    EDGECONV_HIDDEN,
    MlpParams,
    _attention_forward,
    _edgeconv_body,
    cross_attention,
    edgeconv_backward,
    edgeconv_forward,
)
from .splatting import SplatConfig, _stepped_losses, splat_backward, splat_forward

RTOL = 1e-5
ATOL = 1e-9
FD_STEP = 1e-5
PIXEL_MARGIN = 1e-3
# stepped copies per fn call; bounds fn's temporaries (a 512-copy EdgeConv stack holds > 10 MB)
_FD_BLOCK = 32


def err_ratio(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Largest per-entry ratio; inf when any entry is not finite, so a NaN cannot pass."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    f = np.asarray(fd, dtype=np.float64).ravel()
    ratios = np.abs(a - f) / (ATOL + RTOL * np.abs(f))
    return float(ratios.max(initial=0.0)) if np.all(np.isfinite(ratios)) else np.inf


def central_fd(fn, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences (f(x + h e_i) - f(x - h e_i)) / (2h) over every entry of x.

    fn maps a (B, *x.shape) stack of stepped copies of x to their B losses.
    The 2 * x.size copies are +h then -h per entry, entries in C order, and
    reach fn in blocks of at most _FD_BLOCK copies.
    """
    x = np.asarray(x, dtype=np.float64)
    m = x.size
    f = np.empty(2 * m, dtype=np.float64)
    for start in range(0, 2 * m, _FD_BLOCK):
        j = np.arange(start, min(start + _FD_BLOCK, 2 * m))
        block = np.repeat(x.reshape(1, m), j.size, axis=0)
        # x + (-h) rounds exactly as x - h
        block[np.arange(j.size), j // 2] += np.where(j % 2 == 0, h, -h)
        losses = np.asarray(fn(block.reshape(j.size, *x.shape)), dtype=np.float64)
        if losses.shape != (j.size,):
            raise InvalidInputError(
                f"central_fd: fn must return one loss per stepped copy, shape ({j.size},); "
                f"got shape {losses.shape}")
        f[start:start + j.size] = losses
    return ((f[0::2] - f[1::2]) / (2.0 * h)).reshape(x.shape)


def _worst(pairs) -> float:
    return max(err_ratio(analytic, fd) for analytic, fd in pairs)


def _rand_rotation(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _fractions_clear(u: np.ndarray, valid: np.ndarray, margin: float) -> bool:
    # window bounds shift only when frac(u) crosses 0.5 (integer radius)
    fr = u[valid] - np.floor(u[valid])
    return bool(np.all(np.abs(fr - 0.5) > margin))


def _splat_instance(seed: int):
    rng = np.random.default_rng(seed)
    rot = _rand_rotation(rng)
    n = 6
    while True:
        pts = rng.uniform(-0.8, 0.8, (n, 3))
        centroid = pts.mean(axis=0)
        # moderate focal and sigma keep third derivatives small enough that
        # central differences at h=1e-5 resolve every component to < 1e-5 rel
        cam = CameraModel(
            focal=(16.0, 14.0),
            principal=(10.0, 10.0),
            rotation=rot,
            translation=np.array([0.0, 0.0, 3.2]) - rot @ centroid,
            resolution=(20, 20),
        )
        u, _, valid = project_points(cam, pts)
        if np.all(valid) and _fractions_clear(u, valid, PIXEL_MARGIN):
            break
    cfg = SplatConfig(
        sigma=float(rng.uniform(1.2, 2.0)),
        radius=4,
        depth_weighting=bool(seed % 2 == 0),
    )
    feats = rng.uniform(0.0, 1.0, (n, 2))
    upstream = rng.standard_normal((20, 20, 2))
    return PointCloud(pts), feats, cam, cfg, upstream


def _splat_pairs(seed: int, fd) -> list:
    """(analytic, fd) gradients of one splat instance: points, features, sigma.

    Each suite has one such helper; ``fd`` is central_fd or a stand-in with its signature.
    """
    cloud, feats, cam, cfg, upstream = _splat_instance(seed)
    _, aux = splat_forward(cloud, feats, cam, cfg)
    bundle = splat_backward(aux, cloud, feats, upstream, with_sigma=True)
    pts = cloud.points

    def point_sums(block):
        # each copy moves one point, so the probe's patched re-splat gives its sum
        copy, owner = np.nonzero((block != pts).any(axis=-1))
        return _stepped_losses(cloud, feats, cam, cfg, "soft", upstream, block[copy, owner], owner)[1]

    def loss(f=feats, sigma=cfg.sigma):
        g, _ = splat_forward(cloud, f, cam, replace(cfg, sigma=sigma))
        return (g.data * upstream).sum()

    return [
        (bundle.d_points, fd(point_sums, pts)),
        (bundle.d_features, fd(lambda block: np.array([loss(f=f) for f in block]), feats)),
        (np.array(bundle.d_sigma),
         fd(lambda block: np.array([loss(sigma=float(s)) for s in block]), np.array(cfg.sigma))),
    ]


def _edgeconv_instance(seed: int):
    sub = 0
    while True:
        rng = np.random.default_rng((seed, sub))
        pts = rng.uniform(-1.0, 1.0, (10, 3))
        cloud = PointCloud(pts)
        graph = knn(cloud, 3)
        params = MlpParams.init(6, EDGECONV_HIDDEN, 8, seed * 1000 + sub)
        tokens, cache = edgeconv_forward(cloud, graph, params)
        edge_out = (cache.hidden @ params.w2 + params.b2).reshape(10, graph.k, -1)
        srt = np.sort(edge_out, axis=1)
        gap = srt[:, -1, :] - srt[:, -2, :]
        # relu kinks: keep pre-activations away from 0 so FD stays two-sided smooth
        if gap.min() > 1e-4 and np.abs(cache.pre_act).min() > 1e-4:
            upstream = rng.standard_normal(tokens.shape)
            return cloud, graph, params, upstream
        sub += 1


def _edgeconv_pairs(seed: int, fd) -> list:
    """(analytic, fd) gradients of one EdgeConv instance: points, w1, b1, w2, b2."""
    cloud, graph, params, upstream = _edgeconv_instance(seed)
    _, cache = edgeconv_forward(cloud, graph, params)
    d_points, d_params = edgeconv_backward(cache, upstream)
    inputs = {"pts": cloud.points, "w1": params.w1, "b1": params.b1, "w2": params.w2, "b2": params.b2}
    analytic = {"pts": d_points, "w1": d_params.w1, "b1": d_params.b1, "w2": d_params.w2, "b2": d_params.b2}

    def sums(name):
        def fn(block):
            tokens = _edgeconv_body(**{**inputs, name: block}, idx=graph.indices)[0]
            return (tokens * upstream).reshape(len(block), -1).sum(axis=-1)
        return fn

    return [(analytic[name], fd(sums(name), x)) for name, x in inputs.items()]


def _attention_pairs(seed: int, fd) -> list:
    """(analytic, fd) gradients of one cross-attention instance: both token matrices, w_q, w_k, w_v."""
    rng = np.random.default_rng(seed)
    geo = rng.standard_normal((5, 4))
    vis = rng.standard_normal((6, 3))
    params = AttentionParams.init(4, 3, 4, seed + 7)
    upstream = rng.standard_normal((5, 4))
    _, grads = cross_attention(geo, vis, params, upstream=upstream)
    inputs = {"geo": geo, "vis": vis, "w_q": params.w_q, "w_k": params.w_k, "w_v": params.w_v}
    analytic = {"geo": grads.d_geo, "vis": grads.d_visual, "w_q": grads.d_w_q, "w_k": grads.d_w_k,
                "w_v": grads.d_w_v}

    def sums(name):
        def fn(block):
            out = _attention_forward(**{**inputs, name: block})
            return (out * upstream).reshape(len(block), -1).sum(axis=-1)
        return fn

    return [(analytic[name], fd(sums(name), x)) for name, x in inputs.items()]


def _chamfer_instance(seed: int, separated: bool):
    sub = 0
    while True:
        rng = np.random.default_rng((seed, sub))
        x = rng.uniform(0.0, 1.0, (8, 3))
        y = rng.uniform(0.0, 1.0, (7, 3))
        if separated:
            y = y + 1.5
        # the two nearest neighbours of every point in either direction differ by >= 1e-3
        gaps = [np.diff(np.sort(d2, axis=1)[:, :2], axis=1).min()
                for a, b in ((x, y), (y, x)) for _, d2 in _sq_dist_rows(a, b)]
        if min(gaps) >= 1e-3:
            return x, y
        sub += 1


def _chamfer_pairs(seed: int, fd) -> list:
    x, y = _chamfer_instance(seed, separated=False)
    grad = chamfer(x, y, with_grad=True).d_X
    return [(grad, fd(lambda block: np.array([chamfer(p, y).value for p in block]), x))]


def _arc_cd_pairs(seed: int, fd) -> list:
    x, y = _chamfer_instance(seed, separated=True)
    lam = float(np.random.default_rng(seed + 13).uniform(0.5, 2.0))
    res = arc_cd(x, y, lam, with_grad=True)
    if res.grad_clamped:
        raise AssertionError("arc_cd clamp engaged on a separated instance")
    return [(res.d_X, fd(lambda block: np.array([arc_cd(p, y, lam).value for p in block]), x))]


# suite name -> its (seed, fd) -> [(analytic, fd)] helper
SUITES = {
    "splat_backward": _splat_pairs,
    "edgeconv_backward": _edgeconv_pairs,
    "cross_attention": _attention_pairs,
    "chamfer": _chamfer_pairs,
    "arc_cd": _arc_cd_pairs,
}


def run_suite(name: str, instances: int, seed: int = 0) -> dict:
    """Run one named suite; reports the worst err ratio and the pass verdict."""
    if name not in SUITES:
        raise InvalidInputError(f"unknown gradcheck suite {name!r}; choose from {sorted(SUITES)}")
    instances = _count(instances, 1, "instances must be an integer >= 1")
    seed = _count(seed, 0, "seed must be an integer >= 0")
    # central_fd is read from the module at each call, so a wrapper patched over it sees every FD call
    worst = max(_worst(SUITES[name](seed + i, central_fd)) for i in range(instances))
    return {
        "name": name,
        "instances": instances,
        "max_err_ratio": worst,
        "passed": bool(worst <= 1.0),
    }


def run_all(instances: int, seed: int = 0) -> dict:
    suites = {name: run_suite(name, instances, seed) for name in SUITES}
    return {"suites": suites, "all_passed": bool(all(s["passed"] for s in suites.values()))}
