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
from .geometry import CameraModel, PointCloud, knn, project_points
from .losses import arc_cd, chamfer
from .nnprims import (
    AttentionParams,
    EDGECONV_HIDDEN,
    MlpParams,
    cross_attention,
    edgeconv_backward,
    edgeconv_forward,
)
from .splatting import SplatConfig, splat_backward, splat_forward

RTOL = 1e-5
ATOL = 1e-9
FD_STEP = 1e-5
PIXEL_MARGIN = 1e-3


def err_ratio(analytic: np.ndarray, fd: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    f = np.asarray(fd, dtype=np.float64).ravel()
    return float(np.max(np.abs(a - f) / (ATOL + RTOL * np.abs(f)))) if a.size else 0.0


def central_fd(fn, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of scalar fn over every entry of x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return g


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


def check_splat(seed: int) -> float:
    """Max err ratio over point, feature and sigma gradients for one instance."""
    cloud, feats, cam, cfg, upstream = _splat_instance(seed)
    _, aux = splat_forward(cloud, feats, cam, cfg)
    bundle = splat_backward(aux, cloud, feats, upstream, with_sigma=True)

    def loss_from(c=cloud, f=feats, sigma=cfg.sigma):
        g, _ = splat_forward(c, f, cam, replace(cfg, sigma=sigma))
        return float((g.data * upstream).sum())

    worst = err_ratio(bundle.d_points, central_fd(lambda p: loss_from(c=PointCloud(p)), cloud.points))
    worst = max(worst, err_ratio(bundle.d_features, central_fd(lambda f: loss_from(f=f), feats)))
    fd_sigma = central_fd(lambda s: loss_from(sigma=float(s[()])), np.array(cfg.sigma))
    worst = max(worst, err_ratio(np.array(bundle.d_sigma), fd_sigma))
    return worst


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


def check_edgeconv(seed: int) -> float:
    cloud, graph, params, upstream = _edgeconv_instance(seed)
    _, cache = edgeconv_forward(cloud, graph, params)
    d_points, d_params = edgeconv_backward(cache, upstream)

    def loss_from(c=cloud, p=params):
        t, _ = edgeconv_forward(c, graph, p)
        return float((t * upstream).sum())

    worst = err_ratio(d_points, central_fd(lambda x: loss_from(c=PointCloud(x)), cloud.points))
    for name in ("w1", "b1", "w2", "b2"):
        fd = central_fd(lambda x: loss_from(p=replace(params, **{name: x})), getattr(params, name))
        worst = max(worst, err_ratio(getattr(d_params, name), fd))
    return worst


def check_attention(seed: int) -> float:
    rng = np.random.default_rng(seed)
    geo = rng.standard_normal((5, 4))
    vis = rng.standard_normal((6, 3))
    params = AttentionParams.init(4, 3, 4, seed + 7)
    upstream = rng.standard_normal((5, 4))
    _, grads = cross_attention(geo, vis, params, upstream=upstream)

    def loss_from(g=geo, v=vis, p=params):
        return float((cross_attention(g, v, p) * upstream).sum())

    worst = err_ratio(grads.d_geo, central_fd(lambda x: loss_from(g=x), geo))
    worst = max(worst, err_ratio(grads.d_visual, central_fd(lambda x: loss_from(v=x), vis)))
    for name in ("w_q", "w_k", "w_v"):
        fd = central_fd(lambda x: loss_from(p=replace(params, **{name: x})), getattr(params, name))
        worst = max(worst, err_ratio(getattr(grads, "d_" + name), fd))
    return worst


def _chamfer_instance(seed: int, separated: bool):
    sub = 0
    while True:
        rng = np.random.default_rng((seed, sub))
        x = rng.uniform(0.0, 1.0, (8, 3))
        y = rng.uniform(0.0, 1.0, (7, 3))
        if separated:
            y = y + 1.5
        ok = True
        for a, b in ((x, y), (y, x)):
            d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
            s = np.sort(d2, axis=1)
            if a.shape[0] and (s[:, 1] - s[:, 0]).min() < 1e-3:
                ok = False
        if ok:
            return x, y
        sub += 1


def check_chamfer(seed: int) -> float:
    x, y = _chamfer_instance(seed, separated=False)
    grad = chamfer(x, y, with_grad=True).d_X
    fd = central_fd(lambda p: chamfer(p, y).value, x)
    return err_ratio(grad, fd)


def check_arc_cd(seed: int) -> float:
    x, y = _chamfer_instance(seed, separated=True)
    lam = float(np.random.default_rng(seed + 13).uniform(0.5, 2.0))
    res = arc_cd(x, y, lam, with_grad=True)
    if res.grad_clamped:
        raise AssertionError("arc_cd clamp engaged on a separated instance")
    fd = central_fd(lambda p: arc_cd(p, y, lam).value, x)
    return err_ratio(res.d_X, fd)


SUITES = {
    "splat_backward": check_splat,
    "edgeconv_backward": check_edgeconv,
    "cross_attention": check_attention,
    "chamfer": check_chamfer,
    "arc_cd": check_arc_cd,
}


def run_suite(name: str, instances: int, seed: int = 0) -> dict:
    """Run one named suite; reports the worst err ratio and the pass verdict."""
    if name not in SUITES:
        raise InvalidInputError(f"unknown gradcheck suite {name!r}; choose from {sorted(SUITES)}")
    if instances < 1:
        raise InvalidInputError("instances must be >= 1")
    fn = SUITES[name]
    worst = 0.0
    for i in range(instances):
        worst = max(worst, fn(seed + i))
    return {
        "name": name,
        "instances": instances,
        "max_err_ratio": worst,
        "passed": bool(worst <= 1.0),
    }


def run_all(instances: int, seed: int = 0) -> dict:
    suites = {name: run_suite(name, instances, seed) for name in SUITES}
    return {"suites": suites, "all_passed": bool(all(s["passed"] for s in suites.values()))}
