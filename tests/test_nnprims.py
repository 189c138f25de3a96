"""Tests for splatlab.nnprims: EdgeConv, cross-attention, the gradient-flow
probe, and counterfactual ablation."""

import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatlab import splatting
from splatlab.errors import InvalidInputError
from splatlab.geometry import (
    CULL_DEPTH,
    CameraModel,
    PointCloud,
    ccm_features,
    front_camera,
    gen_sphere,
    _row_chunks,
    knn,
    project_points,
)
from splatlab.nnprims import (
    PROBE_STEP_PX,
    AblationParams,
    AttentionParams,
    MlpParams,
    _attention_forward,
    _edgeconv_body,
    counterfactual_ablate,
    cross_attention,
    edgeconv_backward,
    edgeconv_forward,
    grad_flow_probe,
)
from splatlab.splatting import SplatConfig, _scatter_min_depth, splat_backward, splat_forward

# seeded, so every run draws the same examples and writes no example database
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def naive_edgeconv(points, indices, params):
    """Per-edge loop oracle with explicit matrix products."""
    n, k = indices.shape
    out_dim = params.w2.shape[1]
    tokens = np.zeros((n, out_dim))
    for i in range(n):
        best = np.full(out_dim, -np.inf)
        for j in range(k):
            nb = indices[i, j]
            e = np.concatenate([points[i], points[nb] - points[i]])
            hidden = np.maximum(e @ params.w1 + params.b1, 0.0)
            val = hidden @ params.w2 + params.b2
            best = np.maximum(best, val)
        tokens[i] = best
    return tokens


def test_edgeconv_matches_naive_oracle():
    for seed in range(4):
        cloud = gen_sphere(12, seed)
        graph = knn(cloud, 4)
        params = MlpParams.init(6, 32, 8, seed=seed + 100)
        tokens, _ = edgeconv_forward(cloud, graph, params)
        expected = naive_edgeconv(cloud.points, graph.indices, params)
        np.testing.assert_allclose(tokens, expected, rtol=0, atol=1e-12)


def test_edgeconv_frozen_regression():
    cloud = gen_sphere(10, 3)
    graph = knn(cloud, 3)
    params = MlpParams.init(6, 32, 8, seed=5)
    tokens, _ = edgeconv_forward(cloud, graph, params)
    assert tokens.shape == (10, 8)
    np.testing.assert_allclose(tokens.sum(), 1.7937388128040384, rtol=0, atol=1e-14)


def test_edgeconv_single_point_self_padded():
    """Self-padded neighbors reduce every edge to (p, 0)."""
    cloud = PointCloud(np.array([[0.3, -0.2, 0.5]]))
    graph = knn(cloud, 4)
    params = MlpParams.init(6, 32, 6, seed=0)
    tokens, _ = edgeconv_forward(cloud, graph, params)
    e = np.concatenate([cloud.points[0], np.zeros(3)])
    phi = np.maximum(e @ params.w1 + params.b1, 0.0) @ params.w2 + params.b2
    np.testing.assert_allclose(tokens[0], phi, rtol=0, atol=1e-12)


def test_edgeconv_neighbor_order_invariant():
    from splatlab.geometry import NeighborGraph

    cloud = gen_sphere(9, 6)
    graph = knn(cloud, 4)
    params = MlpParams.init(6, 32, 5, seed=2)
    base, _ = edgeconv_forward(cloud, graph, params)
    flipped = NeighborGraph(k=4, indices=graph.indices[:, ::-1].copy())
    out, _ = edgeconv_forward(cloud, flipped, params)
    np.testing.assert_allclose(out, base, rtol=0, atol=0)


def test_edgeconv_point_permutation_equivariant():
    rng = np.random.default_rng(10)
    cloud = gen_sphere(14, 1)
    params = MlpParams.init(6, 32, 7, seed=4)
    base, _ = edgeconv_forward(cloud, knn(cloud, 3), params)

    perm = rng.permutation(14)
    shuffled = PointCloud(cloud.points[perm])
    out, _ = edgeconv_forward(shuffled, knn(shuffled, 3), params)
    np.testing.assert_allclose(out, base[perm], rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["pts", "w1", "b1", "w2", "b2"])
def test_edgeconv_body_gives_each_stacked_copy_the_public_output(name):
    rng = np.random.default_rng(8)
    cloud = gen_sphere(12, seed=8)
    graph = knn(cloud, 4)
    params = MlpParams.init(6, 32, 8, seed=9)
    inputs = {"pts": cloud.points, "w1": params.w1, "b1": params.b1, "w2": params.w2, "b2": params.b2}
    block = inputs[name] + rng.normal(scale=0.05, size=(7, *inputs[name].shape))
    tokens = _edgeconv_body(**{**inputs, name: block}, idx=graph.indices)[0]
    assert tokens.shape == (7, 12, 8)
    for b in range(7):
        one = {**inputs, name: block[b]}
        want, _ = edgeconv_forward(PointCloud(one["pts"]), graph,
                                   MlpParams(one["w1"], one["b1"], one["w2"], one["b2"]))
        assert np.array_equal(tokens[b], want)


def test_edgeconv_backward_zero_upstream():
    cloud = gen_sphere(8, 0)
    graph = knn(cloud, 3)
    params = MlpParams.init(6, 32, 4, seed=1)
    _, cache = edgeconv_forward(cloud, graph, params)
    d_points, d_params = edgeconv_backward(cache, np.zeros((8, 4)))
    assert not d_points.any()
    assert not d_params.w1.any() and not d_params.b2.any()


def test_edgeconv_backward_routes_through_argmax():
    """With one neighbor there is a single path; check it against a direct
    product-rule evaluation of the perceptron."""
    pts = np.array([[0.1, 0.2, 0.3], [0.4, -0.1, 0.2]])
    cloud = PointCloud(pts)
    graph = knn(cloud, 1)
    params = MlpParams.init(6, 32, 4, seed=3)
    _, cache = edgeconv_forward(cloud, graph, params)
    upstream = np.zeros((2, 4))
    upstream[0, 2] = 1.0
    d_points, _ = edgeconv_backward(cache, upstream)

    e = np.concatenate([pts[0], pts[1] - pts[0]])
    pre = e @ params.w1 + params.b1
    act = (pre > 0).astype(float)
    d_e = params.w1 @ (act * params.w2[:, 2])
    np.testing.assert_allclose(d_points[0], d_e[:3] - d_e[3:], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(d_points[1], d_e[3:], rtol=1e-12, atol=1e-14)


def test_edgeconv_backward_shape_check():
    cloud = gen_sphere(6, 2)
    _, cache = edgeconv_forward(cloud, knn(cloud, 2), MlpParams.init(6, 32, 4, seed=0))
    with pytest.raises(InvalidInputError):
        edgeconv_backward(cache, np.zeros((6, 5)))


def naive_attention(geo, visual, params):
    q = geo @ params.w_q
    k = visual @ params.w_k
    v = visual @ params.w_v
    scores = q @ k.T / np.sqrt(params.w_q.shape[1])
    p = np.exp(scores - scores.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return geo + p @ v


def test_attention_matches_naive():
    rng = np.random.default_rng(0)
    geo = rng.normal(size=(5, 4))
    visual = rng.normal(size=(7, 3))
    params = AttentionParams.init(4, 3, 6, seed=1)
    out = cross_attention(geo, visual, params)
    np.testing.assert_allclose(out, naive_attention(geo, visual, params), rtol=0, atol=1e-12)


def test_attention_zero_value_projection_is_identity():
    rng = np.random.default_rng(2)
    geo = rng.normal(size=(6, 5))
    visual = rng.normal(size=(9, 4))
    params = AttentionParams.init(5, 4, 8, seed=3)
    zeroed = AttentionParams(params.w_q, params.w_k, np.zeros_like(params.w_v))
    out = cross_attention(geo, visual, zeroed)
    assert np.array_equal(out, geo)


def test_attention_single_visual_token():
    """Softmax over one element is 1, so the row is geo + V W_V."""
    rng = np.random.default_rng(4)
    geo = rng.normal(size=(3, 4))
    visual = rng.normal(size=(1, 2))
    params = AttentionParams.init(4, 2, 4, seed=5)
    out = cross_attention(geo, visual, params)
    np.testing.assert_allclose(out, geo + visual @ params.w_v, rtol=0, atol=1e-12)


def test_attention_softmax_rows_sum_to_one():
    rng = np.random.default_rng(6)
    geo = rng.normal(size=(4, 3))
    visual = rng.normal(size=(5, 3))
    out, grads = cross_attention(geo, visual, AttentionParams.init(3, 3, 4, seed=7),
                                 upstream=np.ones((4, 3)))
    assert grads is not None
    assert np.isfinite(grads.d_geo).all()
    assert np.isfinite(grads.d_visual).all()


def unchunked_attention_backward(geo, visual, params, upstream):
    """The five attention gradients from the whole N x HW softmax at once."""
    q, key, val = geo @ params.w_q, visual @ params.w_k, visual @ params.w_v
    scale = np.sqrt(params.w_q.shape[1])
    scores = q @ key.T / scale
    p = np.exp(scores - scores.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    d_p = upstream @ val.T
    d_s = p * (d_p - (d_p * p).sum(axis=1, keepdims=True)) / scale
    d_q, d_key, d_val = d_s @ key, d_s.T @ q, p.T @ upstream
    return {"d_geo": upstream + d_q @ params.w_q.T,
            "d_visual": d_key @ params.w_k.T + d_val @ params.w_v.T,
            "d_w_q": geo.T @ d_q, "d_w_k": visual.T @ d_key, "d_w_v": visual.T @ d_val}


def test_attention_streams_blocks_with_a_short_tail():
    """200 rows over 2,048 visual tokens run as 64-row blocks and an 8-row tail."""
    rng = np.random.default_rng(11)
    geo = rng.normal(size=(200, 6))
    visual = rng.random((2048, 3))
    params = AttentionParams.init(6, 3, 5, seed=12)
    assert [r.stop - r.start for r in _row_chunks(200, 8 * 2048)] == [64, 64, 64, 8]
    upstream = rng.normal(size=geo.shape)
    out, grads = cross_attention(geo, visual, params, upstream=upstream)
    np.testing.assert_allclose(out, naive_attention(geo, visual, params), rtol=0, atol=1e-12)
    assert np.array_equal(cross_attention(geo, visual, params), out)
    for name, want in unchunked_attention_backward(geo, visual, params, upstream).items():
        np.testing.assert_allclose(getattr(grads, name), want, rtol=1e-12, atol=0, err_msg=name)
    assert np.array_equal(cross_attention(geo, np.zeros_like(visual), params), geo)


@pytest.mark.parametrize("name", ["geo", "vis", "w_q", "w_k", "w_v"])
def test_attention_body_gives_each_stacked_copy_the_public_output(name):
    """150 rows over 2,048 visual tokens stream as blocks of 64, 64 and 22 rows."""
    rng = np.random.default_rng(15)
    params = AttentionParams.init(4, 3, 5, seed=16)
    inputs = {"geo": rng.normal(size=(150, 4)), "vis": rng.random((2048, 3)),
              "w_q": params.w_q, "w_k": params.w_k, "w_v": params.w_v}
    assert len(list(_row_chunks(150, 8 * 2048))) == 3
    block = inputs[name] + rng.normal(scale=0.05, size=(3, *inputs[name].shape))
    out = _attention_forward(**{**inputs, name: block})
    assert out.shape == (3, 150, 4)
    for b in range(3):
        one = {**inputs, name: block[b]}
        want = cross_attention(one["geo"], one["vis"], AttentionParams(one["w_q"], one["w_k"], one["w_v"]))
        assert np.array_equal(out[b], want)


def test_attention_memory_stays_below_one_score_matrix():
    """1024 x 4096 scores are 32 MB of float64; the streamed call peaks far below that."""
    rng = np.random.default_rng(13)
    geo = rng.normal(size=(1024, 16))
    visual = rng.random((4096, 3))
    params = AttentionParams.init(16, 3, 16, seed=14)
    tracemalloc.start()
    try:
        cross_attention(geo, visual, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 * 4096 / 4


def test_attention_rejects_zero_visual_tokens():
    """A softmax over no keys is undefined."""
    params = AttentionParams.init(4, 3, 4, seed=0)
    with pytest.raises(InvalidInputError):
        cross_attention(np.ones((5, 4)), np.zeros((0, 3)), params)


def test_attention_shape_validation():
    geo = np.zeros((2, 3))
    visual = np.zeros((2, 2))
    params = AttentionParams.init(3, 2, 4, seed=0)
    bad = AttentionParams(params.w_q, params.w_k, np.zeros((2, 5)))
    with pytest.raises(InvalidInputError):
        cross_attention(geo, visual, bad)


def _probe_cam(side=32):
    return front_camera((side, side), 3.0, 0.85)


def test_probe_hard_all_zero_fd():
    cloud = gen_sphere(24, 7)
    rep = grad_flow_probe(cloud, _probe_cam(), SplatConfig(), "hard", seed=0)
    assert rep.mode == "hard"
    assert rep.analytic is None
    stable = ~rep.unstable
    assert stable.all()
    assert rep.summary["stable_zero_fd_fraction"] == 1.0
    assert not rep.fd[stable].any()


def test_probe_soft_analytic_matches_fd():
    cloud = gen_sphere(24, 7)
    rep = grad_flow_probe(cloud, _probe_cam(), SplatConfig(), "soft", seed=0)
    assert rep.analytic is not None
    assert rep.summary["median_grad_norm"] > 0.0
    assert rep.summary["max_err_ratio"] <= 1.0
    # every point sits within 3 sigma of some masked pixel, so no dead rows
    norms = np.linalg.norm(rep.analytic, axis=1)
    assert (norms > 0).all()


def test_probe_sigma_collapse_toward_dirac():
    """Near-Dirac kernels push gradient magnitudes toward zero."""
    cloud = gen_sphere(32, 9)
    cam = front_camera((48, 48), 3.0, 0.85)
    wide = grad_flow_probe(cloud, cam, SplatConfig(), "soft", seed=1)
    narrow = grad_flow_probe(cloud, cam, SplatConfig(sigma=0.05, radius=4), "soft", seed=1)
    assert narrow.summary["median_grad_norm"] < 0.01 * wide.summary["median_grad_norm"]


def test_probe_reports_culled_points():
    # camera close to the origin so one in-range point falls behind it
    cam = CameraModel((10.0, 10.0), (8.0, 8.0), np.eye(3),
                      np.array([0.0, 0.0, 0.5]), (16, 16))
    pts = np.array([[0.1, 0.0, 0.2], [-0.1, 0.1, 0.4], [0.0, 0.0, -0.9]])
    rep = grad_flow_probe(PointCloud(pts), cam, SplatConfig(), "soft", seed=0)
    assert rep.summary["n_culled"] == 3
    assert not rep.fd[2].any()


def test_probe_all_culled_rejected():
    cloud = PointCloud(np.array([[0.0, 0.0, -9.0]]))
    with pytest.raises(InvalidInputError):
        grad_flow_probe(cloud, _probe_cam(), SplatConfig(), "hard", seed=0)


def test_probe_deterministic():
    cloud = gen_sphere(16, 5)
    a = grad_flow_probe(cloud, _probe_cam(), SplatConfig(), "soft", seed=3)
    b = grad_flow_probe(cloud, _probe_cam(), SplatConfig(), "soft", seed=3)
    assert np.array_equal(a.fd, b.fd)
    assert a.to_dict() == b.to_dict()


def test_probe_report_serializes():
    cloud = gen_sphere(8, 1)
    rep = grad_flow_probe(cloud, _probe_cam(16), SplatConfig(), "hard", seed=2)
    d = rep.to_dict()
    assert d["mode"] == "hard"
    assert "summary" in d and "provenance" in d
    assert d["provenance"]["seed"] == 2


def resplat_probe(cloud, cam, cfg, mode, seed):
    """grad_flow_probe by full re-splats: one splat_forward or z-buffer scatter per stepped cloud.

    A hard coordinate is unstable when a step culls its point, moves its
    floor(u) cell, or changes whether the point wins its bin, which is decided
    here by brute force over the bin's members.
    """
    feats = ccm_features(cloud)
    pts = cloud.points
    n = len(pts)
    h, w = cam.resolution
    mask = np.random.default_rng(seed).random((h, w, feats.shape[1]))
    _, z0, valid0 = project_points(cam, pts)
    steps = PROBE_STEP_PX * np.where(valid0, z0, 1.0) / (0.5 * (cam.focal[0] + cam.focal[1]))

    def loss_of(p):
        if mode == "hard":
            data, _ = _scatter_min_depth(p, feats, cam)
        else:
            data = splat_forward(PointCloud(p), feats, cam, cfg)[0].data
        return float((data * mask).sum() / mask.size)

    def cells(p, i):
        u, z, valid = project_points(cam, p)
        if not valid[i]:
            return None
        if mode == "soft":
            lo = np.maximum(np.ceil(u[i] - cfg.radius - 0.5), 0.0)
            hi = np.minimum(np.floor(u[i] + cfg.radius - 0.5), [w - 1, h - 1])
            return tuple(lo) + tuple(hi)
        on = valid & (u[:, 0] >= 0) & (u[:, 0] < w) & (u[:, 1] >= 0) & (u[:, 1] < h)
        same = [k for k in np.flatnonzero(on) if (np.floor(u[k]) == np.floor(u[i])).all()]
        return tuple(np.floor(u[i])) + (bool(on[i]) and min(same, key=lambda k: (z[k], k)) == i,)

    fd = np.zeros((n, 3))
    unstable = np.zeros((n, 3), dtype=bool)
    for i in np.flatnonzero(valid0):
        for axis in range(3):
            plus, minus = pts.copy(), pts.copy()
            plus[i, axis] += steps[i]
            minus[i, axis] -= steps[i]
            fd[i, axis] = (loss_of(plus) - loss_of(minus)) / (2.0 * steps[i])
            base = cells(pts, i)
            unstable[i, axis] = cells(plus, i) != base or cells(minus, i) != base

    stable = ~unstable & valid0[:, None]
    summary = {"n_coords": 3 * n, "n_stable": int(stable.sum()),
               "n_unstable": int((unstable & valid0[:, None]).sum()), "n_culled": int((~valid0).sum() * 3)}
    analytic = None
    if mode == "hard":
        summary["stable_zero_fd_fraction"] = float((fd[stable] == 0.0).mean()) if stable.any() else 1.0
        summary["max_abs_fd_stable"] = float(np.abs(fd[stable]).max()) if stable.any() else 0.0
    else:
        _, aux = splat_forward(cloud, feats, cam, cfg)
        analytic = splat_backward(aux, cloud, feats, mask / mask.size).d_points
        norms = np.linalg.norm(analytic, axis=1)
        summary["median_grad_norm"] = float(np.median(norms))
        summary["max_grad_norm"] = float(norms.max())
        ratio = np.abs(analytic[stable] - fd[stable]) / (1e-9 + 1e-5 * np.abs(fd[stable]))
        summary["max_err_ratio"] = float(ratio.max()) if stable.any() else 0.0
    return loss_of(pts), fd, analytic, unstable, summary


@PROPERTY
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 12), h=st.integers(1, 16), w=st.integers(1, 16),
       sigma=st.floats(0.3, 3.0), radius=st.integers(1, 6), depth_weighting=st.booleans(),
       culled=st.floats(0.0, 0.4), twins=st.integers(0, 3), px=st.integers(-2, 34), py=st.integers(-2, 34),
       near=st.booleans())
def test_probe_matches_resplat_oracle_bitwise(seed, n, h, w, sigma, radius, depth_weighting, culled, twins,
                                              px, py, near):
    """The locally patched probe equals the full re-splat probe bit for bit, in both modes.

    Points spill off the grid and its windows clip, and some are culled. The
    principal point sits on a pixel corner or centre from -0.5 to the far side
    + 0.5, and the last point projects exactly onto it, where an x or y step
    moves its bin or window. ``twins`` points sit on the last one, at its depth
    or 1e-6 behind it (less than a z step), so z steps swap z-buffer winners. ``near`` puts the first point
    so close to the camera plane that its -z step culls it.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.4, 1.4, size=(n, 3))
    pts[rng.random(n) < culled, 2] = -9.0
    front = front_camera((h, w), 3.0, 0.85)
    cam = CameraModel(front.focal, (px % (2 * w + 3) / 2 - 0.5, py % (2 * h + 3) / 2 - 0.5), front.rotation,
                      front.translation, (h, w))
    pts[-1, :2] = 0.0
    for k in rng.choice(n - 1, size=min(twins, n - 1), replace=False):
        pts[k] = pts[-1] + [0.0, 0.0, 1e-6 * rng.integers(2)]
    if near:
        pts[0] = [0.0, 0.0, CULL_DEPTH * 1.000001 - cam.translation[2]]
    cloud = PointCloud(pts, rng.random((n, 3)))
    cfg = SplatConfig(sigma=sigma, radius=radius, depth_weighting=depth_weighting)
    for mode in ("hard", "soft"):
        if not project_points(cam, pts)[2].any():
            with pytest.raises(InvalidInputError):
                grad_flow_probe(cloud, cam, cfg, mode, seed)
            continue
        got = grad_flow_probe(cloud, cam, cfg, mode, seed)
        loss, fd, analytic, unstable, summary = resplat_probe(cloud, cam, cfg, mode, seed)
        assert got.loss == loss
        assert np.array_equal(got.fd, fd)
        assert (got.analytic is None) == (analytic is None)
        assert analytic is None or np.array_equal(got.analytic, analytic)
        assert np.array_equal(got.unstable, unstable)
        assert got.summary == summary


def test_probe_flags_zbuffer_winner_swap():
    """Two points share a pixel with a depth gap below the step: a z step swaps the winner.

    The swap changes the grid, so both z coordinates must be flagged, and the
    stable ones keep an exactly zero FD.
    """
    cam = _probe_cam(16)
    near = np.array([0.1, 0.1, 0.2])
    cloud = PointCloud(np.stack([near, near + [0.0, 0.0, 5e-6]]))
    z = project_points(cam, cloud.points)[1]
    assert np.all(np.diff(z) < PROBE_STEP_PX * z / cam.focal[0])
    rep = grad_flow_probe(cloud, cam, SplatConfig(), "hard", seed=0)
    assert rep.unstable[:, 2].all() and not rep.unstable[:, :2].any()
    assert (rep.fd[:, 2] != 0.0).all()
    assert rep.summary["stable_zero_fd_fraction"] == 1.0
    assert rep.summary["max_abs_fd_stable"] == 0.0


def test_probe_patches_instead_of_resplatting(monkeypatch):
    """Soft splats the cloud once, hard scatters it at most once; projections do not grow with N."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("splat_forward", "_scatter_min_depth", "project_points"):
        fn = getattr(splatting, name)
        wrapper = counted(name, fn)
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "splatlab"]:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)

    projections = {}
    for n in (8, 32):
        for mode in ("soft", "hard"):
            calls.clear()
            grad_flow_probe(gen_sphere(n, 3), _probe_cam(), SplatConfig(), mode, seed=0)
            assert calls["splat_forward"] == (mode == "soft")
            assert calls["_scatter_min_depth"] <= 1
            projections[n, mode] = calls["project_points"]
    assert projections[8, "soft"] == projections[32, "soft"]
    assert projections[8, "hard"] == projections[32, "hard"]


def test_ablate_zero_value_projection_insensitive():
    cloud = gen_sphere(20, 0)
    params = AblationParams.init(16, 3, 16, seed=0)
    zeroed = AblationParams(
        params.mlp,
        AttentionParams(params.attention.w_q, params.attention.w_k,
                        np.zeros_like(params.attention.w_v)),
    )
    rep = counterfactual_ablate(cloud, _probe_cam(16), SplatConfig(), params=zeroed, k=4)
    assert rep.sensitivity == 0.0
    assert rep.value_path_only


def test_ablate_random_params_sensitive():
    for seed in range(5):
        cloud = gen_sphere(16, seed)
        rep = counterfactual_ablate(cloud, _probe_cam(16), SplatConfig(), seed=seed, k=4)
        assert rep.sensitivity > 0.0
        assert rep.value_path_only
        assert rep.output_norm > 0.0


def test_ablate_report_serializes():
    cloud = gen_sphere(12, 2)
    rep = counterfactual_ablate(cloud, _probe_cam(16), SplatConfig(), seed=1, k=3)
    d = rep.to_dict()
    assert set(d) >= {"sensitivity", "value_path_only", "output_norm", "delta_norm", "provenance"}
    assert d["provenance"]["k"] == 3


def test_mlp_init_deterministic():
    a = MlpParams.init(6, 32, 8, seed=9)
    b = MlpParams.init(6, 32, 8, seed=9)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.b2, b.b2)
    c = MlpParams.init(6, 32, 8, seed=10)
    assert not np.array_equal(a.w1, c.w1)
