"""Malformed arrays, numbers, counts and seeds raise InvalidInputError at every public input site.

Each site is one call with one argument left open and a valid value for it.
Every array or real site is fed ragged, string, NaN, inf, wrong-ndim and
empty stand-ins for that value; every count or seed site is fed a fraction, a
string, None, inf, NaN, a huge integer and a value below its floor. None may
escape as a raw ValueError, TypeError or OverflowError, and none may pass
silently.
"""

import numpy as np
import pytest

from splatlab.errors import InvalidInputError
from splatlab.geometry import (BBox3D, NeighborGraph, PointCloud, front_camera, gen_lidar, gen_sphere, knn,
                               normalize_unit)
from splatlab.gradcheck import run_all, run_suite
from splatlab.infotheory import channel_entropy, coverage
from splatlab.losses import arc_cd, chamfer, chamfer_l1, fidelity, fscore, mmd, total_loss
from splatlab.nnprims import (AttentionParams, MlpParams, counterfactual_ablate, cross_attention, edgeconv_backward,
                              edgeconv_forward, grad_flow_probe)
from splatlab.splatting import FeatureGrid, SplatConfig, soft_density, splat_backward, splat_forward

CLOUD = normalize_unit(gen_sphere(6, seed=0))
PTS = CLOUD.points
CAM = front_camera((8, 8))
CFG = SplatConfig()
FEATS = np.full((6, 2), 0.5)
_, AUX = splat_forward(CLOUD, FEATS, CAM, CFG)
_, CACHE = edgeconv_forward(CLOUD, knn(CLOUD, 3), MlpParams.init(6, 8, 4, seed=0))
PARAMS = AttentionParams.init(4, 3, 4, seed=0)
GEO, VIS = np.ones((5, 4)), np.ones((6, 3))
WEIGHTS = FeatureGrid(np.ones((2, 2, 1)), semantics="weightsum")

# site -> (call taking the open argument, a valid value for it)
SITES = {
    "PointCloud.points": (lambda v: PointCloud(v), PTS),
    "chamfer.x": (lambda v: chamfer(v, PTS), PTS),
    "PointCloud.features": (lambda v: PointCloud(PTS, v), FEATS),
    "PointCloud.with_points": (lambda v: CLOUD.with_points(v), PTS),
    "NeighborGraph.indices": (lambda v: NeighborGraph(1, v), [[0], [1]]),
    "splat_forward.feats": (lambda v: splat_forward(CLOUD, v, CAM, CFG), FEATS),
    "BBox3D.center": (lambda v: BBox3D(v, [1.0, 1.0, 1.0], 0.0), [0.0, 0.0, 0.0]),
    "BBox3D.dims": (lambda v: BBox3D([0.0, 0.0, 0.0], v, 0.0), [1.0, 1.0, 1.0]),
    "BBox3D.yaw": (lambda v: BBox3D([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], v), 0.5),
    "FeatureGrid.data": (lambda v: FeatureGrid(v), np.ones((2, 2, 1))),
    "splat_backward.upstream": (lambda v: splat_backward(AUX, CLOUD, FEATS, v), np.ones((8, 8, 2))),
    "edgeconv_backward.upstream": (lambda v: edgeconv_backward(CACHE, v), np.ones((6, 4))),
    "cross_attention.f_geo": (lambda v: cross_attention(v, VIS, PARAMS), GEO),
    "cross_attention.visual": (lambda v: cross_attention(GEO, v, PARAMS), VIS),
    "cross_attention.upstream": (lambda v: cross_attention(GEO, VIS, PARAMS, upstream=v), GEO),
    "soft_density.q": (lambda v: soft_density(CLOUD, CAM, CFG, v), [4.0, 4.0]),
    "SplatConfig.sigma": (lambda v: SplatConfig(sigma=v), 1.5),
    "SplatConfig.radius": (lambda v: SplatConfig(radius=v), 4),
    "SplatConfig.eps_norm": (lambda v: SplatConfig(eps_norm=v), 1e-8),
    "SplatConfig.eps_depth": (lambda v: SplatConfig(eps_depth=v), 1e-6),
    "arc_cd.lam": (lambda v: arc_cd(PTS, PTS + 1.0, v), 1.0),
    "total_loss.lambdas": (lambda v: total_loss([PTS, PTS], PTS + 1.0, v), [1.0, 1.0]),
    "fscore.tau": (lambda v: fscore(PTS, PTS, v), 0.1),
    "coverage.tau": (lambda v: coverage(WEIGHTS, v), 1e-6),
    "front_camera.distance": (lambda v: front_camera((8, 8), distance=v), 3.0),
    "front_camera.fill": (lambda v: front_camera((8, 8), fill=v), 0.85),
    "channel_entropy.value_range": (lambda v: channel_entropy(WEIGHTS, value_range=v), [0.0, 1.0]),
}


def _malformed(good):
    """Ragged, string, NaN, inf, wrong-ndim and empty stand-ins for ``good``."""
    good = np.asarray(good, dtype=np.float64)
    nan, inf = good.copy(), good.copy()
    nan.flat[0] = np.nan
    inf.flat[-1] = np.inf
    return {
        "ragged": [[0.0, 1.0], [2.0]],
        "string": "abc",
        "nan": nan,
        "inf": inf,
        # a vector may come in any layout, so a vector's wrong ndim is a scalar
        "wrong_ndim": good[0] if good.ndim else [good, good],
        # no entries along the last axis: (N, 0) features, a (5, 0) token matrix, []
        "empty": np.zeros(good.shape[:-1] + (0,)) if good.ndim else [],
    }


CASES = [(site, kind, value) for site, (_, good) in SITES.items() for kind, value in _malformed(good).items()]
CASES += [
    ("cross_attention.f_geo", "zero_rows", np.zeros((0, 4))),
    ("cross_attention.visual", "zero_rows", np.zeros((0, 3))),
    ("SplatConfig.radius", "huge_int", 10**400),
    ("PointCloud.points", "objects", [[None, 0.0, 0.0]]),
    ("NeighborGraph.indices", "fraction", [[0], [1.5]]),
]


@pytest.mark.parametrize("site", sorted(SITES))
def test_valid_value_passes(site):
    call, good = SITES[site]
    call(good)


@pytest.mark.parametrize("site, kind, value", CASES, ids=[f"{s}-{k}" for s, k, _ in CASES])
def test_malformed_value_is_invalid_input(site, kind, value):
    with pytest.raises(InvalidInputError):
        SITES[site][0](value)


# count or seed site -> (call taking the open argument, a valid value, the least valid value)
COUNT_SITES = {
    "knn.k": (lambda v: knn(CLOUD, v), 3, 1),
    "gen_sphere.n": (lambda v: gen_sphere(v, 0), 4, 1),
    "gen_sphere.seed": (lambda v: gen_sphere(4, v), 0, 0),
    "gen_lidar.n": (lambda v: gen_lidar(v, 1, 0), 4, 1),
    "gen_lidar.rays": (lambda v: gen_lidar(4, v, 0), 2, 1),
    "gen_lidar.seed": (lambda v: gen_lidar(4, 2, v), 0, 0),
    "front_camera.resolution": (lambda v: front_camera((v, 8)), 8, 1),
    "SplatConfig.radius": (lambda v: SplatConfig(radius=v), 4, 1),
    "channel_entropy.bins": (lambda v: channel_entropy(WEIGHTS, bins=v), 16, 2),
    "run_suite.instances": (lambda v: run_suite("chamfer", v), 1, 1),
    "run_suite.seed": (lambda v: run_suite("chamfer", 1, seed=v), 0, 0),
    "run_all.seed": (lambda v: run_all(1, seed=v), 0, 0),
    "MlpParams.init.hidden": (lambda v: MlpParams.init(6, v, 4, 0), 8, 1),
    "MlpParams.init.seed": (lambda v: MlpParams.init(6, 8, 4, v), 0, 0),
    "AttentionParams.init.proj_dim": (lambda v: AttentionParams.init(4, 3, v, 0), 4, 1),
    "AttentionParams.init.seed": (lambda v: AttentionParams.init(4, 3, 4, v), 0, 0),
    "grad_flow_probe.seed": (lambda v: grad_flow_probe(CLOUD, CAM, CFG, "hard", v), 0, 0),
    "counterfactual_ablate.seed": (lambda v: counterfactual_ablate(CLOUD, CAM, CFG, seed=v), 0, 0),
    "counterfactual_ablate.k": (lambda v: counterfactual_ablate(CLOUD, CAM, CFG, k=v), 3, 1),
}

COUNT_CASES = [(site, kind, value) for site, (_, _, floor) in COUNT_SITES.items() for kind, value in
               {"fraction": 1.5, "string": "2", "none": None, "inf": np.inf, "nan": np.nan, "huge": 10**400,
                "below_floor": floor - 1}.items()]


@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_integral_count_passes(site):
    call, good, _ = COUNT_SITES[site]
    call(good)
    call(float(good))
    call(np.int64(good))


@pytest.mark.parametrize("site, kind, value", COUNT_CASES, ids=[f"{s}-{k}" for s, k, _ in COUNT_CASES])
def test_malformed_count_is_invalid_input(site, kind, value):
    with pytest.raises(InvalidInputError):
        COUNT_SITES[site][0](value)


def test_depth_weighting_must_be_a_bool():
    for bad in ("off", 1, None):
        with pytest.raises(InvalidInputError):
            SplatConfig(depth_weighting=bad)
    grid, _ = splat_forward(CLOUD, FEATS, CAM, SplatConfig(depth_weighting=np.bool_(False)))
    assert np.array_equal(grid.data, splat_forward(CLOUD, FEATS, CAM, SplatConfig(depth_weighting=False))[0].data)


# every coordinate is finite, but the squared distance from the first point to the last overflows
FAR_X = np.array([[1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]])
FAR_Y = np.array([[0.0, 0.0, 0.0], [1e308, 1e308, 0.0]])
FAR_CALLS = {
    "knn": lambda: knn(PointCloud(np.concatenate([FAR_X, FAR_Y])), 2),
    "chamfer": lambda: chamfer(FAR_X, FAR_Y),
    "chamfer_l1": lambda: chamfer_l1(FAR_X, FAR_Y),
    "fscore": lambda: fscore(FAR_X, FAR_Y, 0.1),
    "fidelity": lambda: fidelity(FAR_X, FAR_Y),
    "mmd": lambda: mmd(FAR_X, [FAR_Y]),
}


@pytest.mark.parametrize("name", sorted(FAR_CALLS))
def test_overflowing_squared_distance_is_invalid_input(name):
    """Raised before any distance is formed: no overflow warning, no inf distance, no inf cast to a cell index."""
    with pytest.raises(InvalidInputError):
        FAR_CALLS[name]()


def test_overflowing_span_of_moderate_coordinates_is_invalid_input():
    """Coordinates of 1e154 are far from float64's limit, but their squared span, 4e308, is past it."""
    near = np.array([[1e154, 0.0, 0.0], [-1e154, 0.0, 0.0]])
    with pytest.raises(InvalidInputError):
        chamfer(near, near)


def test_largest_safe_box_still_searches():
    """A box whose squared diagonal is finite passes the overflow check, also past the cell-grid crossover."""
    far = np.array([[6e153, 0.0, 0.0], [-6e153, 0.0, 0.0]])
    assert chamfer(far, far).value == 0.0
    big = normalize_unit(gen_lidar(600, 4, 0)).points * 1e153
    diff = big[:, None, :] - big[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    assert np.array_equal(knn(PointCloud(big), 3).indices, np.argsort(d2, axis=1, kind="stable")[:, :3])
