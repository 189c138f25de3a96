"""Reconstruction losses on point sets: Chamfer variants, the arccosh-compressed
Chamfer, its staged sum, and the retrieval-style set metrics.

All nearest-neighbor searches are exact, with ties broken toward the lower
index. They run on geometry's nearest-neighbor engine: a scan larger than one
distance block sorts the searched cloud into cells and takes each query's
candidates from the 3x3x3 block of cells around it, keeping the answer only
when it is certified closer than anything outside the block; every other row,
and every small scan, is a brute-force scan. Distances carry the brute-force
scan's bits either way. Gradients, where offered, are the true analytic
derivatives through the argmin correspondences, which are locally constant
away from ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import _as_points, _finite_array, _nearest

ARC_GRAD_CAP = 1e6


@dataclass
class LossValue:
    """Scalar loss with optional gradient payloads.

    ``d_X`` is the (N, 3) gradient with respect to the first cloud;
    ``grad_clamped`` marks an arc-compression chain factor cut at its cap;
    ``d_stages`` is per-stage gradients, populated only by total_loss.
    """

    value: float
    d_X: np.ndarray | None = None
    grad_clamped: bool = False
    d_stages: list[np.ndarray] | None = None


def _nn_sq(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a: (squared distance to, index of) the nearest row of b, lowest index on ties."""
    d, idx = _nearest(a, b, 1)
    return d.reshape(-1), idx.reshape(-1)


def chamfer(x, y, with_grad: bool = False) -> LossValue:
    """Squared-L2 Chamfer distance: mean of both directed nearest-neighbor means."""
    xp, yp = _as_points(x), _as_points(y)
    d_xy, idx_xy = _nn_sq(xp, yp)
    d_yx, idx_yx = _nn_sq(yp, xp)
    value = float(d_xy.mean() + d_yx.mean())
    grad = None
    if with_grad:
        grad = 2.0 * (xp - yp[idx_xy]) / xp.shape[0]
        np.add.at(grad, idx_yx, 2.0 * (xp[idx_yx] - yp) / yp.shape[0])
    return LossValue(value, grad)


def chamfer_l1(x, y) -> LossValue:
    """Unsquared (L1-style) Chamfer: half the sum of both directed mean nearest distances."""
    xp, yp = _as_points(x), _as_points(y)
    d_xy, _ = _nn_sq(xp, yp)
    d_yx, _ = _nn_sq(yp, xp)
    value = float(np.sqrt(d_xy).mean() + np.sqrt(d_yx).mean())
    value *= 0.5
    return LossValue(value)


def arc_cd(x, y, lam: float, with_grad: bool = False) -> LossValue:
    """Arc-compressed Chamfer: lam * arccosh(1 + chamfer(x, y)).

    The chain factor 1/sqrt(c^2 + 2c) blows up as c -> 0; it is clamped at
    ARC_GRAD_CAP and the result flagged when that happens.
    """
    lam = float(_finite_array(lam, (), "lam must be finite and nonnegative"))
    if lam < 0:
        raise InvalidInputError("lam must be finite and nonnegative")
    base = chamfer(x, y, with_grad=with_grad)
    c = base.value
    value = lam * float(np.arccosh(1.0 + c))
    grad = None
    clamped = False
    if with_grad:
        denom_sq = c * c + 2.0 * c
        factor = 1.0 / math.sqrt(denom_sq) if denom_sq > 0 else math.inf
        if factor > ARC_GRAD_CAP:
            factor = ARC_GRAD_CAP
            clamped = True
        grad = lam * factor * base.d_X
    return LossValue(value, grad, grad_clamped=clamped)


def total_loss(stages, gt, lambdas, with_grad: bool = False) -> LossValue:
    """Sum of arc-compressed Chamfer terms, one per decoder stage output.

    ``stages`` and ``lambdas`` must have equal length >= 1. With gradients
    requested, d_stages holds one (N_k, 3) array per stage.
    """
    stages = list(stages)
    lambdas = _finite_array(lambdas, (len(stages),), "lambdas must be one finite number per stage").tolist()
    if len(stages) < 1:
        raise InvalidInputError("stages must hold at least one cloud")
    value = 0.0
    grads: list[np.ndarray] = []
    clamped = False
    for stage, lam in zip(stages, lambdas):
        term = arc_cd(stage, gt, lam, with_grad=with_grad)
        value += term.value
        if with_grad:
            grads.append(term.d_X)
            clamped = clamped or term.grad_clamped
    return LossValue(value, None, grad_clamped=clamped, d_stages=grads if with_grad else None)


def fscore(x, y, tau: float) -> float:
    """F-score at threshold tau: harmonic mean of precision and recall.

    Precision counts x-points within tau of y; recall counts y-points within
    tau of x; distances compare with <= tau. Returns 0 when both are 0.
    """
    if not _finite_array(tau, (), "tau must be finite and positive") > 0:
        raise InvalidInputError("tau must be finite and positive")
    xp, yp = _as_points(x), _as_points(y)
    d_xy, _ = _nn_sq(xp, yp)
    d_yx, _ = _nn_sq(yp, xp)
    precision = float((np.sqrt(d_xy) <= tau).mean())
    recall = float((np.sqrt(d_yx) <= tau).mean())
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def fidelity(p_in, p_out) -> float:
    """One-sided mean unsquared distance from each input point to the output."""
    ip, op = _as_points(p_in), _as_points(p_out)
    d, _ = _nn_sq(ip, op)
    return float(np.sqrt(d).mean())


def mmd(p_out, refs) -> tuple[float, int]:
    """Minimum Chamfer distance from p_out to any reference cloud.

    Returns (value, index of the minimizing reference); ties break toward the
    lower index.
    """
    refs = list(refs)
    if len(refs) < 1:
        raise InvalidInputError("refs must contain at least one cloud")
    values = np.array([chamfer(p_out, r).value for r in refs])
    best = int(np.argmin(values))
    return float(values[best]), best
