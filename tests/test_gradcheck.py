"""Tests for the finite-difference verification harness itself."""

import numpy as np
import pytest

from splatlab import geometry
from splatlab.errors import InvalidInputError
from splatlab.geometry import PointCloud, knn
from splatlab.gradcheck import FD_STEP, SUITES, central_fd, err_ratio, run_all, run_suite


def loop_central_fd(fn, x, h=FD_STEP):
    """The per-coordinate loop central_fd replaced: two fresh copies and two scalar calls per entry."""
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


def test_central_fd_quadratic():
    """Central differences are exact for quadratics up to roundoff."""
    def f(block):
        return (block * block).sum(axis=1) + 3.0 * block.sum(axis=1)

    x = np.array([1.0, -2.0, 0.5])
    fd = central_fd(f, x, 1e-5)
    np.testing.assert_allclose(fd, 2.0 * x + 3.0, rtol=1e-9, atol=1e-9)


def test_central_fd_scalar_input():
    fd = central_fd(np.sin, np.array(0.3), 1e-6)
    assert fd.shape == ()
    np.testing.assert_allclose(fd, np.cos(0.3), rtol=1e-9, atol=0)


def test_central_fd_stacks_copies_in_order():
    """Copies come +h then -h per entry in C order, each stepping exactly one entry."""
    x = np.arange(6.0).reshape(2, 3)
    seen = []

    def f(block):
        seen.append(block.copy())
        return block.sum(axis=(1, 2))

    central_fd(f, x, 0.5)
    copies = np.concatenate(seen)
    assert copies.shape == (12, 2, 3)
    steps = (copies - x).reshape(12, 6)
    want = np.zeros((12, 6))
    want[0::2][np.arange(6), np.arange(6)] = 0.5
    want[1::2][np.arange(6), np.arange(6)] = -0.5
    assert np.array_equal(steps, want)


def test_central_fd_rejects_one_loss_per_block():
    """A scalar-loss fn (one float for the whole stack) raises instead of giving zero gradients."""
    x = np.array([1.0, -2.0, 0.5])
    with pytest.raises(InvalidInputError, match="one loss per stepped copy"):
        central_fd(lambda block: float((block * block).sum()), x)
    with pytest.raises(InvalidInputError):
        central_fd(lambda block: (block * block).sum(axis=1)[:-1], x)


def test_nan_gradient_fails_the_suite(monkeypatch):
    """A NaN analytic gradient in any instance, not only the first, fails run_suite."""
    def pairs(seed, fd):
        analytic = np.array([np.nan, 1.0]) if seed == 1 else np.ones(2)
        return [(analytic, np.ones(2))]

    monkeypatch.setitem(SUITES, "nan_second", pairs)
    result = run_suite("nan_second", 3)
    assert result["max_err_ratio"] == np.inf
    assert result["passed"] is False
    assert err_ratio(np.array([1.0, np.inf]), np.ones(2)) == np.inf


@pytest.mark.parametrize("name", sorted(SUITES))
def test_batched_fd_bit_equal_to_loop_oracle(name):
    """Every FD value of 30 instances per suite is bit for bit the per-coordinate loop's.

    The loop oracle evaluates the same loss one copy at a time. EdgeConv's w2
    (256 entries, 512 copies) streams through several blocks.
    """
    calls = []  # per central_fd call, the sizes of the blocks fn saw

    def batched(fn, x):
        sizes = []
        calls.append(sizes)

        def counted(block):
            sizes.append(len(block))
            return fn(block)
        return central_fd(counted, x)

    def oracle(fn, x):
        return loop_central_fd(lambda copy: fn(copy[None])[0], x)

    for seed in range(30):
        got, want = SUITES[name](seed, batched), SUITES[name](seed, oracle)
        assert len(got) == len(want)
        for (_, fd_got), (_, fd_want) in zip(got, want):
            assert fd_got.shape == fd_want.shape
            assert np.array_equal(fd_got, fd_want), (name, seed)
    if name == "edgeconv_backward":
        assert any(len(sizes) > 1 for sizes in calls)


def test_err_ratio_convention():
    # ratio 1.0 sits exactly at relative error 1e-5 (with a 1e-9 floor)
    assert err_ratio(np.array([1.0]), np.array([1.0])) == 0.0
    assert err_ratio(np.array([1.0 + 1e-4]), np.array([1.0])) > 1.0
    assert err_ratio(np.array([1.0 + 1e-6]), np.array([1.0])) < 1.0
    assert err_ratio(np.array([5e-10]), np.array([0.0])) <= 1.0


def test_run_suite_each_passes():
    for name in sorted(SUITES):
        result = run_suite(name, instances=3, seed=0)
        assert result["passed"], f"{name}: {result['max_err_ratio']}"
        assert result["instances"] == 3
        assert result["max_err_ratio"] <= 1.0


def test_small_scans_never_build_cell_grids(monkeypatch):
    """The gradcheck Chamfer pairs (8 x 7) and EdgeConv's 10-point knn stay on the brute-force scan.

    Their scans are far below one distance block; building a cell grid per
    call would cost far more than the scan itself.
    """
    def no_grid(*args):
        raise AssertionError("a small scan built a cell grid")

    monkeypatch.setattr(geometry, "_cell_search", no_grid)
    for name in ("chamfer", "arc_cd", "edgeconv_backward"):
        assert run_suite(name, instances=2, seed=0)["passed"]
    knn(PointCloud(np.random.default_rng(0).uniform(-1.0, 1.0, (10, 3))), 3)


def test_run_suite_deterministic():
    a = run_suite("chamfer", instances=4, seed=9)
    b = run_suite("chamfer", instances=4, seed=9)
    assert a == b


def test_run_suite_unknown_name():
    with pytest.raises(InvalidInputError):
        run_suite("nonsense", instances=1, seed=0)


def test_run_all_aggregates():
    result = run_all(instances=2, seed=1)
    assert set(result["suites"]) == set(SUITES)
    assert result["all_passed"] is True
