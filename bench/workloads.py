"""The four seeded workloads: inputs, the timed op, and the checks on its output.

Every workload builds its inputs from the benchmark seed only; the library
receives nothing but those generated inputs. Op k draws a fresh jitter from
the stream (seed, k), so runs with the same seed repeat op for op. Clouds are
``normalize_unit(gen_lidar(n, 8, seed))`` seen by ``front_camera``.

A workload object exposes

* ``make_input(k)``: op k's inputs, built outside the timed region;
* ``run(inp)``: the timed op, public API calls only;
* ``record(inp, out, first)``: checks the op's exactness contract right after
  it, outside the timed region, and returns a small record of fixed size so
  that peak memory does not grow with the number of ops:

  - ``problems``: the failed checks;
  - ``exact``: digests that must repeat bit for bit on equal inputs;
  - ``counts``: exact counts computed from inputs and outputs outside the
    program;
  - ``summary``: the values compared against ``golden.json`` (``exact`` bit
    for bit, ``close`` within ``CLOSE``);
  - with ``first`` set, whatever ``check_first`` needs;

* ``check_first(rec)``: the costly check of the first timed op, run after
  peak memory has been read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import splatlab as sl
import splatlab.cli

RAYS = 8
JITTER = 0.002
REF_SAMPLE = 256
SUITE_NAMES = ("splat_backward", "edgeconv_backward", "cross_attention", "chamfer", "arc_cd")
# gradients against recorded values: the rtol/atol of the gradcheck suites
GRAD_TOL = (1e-5, 1e-9)

SIZES = {
    "full": {
        "train": {"n": 16384, "grid": 128},
        "analyze": {"n": 2048, "grid": 128},
        "fd_verify": {"n": 64, "grid": 32, "instances": 2},
        "eval": {"n": 2048, "grid": 128, "stages": (512, 1024, 2048)},
    },
    "tiny": {
        "train": {"n": 256, "grid": 32},
        "analyze": {"n": 256, "grid": 32},
        "fd_verify": {"n": 8, "grid": 16, "instances": 1},
        "eval": {"n": 128, "grid": 16, "stages": (32, 64, 128)},
    },
}


def lidar(n: int, seed: int) -> sl.PointCloud:
    return sl.normalize_unit(sl.gen_lidar(n, RAYS, seed))


def jittered(base: sl.PointCloud, seed: int, k: int) -> sl.PointCloud:
    rng = np.random.default_rng([seed, k, 1])
    return sl.normalize_unit(sl.PointCloud(base.points + rng.normal(0.0, JITTER, base.points.shape)))


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()


def _project(cloud, cam):
    """Pinhole projection written out here, independent of geometry.project_points."""
    pc = cloud.points @ cam.rotation.T + cam.translation
    z = pc[:, 2]
    visible = z > sl.geometry.CULL_DEPTH
    safe_z = np.where(visible, z, 1.0)
    u = np.stack([cam.focal[0] * pc[:, 0] / safe_z + cam.principal[0],
                  cam.focal[1] * pc[:, 1] / safe_z + cam.principal[1]], axis=1)
    return u[visible], z[visible], visible


def input_counts(cloud, cam, cfg) -> dict:
    """Visible and culled points, and (point, pixel) pairs inside the clipped windows."""
    u, _, visible = _project(cloud, cam)
    h, w = cam.resolution
    r = cfg.radius
    lo = np.maximum(np.ceil(u - r - 0.5), 0)
    hi = np.minimum(np.floor(u + r - 0.5), [w - 1, h - 1])
    extent = np.clip(hi - lo + 1, 0, None)
    return {
        "geometry.visible_points": int(visible.sum()),
        "geometry.culled_points": int((~visible).sum()),
        "splatting.contributions": int((extent[:, 0] * extent[:, 1]).sum()),
    }


def aux_nbytes(aux) -> int:
    """nbytes of the arrays a SplatAux holds."""
    return int(sum(v.nbytes for v in vars(aux).values() if isinstance(v, np.ndarray)))


def splat_counts(cloud, cam, cfg) -> dict:
    """input_counts plus the SplatAux size of one soft splat of the cloud."""
    _, aux = sl.splat_forward(cloud, None, cam, cfg)
    return {**input_counts(cloud, cam, cfg), "splatting.aux_bytes": aux_nbytes(aux)}


def reference_density(cloud, cam, cfg):
    """Untruncated Gaussian mixture via its separable form (field, u, alpha)."""
    u, z, _ = _project(cloud, cam)
    alpha = 1.0 / (z + cfg.eps_depth) if cfg.depth_weighting else np.ones(len(z))
    h, w = cam.resolution
    k = 1.0 / (2.0 * cfg.sigma * cfg.sigma)
    gy = np.exp(-((np.arange(h) + 0.5)[None, :] - u[:, 1:2]) ** 2 * k)
    gx = np.exp(-((np.arange(w) + 0.5)[None, :] - u[:, 0:1]) ** 2 * k)
    return (gy * alpha[:, None]).T @ gx, u, alpha


def reference_support(cloud, cam, cfg) -> tuple[int, int]:
    """(hard, soft) support in pixels by brute force over pixel centers."""
    u, _, _ = _project(cloud, cam)
    h, w = cam.resolution
    cols = np.floor(u[:, 0]).astype(np.int64)
    rows = np.floor(u[:, 1]).astype(np.int64)
    inside = (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
    mask = np.zeros((h, w), dtype=bool)
    mask[rows[inside], cols[inside]] = True
    hard = int(mask.sum())
    reach2 = (3.0 * cfg.sigma) ** 2
    xs, ys = np.arange(w) + 0.5, np.arange(h) + 0.5
    for start in range(0, len(u), 16):  # small chunks keep the temporaries below the op's own
        dx = xs[None, :] - u[start:start + 16, 0:1]
        dy = ys[None, :] - u[start:start + 16, 1:2]
        mask |= (dy[:, :, None] ** 2 + dx[:, None, :] ** 2 <= reach2).any(axis=0)
    return hard, int(mask.sum())


def _close(a, b, rtol, atol) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def _finite(**arrays) -> list[str]:
    return [f"{name} is not finite" for name, a in arrays.items()
            if not np.all(np.isfinite(np.asarray(a, dtype=np.float64)))]


class Workload:
    CLOSE: dict[str, tuple[float, float]] = {}

    def __init__(self, size: dict, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        self.cfg = sl.SplatConfig()
        self.cam = sl.front_camera((size["grid"], size["grid"]))

    def make_input(self, k: int) -> dict:
        raise NotImplementedError

    def run(self, inp: dict):
        raise NotImplementedError

    def record(self, inp: dict, out, first: bool) -> dict:
        raise NotImplementedError

    def check_first(self, rec: dict) -> list[str]:
        return []

    def compare(self, got: dict, want: dict) -> list[str]:
        """Problems between an op's summary and the recorded reference."""
        problems = [f"{k}: {got['exact'].get(k)!r} != recorded {v!r}"
                    for k, v in want["exact"].items() if got["exact"].get(k) != v]
        for k, v in want["close"].items():
            rtol, atol = self.CLOSE[k]
            if k not in got["close"] or not _close(got["close"][k], v, rtol, atol):
                problems.append(f"{k} differs from the recorded value beyond rtol={rtol} atol={atol}")
        if set(got["exact"]) != set(want["exact"]) or set(got["close"]) != set(want["close"]):
            problems.append("summary keys differ from the recorded reference")
        return problems


class Train(Workload):
    CLOSE = {"d_sigma": GRAD_TOL, "d_points_sample": GRAD_TOL, "d_features_sample": GRAD_TOL}

    def __init__(self, size, seed, workdir):
        super().__init__(size, seed, workdir)
        self.base = lidar(size["n"], seed)
        g = size["grid"]
        self.target = np.random.default_rng([seed, 2]).uniform(0.0, 1.0, (g, g, 3))
        self.sample = np.sort(np.random.default_rng(0).choice(size["n"], min(REF_SAMPLE, size["n"]),
                                                              replace=False))

    def make_input(self, k):
        return {"cloud": jittered(self.base, self.seed, k)}

    def run(self, inp):
        cloud = inp["cloud"]
        grid, aux = sl.splat_forward(cloud, None, self.cam, self.cfg, semantics="ccm")
        upstream = 2.0 * (grid.data - self.target)  # dL/dV of L = |V - target|^2
        grads = sl.splat_backward(aux, cloud, None, upstream, with_sigma=True)
        return grid, aux, grads

    def record(self, inp, out, first):
        grid, aux, g = out
        problems = _finite(grid=grid.data, weight_sum=aux.weight_sum, d_points=g.d_points,
                           d_features=g.d_features, d_sigma=g.d_sigma)
        if aux.weight_sum.min() < 0.0:
            problems.append("negative weight sum")
        exact = {"grid": digest(grid.data), "weight_sum": digest(aux.weight_sum)}
        rec = {
            "problems": problems,
            "exact": {**exact, "d_points": digest(g.d_points), "d_features": digest(g.d_features),
                      "d_sigma": g.d_sigma},
            "counts": {**input_counts(inp["cloud"], self.cam, self.cfg), "splatting.aux_bytes": aux_nbytes(aux)},
            "summary": {"exact": exact,
                        "close": {"d_sigma": [g.d_sigma],
                                  "d_points_sample": g.d_points[self.sample].tolist(),
                                  "d_features_sample": g.d_features[self.sample].tolist()}},
        }
        if first:
            rec["first"] = (inp["cloud"], grid.data, aux.weight_sum)
        return rec

    def check_first(self, rec):
        cloud, grid, weight_sum = rec["first"]
        seq, seq_aux = sl.splat_forward(cloud, None, self.cam, self.cfg, semantics="ccm", sequential=True)
        problems = []
        if not np.array_equal(seq.data, grid):
            problems.append("grid differs from splat_forward(sequential=True)")
        if not np.array_equal(seq_aux.weight_sum, weight_sum):
            problems.append("weight_sum differs from splat_forward(sequential=True)")
        return problems


class Analyze(Workload):
    # density and PMI against a separable reference, at the scale of the tier-1
    # tolerances (test_soft_density_peak_at_projection, test_pmi_log_ratio_against_own_density)
    DENSITY_RTOL = 1e-9
    PMI_ATOL = 1e-9
    CLOSE = {"density": (1e-12, 0.0), "pmi_sum": (1e-12, 0.0), "pmi_sample": (0.0, 1e-12)}

    def __init__(self, size, seed, workdir):
        super().__init__(size, seed, workdir)
        self.base = lidar(size["n"], seed)
        self.input_path = workdir / "in.xyz"
        sl.save_cloud(self.base, self.input_path)
        self.out_dir = workdir / "analyze"
        self.out_dir.mkdir(exist_ok=True)
        self.prefix = self.out_dir / "an"
        self.artifacts = None
        self.counts = None

    def make_input(self, k):
        for f in self.out_dir.iterdir():
            f.unlink()
        g = self.size["grid"]
        q = np.random.default_rng([self.seed, k, 2]).uniform(0.25 * g, 0.75 * g, 2)
        return {"cloud": jittered(self.base, self.seed, k), "q": q}

    def run(self, inp):
        cloud = inp["cloud"]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = splatlab.cli.main(["analyze", "--input", str(self.input_path),
                                    "--out-prefix", str(self.prefix)])
        pmi = sl.pmi_field(cloud, self.cam, self.cfg)
        hard = sl.support_measure(cloud, self.cam, self.cfg, "hard")
        soft = sl.support_measure(cloud, self.cam, self.cfg, "soft")
        density = sl.soft_density(cloud, self.cam, self.cfg, inp["q"])
        return rc, pmi.data[:, :, 0], hard, soft, density

    def record(self, inp, out, first):
        rc, pmi, hard, soft, density = out
        artifacts, written = {}, 0
        input_token = json.dumps(str(self.input_path)).encode()
        for f in sorted(self.out_dir.iterdir()):
            blob = f.read_bytes()
            written += len(blob)
            if f.suffix == ".json":
                blob = blob.replace(input_token, b'"<input>"')
            artifacts[f.name] = hashlib.sha256(blob).hexdigest()
        claims = json.loads((self.out_dir / "an_report.json").read_text())["claims"] if rc == 0 else {}
        if self.counts is None:
            self.counts = splat_counts(self.base, self.cam, self.cfg)
        problems = [] if rc == 0 else [f"cli analyze exited {rc}"]
        problems += [f"claim {k} is false" for k, v in claims.items() if not v]
        if len(claims) != 2:
            problems.append("report does not carry both claims")
        self.artifacts = self.artifacts or artifacts
        if artifacts != self.artifacts:
            problems.append("CLI artifacts differ from the first op's on the same input")
        problems += self._check_values(inp, pmi, hard, soft, density)
        idx = np.linspace(0, pmi.size - 1, 64).astype(np.int64)
        return {
            "problems": problems,
            "exact": {"artifacts": artifacts, "pmi": digest(pmi), "hard": hard, "soft": soft,
                      "density": density},
            "counts": {**self.counts, "fileio.bytes_written": written},
            "summary": {"exact": {"artifacts": artifacts, "claims": claims, "hard": hard, "soft": soft},
                        "close": {"density": [density], "pmi_sum": [float(pmi.sum())],
                                  "pmi_sample": pmi.ravel()[idx].tolist()}},
        }

    def _check_values(self, inp, pmi, hard, soft, density) -> list[str]:
        problems = []
        field, u, alpha = reference_density(inp["cloud"], self.cam, self.cfg)
        total = field.sum()
        k = 1.0 / (2.0 * self.cfg.sigma ** 2)
        want = float(np.sum(alpha * np.exp(-((u - inp["q"]) ** 2).sum(axis=1) * k)) / total)
        if not _close(density, want, self.DENSITY_RTOL, 0.0):
            problems.append(f"soft_density {density!r} vs reference {want!r}")
        dens = field / total
        ref = np.full_like(dens, sl.infotheory.PMI_FLOOR)
        nz = dens > 0.0
        ref[nz] = np.maximum(np.log(dens[nz] * dens.size), sl.infotheory.PMI_FLOOR)
        if not _close(pmi, ref, 0.0, self.PMI_ATOL):
            problems.append(f"pmi_field off by {np.abs(pmi - ref).max():.3g} from the reference")
        want_support = reference_support(inp["cloud"], self.cam, self.cfg)
        if (hard, soft) != want_support:
            problems.append(f"support {(hard, soft)} vs reference {want_support}")
        return problems


class FdVerify(Workload):
    CLOSE = {"gradcheck_ratios": (0.0, 1e-6)}

    def __init__(self, size, seed, workdir):
        super().__init__(size, seed, workdir)
        self.base = lidar(size["n"], seed)

    def make_input(self, k):
        probe_seed, gc_seed = np.random.default_rng([self.seed, k, 3]).integers(0, 2**31, 2)
        return {"cloud": jittered(self.base, self.seed, k),
                "probe_seed": int(probe_seed), "gc_seed": int(gc_seed)}

    def run(self, inp):
        cloud = inp["cloud"]
        soft = sl.grad_flow_probe(cloud, self.cam, self.cfg, "soft", inp["probe_seed"])
        hard = sl.grad_flow_probe(cloud, self.cam, self.cfg, "hard", inp["probe_seed"])
        suites = [sl.run_suite(name, self.size["instances"], inp["gc_seed"]) for name in SUITE_NAMES]
        return soft, hard, suites

    def record(self, inp, out, first):
        soft, hard, suites = out
        problems = []
        if hard.summary["stable_zero_fd_fraction"] != 1.0:
            problems.append(f"hard probe stable_zero_fd_fraction {hard.summary['stable_zero_fd_fraction']}")
        if hard.summary["max_abs_fd_stable"] != 0.0:
            problems.append(f"hard probe max_abs_fd_stable {hard.summary['max_abs_fd_stable']}")
        if not soft.summary["max_err_ratio"] <= 1.0:
            problems.append(f"soft probe max_err_ratio {soft.summary['max_err_ratio']}")
        problems += [f"gradcheck {s['name']} max_err_ratio {s['max_err_ratio']}" for s in suites if not s["passed"]]
        exact = {"soft_loss": soft.loss, "soft_fd": digest(soft.fd), "soft_analytic": digest(soft.analytic),
                 "hard_fd": digest(hard.fd), "soft_summary": soft.summary, "hard_summary": hard.summary}
        ratios = [s["max_err_ratio"] for s in suites]
        return {
            "problems": problems,
            "exact": {**exact, "ratios": ratios},
            "counts": splat_counts(inp["cloud"], self.cam, self.cfg),
            "summary": {"exact": exact, "close": {"gradcheck_ratios": ratios}},
        }


def _rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


class Eval(Workload):
    LAMBDAS = (1.0, 1.0, 1.0)
    FSCORE_TAU = 0.01
    STAGE_NOISE = 0.01
    NEAREST_REF = 1
    # attention goes through BLAS matmuls, whose blocking may change the last bits
    CLOSE = {"sensitivity": (1e-9, 0.0), "output_norm": (1e-9, 0.0)}

    def __init__(self, size, seed, workdir):
        super().__init__(size, seed, workdir)
        self.truth = lidar(size["n"], seed)
        pts = self.truth.points
        noise = np.random.default_rng([seed, 4]).normal(0.0, JITTER, pts.shape)
        # reference 1 is the truth plus small noise, so it is the mmd minimizer by construction
        self.refs = [pts * 0.9, pts + noise, pts @ _rot_y(0.2).T]

    def make_input(self, k):
        rng = np.random.default_rng([self.seed, k, 4])
        n = len(self.truth)
        stages = [self.truth.points[rng.choice(n, m, replace=False)] + rng.normal(0.0, self.STAGE_NOISE, (m, 3))
                  for m in self.size["stages"]]
        return {"cloud": jittered(self.truth, self.seed, k), "stages": stages}

    def run(self, inp):
        final = inp["stages"][-1]
        ablation = sl.counterfactual_ablate(inp["cloud"], self.cam, self.cfg)
        total = sl.total_loss(inp["stages"], self.truth, self.LAMBDAS, with_grad=True)
        chamfer_l1 = sl.chamfer_l1(final, self.truth)
        fscore = sl.fscore(final, self.truth, self.FSCORE_TAU)
        fidelity = sl.fidelity(self.truth, final)
        mmd = sl.mmd(final, self.refs)
        return ablation, total, chamfer_l1.value, fscore, fidelity, mmd

    def record(self, inp, out, first):
        ablation, total, chamfer_l1, fscore, fidelity, mmd = out
        values = {"total_loss": total.value, "chamfer_l1": chamfer_l1, "fscore": fscore,
                  "fidelity": fidelity, "mmd": mmd[0]}
        problems = _finite(sensitivity=ablation.sensitivity, **values)
        problems += _finite(**{f"d_stage{i}": g for i, g in enumerate(total.d_stages)})
        if not ablation.value_path_only:
            problems.append("ablated output differs from the geometry tokens (value_path_only false)")
        if not ablation.sensitivity > 0.0:
            problems.append(f"sensitivity {ablation.sensitivity} is not positive")
        if mmd[1] != self.NEAREST_REF:
            problems.append(f"mmd index {mmd[1]} != {self.NEAREST_REF}")
        if not 0.0 <= fscore <= 1.0:
            problems.append(f"fscore {fscore} outside [0, 1]")
        if total.grad_clamped:
            problems.append("total_loss clamped a gradient")
        exact = {**values, "mmd": list(mmd), "d_stages": [digest(g) for g in total.d_stages]}
        return {
            "problems": problems,
            "exact": {**exact, "sensitivity": ablation.sensitivity},
            "counts": splat_counts(inp["cloud"], self.cam, self.cfg),
            "summary": {"exact": exact,
                        "close": {"sensitivity": [ablation.sensitivity], "output_norm": [ablation.output_norm]}},
        }


WORKLOADS = {"train": Train, "analyze": Analyze, "fd_verify": FdVerify, "eval": Eval}
