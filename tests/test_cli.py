"""CLI tests driven through in-process main() calls."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from splatlab import cli
from splatlab.fileio import load_cloud, load_report, save_cloud
from splatlab.geometry import PointCloud, front_camera, gen_sphere
from splatlab.infotheory import COVERAGE_TAU, ENTROPY_BINS, VALUE_RANGE
from splatlab.splatting import (
    SplatConfig,
    hard_hit_count,
    rasterize_hard,
    splat_forward,
    support_measure,
)


@pytest.fixture
def cloud_path(tmp_path):
    save_cloud(gen_sphere(32, seed=7), tmp_path / "cloud.xyz")
    return str(tmp_path / "cloud.xyz")


def test_no_subcommand_prints_help(capsys):
    assert cli.main([]) == 2
    assert "usage: splatlab" in capsys.readouterr().out


def test_gen_synth_sphere(tmp_path):
    out = str(tmp_path / "s.xyz")
    assert cli.main(["gen-synth", "--kind", "sphere", "--n", "16", "--out", out]) == 0
    assert len(load_cloud(out)) == 16


def test_gen_synth_lidar_rays(tmp_path):
    out = str(tmp_path / "l.xyz")
    rc = cli.main(["gen-synth", "--kind", "lidar", "--n", "64", "--rays", "4",
                   "--seed", "3", "--out", out])
    assert rc == 0
    assert len(load_cloud(out)) == 64


def test_default_sigma_echoed(cloud_path, tmp_path):
    report = str(tmp_path / "r.json")
    rc = cli.main(["splat", "--input", cloud_path, "--out", str(tmp_path / "g.raw"),
                   "--report", report])
    assert rc == 0
    cfg = load_report(report)["config"]
    assert cfg["splat"]["sigma"] == pytest.approx(4.0 / 3.0)
    assert cfg["splat"]["radius"] == 4
    # every echoed default comes from the library, not from a CLI-side copy
    assert cfg["splat"] == asdict(SplatConfig())
    assert cfg["analysis"] == {"bins": ENTROPY_BINS, "tau": COVERAGE_TAU,
                               "range_lo": VALUE_RANGE[0], "range_hi": VALUE_RANGE[1]}
    assert cfg["camera"] == front_camera().to_dict()


def test_config_file_overrides_default(cloud_path, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"splat": {"sigma": 2.5}, "camera": {"height": 32}}))
    report = str(tmp_path / "r.json")
    rc = cli.main(["splat", "--input", cloud_path, "--config", str(cfg_path),
                   "--out", str(tmp_path / "g.raw"), "--report", report])
    assert rc == 0
    cfg = load_report(report)["config"]
    assert cfg["splat"]["sigma"] == 2.5
    assert cfg["camera"]["resolution"] == [32, 128]


def test_flag_overrides_config_file(cloud_path, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"splat": {"sigma": 2.5}}))
    report = str(tmp_path / "r.json")
    rc = cli.main(["splat", "--input", cloud_path, "--config", str(cfg_path),
                   "--sigma", "0.75", "--out", str(tmp_path / "g.raw"),
                   "--report", report])
    assert rc == 0
    assert load_report(report)["config"]["splat"]["sigma"] == 0.75


def test_unknown_config_key_rejected(cloud_path, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for body in (
        {"splat": {"sgma": 1.0}},
        # known keys whose values have the wrong type or shape
        {"camera": {"height": "abc"}},
        {"splat": {"sigma": "1"}},
        {"camera": {"distance": None}},
        {"camera": {"focal": [1]}},
    ):
        cfg_path.write_text(json.dumps(body))
        rc = cli.main(["splat", "--input", cloud_path, "--config", str(cfg_path),
                       "--out", str(tmp_path / "g.raw")])
        assert rc == 2, body
        assert "error:" in capsys.readouterr().err, body


def test_unknown_config_section_rejected(cloud_path, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"splatting": {}}))
    rc = cli.main(["splat", "--input", cloud_path, "--config", str(cfg_path),
                   "--out", str(tmp_path / "g.raw")])
    assert rc == 2


def test_malformed_config_json(cloud_path, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    rc = cli.main(["splat", "--input", cloud_path, "--config", str(cfg_path),
                   "--out", str(tmp_path / "g.raw")])
    assert rc == 2


def test_missing_input_exits_2(tmp_path, capsys):
    rc = cli.main(["project", "--input", str(tmp_path / "nope.xyz"),
                   "--out", str(tmp_path / "g.raw")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_exits_2(cloud_path, tmp_path):
    rc = cli.main(["splat", "--input", cloud_path,
                   "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "g.raw")])
    assert rc == 2


def test_unwritable_output_exits_4(cloud_path, tmp_path):
    # a path whose parent is a regular file cannot be created
    (tmp_path / "blocker").write_text("")
    rc = cli.main(["project", "--input", cloud_path,
                   "--out", str(tmp_path / "blocker" / "g.raw")])
    assert rc == 4


def test_gradcheck_ok(tmp_path):
    out = str(tmp_path / "gc.json")
    rc = cli.main(["gradcheck", "--instances", "2", "--seed", "1", "--out", out])
    assert rc == 0
    report = load_report(out)
    assert report["all_passed"] is True
    assert len(report["suites"]) == 5


def test_gradcheck_failure_exits_3(monkeypatch, capsys):
    def fake_run_all(instances, seed):
        return {"all_passed": False, "suites": {}}

    monkeypatch.setattr(cli, "run_all", fake_run_all)
    assert cli.main(["gradcheck", "--instances", "1"]) == 3
    assert "error:" in capsys.readouterr().err


def test_loss_chamfer_value(tmp_path, capsys):
    a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
    a.write_text("0 0 0\n")
    b.write_text("1 0 0\n")
    out = str(tmp_path / "loss.json")
    rc = cli.main(["loss", "--metric", "chamfer", "--a", str(a), "--b", str(b),
                   "--out", out])
    assert rc == 0
    assert load_report(out)["value"] == 2.0
    assert "chamfer: 2" in capsys.readouterr().out


def test_loss_single_metric_rejects_multiple_refs(tmp_path):
    a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
    a.write_text("0 0 0\n")
    b.write_text("1 0 0\n")
    rc = cli.main(["loss", "--metric", "chamfer", "--a", str(a),
                   "--b", str(b), str(b)])
    assert rc == 2


def test_loss_mmd_reports_best_ref(tmp_path):
    a = tmp_path / "a.xyz"
    b0 = tmp_path / "b0.xyz"
    b1 = tmp_path / "b1.xyz"
    a.write_text("0 0 0\n")
    b0.write_text("5 0 0\n")
    b1.write_text("0.5 0 0\n")
    out = str(tmp_path / "mmd.json")
    rc = cli.main(["loss", "--metric", "mmd", "--a", str(a),
                   "--b", str(b0), str(b1), "--out", out])
    assert rc == 0
    report = load_report(out)
    assert report["ref_index"] == 1
    assert report["value"] == pytest.approx(0.5)


def test_normalize_kitti_roundtrip(tmp_path):
    src = tmp_path / "a.xyz"
    src.write_text("1 2 3\n1 2 4\n")
    out = str(tmp_path / "n.xyz")
    rc = cli.main(["normalize-kitti", "--input", str(src),
                   "--bbox", "1", "2", "3.5", "2", "2", "1", "0",
                   "--out", out])
    assert rc == 0
    got = load_cloud(out).points
    assert got.shape == (2, 3)
    # box-frame z lands in the second output column after the axis permutation
    np.testing.assert_allclose(got[:, 1], [-0.25, 0.25], atol=1e-12)
    np.testing.assert_allclose(got[:, [0, 2]], 0.0, atol=1e-12)


def test_probe_smoke(cloud_path, tmp_path):
    out = str(tmp_path / "probe.json")
    rc = cli.main(["probe", "--input", cloud_path, "--mode", "soft",
                   "--grid", "32", "32", "--out", out])
    assert rc == 0
    report = load_report(out)
    assert report["mode"] == "soft"
    assert report["summary"]["median_grad_norm"] > 0


def test_ablate_smoke(cloud_path, tmp_path):
    out = str(tmp_path / "ab.json")
    rc = cli.main(["ablate", "--input", cloud_path, "--k", "4",
                   "--geo-dim", "8", "--proj-dim", "8",
                   "--grid", "32", "32", "--out", out])
    assert rc == 0
    report = load_report(out)
    assert report["sensitivity"] > 0
    assert report["value_path_only"] is True


def test_ablate_report_independent_of_blas_threads(tmp_path):
    """The ablate report is byte-identical under one and two OpenBLAS threads.

    A norm taken through BLAS (np.linalg.norm) splits its sum across threads,
    which changes its last bits. 626 points, a 626 x 16 fused output, is the
    smallest seed-42 lidar cloud where that showed; 625 gave equal bytes. A
    1-core machine runs both subprocesses single-threaded, so it cannot show
    the defect; the test still runs there.
    """
    cloud = str(tmp_path / "lidar.xyz")
    assert cli.main(["gen-synth", "--kind", "lidar", "--n", "626", "--seed", "42", "--out", cloud]) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"ablate{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", "import sys; from splatlab.cli import main; sys.exit(main(sys.argv[1:]))",
                        "ablate", "--input", cloud, "--grid", "32", "32", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_splat_report_double_run_identical(cloud_path, tmp_path):
    argsets = []
    for tag in ("1", "2"):
        argsets.append([
            "splat", "--input", cloud_path,
            "--out", str(tmp_path / f"g{tag}.raw"),
            "--pgm", str(tmp_path / f"g{tag}.pgm"),
            "--report", str(tmp_path / f"r{tag}.json"),
        ])
    for argv in argsets:
        assert cli.main(argv) == 0
    assert (tmp_path / "g1.raw").read_bytes() == (tmp_path / "g2.raw").read_bytes()
    for ch in range(3):
        assert (tmp_path / f"g1_c{ch}.pgm").read_bytes() == \
            (tmp_path / f"g2_c{ch}.pgm").read_bytes()
    # reports embed their own output-independent payload, so bytes match too
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_sequential_flag_matches_parallel(cloud_path, tmp_path):
    out_p = str(tmp_path / "par.raw")
    out_s = str(tmp_path / "seq.raw")
    assert cli.main(["splat", "--input", cloud_path, "--out", out_p]) == 0
    assert cli.main(["splat", "--input", cloud_path, "--out", out_s,
                     "--sequential"]) == 0
    with open(out_p, "rb") as f1, open(out_s, "rb") as f2:
        assert f1.read() == f2.read()


def test_analyze_emits_panels_and_claims(cloud_path, tmp_path):
    prefix = str(tmp_path / "an")
    rc = cli.main(["analyze", "--input", cloud_path, "--out-prefix", prefix,
                   "--grid", "48", "48"])
    assert rc == 0
    for suffix in ("_hard.raw", "_soft.raw", "_hard_weights.raw", "_soft_weights.raw",
                   "_pair_c0.pgm", "_pair_c1.pgm", "_pair_c2.pgm", "_report.json"):
        assert (tmp_path / ("an" + suffix)).exists(), suffix
    report = load_report(prefix + "_report.json")
    claims = report["claims"]
    assert set(claims) == {"soft_coverage_ge_2x_hard", "soft_cmit_gt_hard"}
    assert all(isinstance(v, bool) for v in claims.values())


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["gen-synth", "--kind", "sphere", "--n", "8", "--out", "{tmp}/s.xyz"],
    ["gradcheck", "--instances", "1"],
    ["probe", "--input", "{cloud}", "--mode", "hard", "--out", "{tmp}/p.json"],
    ["ablate", "--input", "{cloud}", "--out", "{tmp}/a.json"],
])
def test_negative_seed_is_usage_error(argv, cloud_path, tmp_path, capsys):
    argv = [a.format(tmp=tmp_path, cloud=cloud_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--geo-dim", "0"), ("--geo-dim", "-2"), ("--proj-dim", "0")])
def test_ablate_layer_width_below_one_is_invalid_input(flag, value, cloud_path, tmp_path, capsys):
    assert cli.main(["ablate", "--input", cloud_path, "--out", str(tmp_path / "a.json"), flag, value]) == 2
    err = capsys.readouterr().err
    assert "layer widths must be >= 1" in err
    assert "Traceback" not in err


def test_no_normalize_flag_respected(tmp_path):
    # far-away points are only representable without normalization if the
    # camera is moved; with normalization the default camera sees them
    src = tmp_path / "far.xyz"
    pts = gen_sphere(16, seed=1).points * 40.0
    save_cloud(PointCloud(pts), src)
    report = str(tmp_path / "r.json")
    rc = cli.main(["project", "--input", str(src), "--out", str(tmp_path / "g.raw"),
                   "--report", report])
    assert rc == 0
    assert load_report(report)["empty"] is False


def test_nonfinite_projection_is_culled(tmp_path):
    # x = 1e307 at depth 0.5 projects to u = inf; it must be culled, not cast or overflowed
    pts = np.array([[1e307, 0.0, -2.5], [0.1, 0.2, 0.0], [-0.3, 0.1, 0.2]])
    feats = np.full((3, 3), 0.5)
    cloud = PointCloud(pts, feats)
    cam = front_camera((16, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid, aux = splat_forward(cloud, None, cam, SplatConfig(), semantics="ccm")
        assert aux.valid.tolist() == [False, True, True]
        assert not grid.empty
        assert support_measure(cloud, cam, SplatConfig(), "soft") > 0
        assert not rasterize_hard(cloud, cam, mode="depth").empty
        assert hard_hit_count(cloud, cam).data.sum() == 2.0
        src = tmp_path / "far.xyz"
        save_cloud(cloud, src)
        rc = cli.main(["splat", "--input", str(src), "--no-normalize", "--grid", "16", "16",
                       "--out", str(tmp_path / "g.raw")])
    assert rc == 0
