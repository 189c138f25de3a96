"""Command-line interface.

Subcommands: gen-synth, project, splat, analyze, gradcheck, probe, ablate,
loss, normalize-kitti. Settings resolve as CLI flags over config-file values
over built-in defaults, and every report echoes the effective configuration.
Exit codes: 0 success, 2 invalid input, 3 internal consistency failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .errors import InternalConsistencyError, InvalidInputError
from .fileio import load_cloud, save_cloud, save_grid, save_report
from .geometry import (FRONT_DISTANCE, FRONT_FILL, FRONT_RESOLUTION, BBox3D, CameraModel, front_camera,
                       gen_lidar, gen_sphere, normalize_kitti, normalize_unit)
from .gradcheck import run_all
from .infotheory import COVERAGE_TAU, ENTROPY_BINS, VALUE_RANGE, compare_strategies
from .losses import arc_cd, chamfer, chamfer_l1, fidelity, fscore, mmd
from .nnprims import counterfactual_ablate, grad_flow_probe
from .splatting import FeatureGrid, SplatConfig, rasterize_hard, splat_forward

DEFAULTS = {
    # focal, principal, rotation and translation of None mean "as front_camera derives them"
    "camera": {
        "height": FRONT_RESOLUTION[0],
        "width": FRONT_RESOLUTION[1],
        "distance": FRONT_DISTANCE,
        "fill": FRONT_FILL,
        "focal": None,
        "principal": None,
        "rotation": None,
        "translation": None,
    },
    "splat": asdict(SplatConfig()),
    "analysis": {
        "bins": ENTROPY_BINS,
        "tau": COVERAGE_TAU,
        "range_lo": VALUE_RANGE[0],
        "range_hi": VALUE_RANGE[1],
    },
}

# config-file value types accepted per type of the default: JSON integers may set float keys and
# a list may replace a derived (None) camera value; every other value must match its default's type
_ACCEPTED_TYPES = {float: (int, float), type(None): (type(None), list)}

# CLI flag -> (section, key, ...); a flag with several values fills several keys
_FLAG_KEYS = {
    "grid": ("camera", "height", "width"),
    "distance": ("camera", "distance"),
    "fill": ("camera", "fill"),
    "focal": ("camera", "focal"),
    "principal": ("camera", "principal"),
    "translation": ("camera", "translation"),
    "sigma": ("splat", "sigma"),
    "radius": ("splat", "radius"),
    "eps_norm": ("splat", "eps_norm"),
    "eps_depth": ("splat", "eps_depth"),
    "depth_weighting": ("splat", "depth_weighting"),
    "bins": ("analysis", "bins"),
    "tau": ("analysis", "tau"),
    "value_range": ("analysis", "range_lo", "range_hi"),
}


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: not valid JSON ({exc})") from None
    except (FileNotFoundError, IsADirectoryError) as exc:
        raise InvalidInputError(f"{path}: {exc.strerror or exc}") from None
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{path}: config root must be an object")
    for section, values in raw.items():
        if section not in DEFAULTS:
            raise InvalidInputError(f"{path}: unknown config section {section!r}")
        if not isinstance(values, dict):
            raise InvalidInputError(f"{path}: section {section!r} must be an object")
        for key, value in values.items():
            if key not in DEFAULTS[section]:
                raise InvalidInputError(f"{path}: unknown key {section}.{key}")
            default = DEFAULTS[section][key]
            if type(value) not in _ACCEPTED_TYPES.get(type(default), (type(default),)):
                raise InvalidInputError(
                    f"{path}: {section}.{key} cannot be {type(value).__name__} (default: {json.dumps(default)})")
    return raw


def _effective_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if getattr(args, "config", None):
        for section, values in _load_config_file(args.config).items():
            cfg[section].update(values)
    for flag, (section, *keys) in _FLAG_KEYS.items():
        val = getattr(args, flag, None)
        if val is None:
            continue
        if flag == "depth_weighting":
            val = val == "on"
        cfg[section].update(zip(keys, val if len(keys) > 1 else [val]))
    return cfg


def _build_camera(cfg: dict) -> CameraModel:
    cam = cfg["camera"]
    base = front_camera((cam["height"], cam["width"]), cam["distance"], cam["fill"])
    derived = ("focal", "principal", "rotation", "translation")
    return replace(base, **{key: cam[key] for key in derived if cam[key] is not None})


def _setup(args, splats: bool = True):
    """Effective config, camera, SplatConfig (None unless ``splats``) and the input cloud."""
    cfg = _effective_config(args)
    cam = _build_camera(cfg)
    scfg = SplatConfig(**cfg["splat"]) if splats else None
    cloud = load_cloud(args.input)
    if not args.no_normalize:
        cloud = normalize_unit(cloud)
    return cfg, cam, scfg, cloud


def _stamp(payload: dict, args, cfg: dict, cam: CameraModel) -> dict:
    """The report payload plus the command, its input and the effective configuration."""
    return dict(payload, command=args.cmd, input=args.input, config=dict(cfg, camera=cam.to_dict()))


def _cmd_gen_synth(args) -> int:
    if args.kind == "sphere":
        cloud = gen_sphere(args.n, args.seed)
    else:
        cloud = gen_lidar(args.n, args.rays, args.seed)
    save_cloud(cloud, args.out)
    print(f"wrote {args.out} ({len(cloud)} points)")
    return 0


def _cmd_project(args) -> int:
    cfg, cam, _, cloud = _setup(args, splats=False)
    grid = rasterize_hard(cloud, cam, mode=args.mode)
    written = save_grid(grid, args.out, fmt="raw")
    if args.pgm:
        written += save_grid(grid, args.pgm, fmt="pgm")
    if args.report:
        report = {
            "mode": args.mode,
            "empty": grid.empty,
            "value_min": float(grid.data.min()),
            "value_max": float(grid.data.max()),
        }
        save_report(_stamp(report, args, cfg, cam), args.report)
        written.append(args.report)
    print("wrote " + " ".join(written))
    return 0


def _cmd_splat(args) -> int:
    cfg, cam, scfg, cloud = _setup(args)
    grid, aux = splat_forward(cloud, None, cam, scfg, semantics="ccm", sequential=args.sequential)
    written = save_grid(grid, args.out, fmt="raw")
    if args.weights:
        written += save_grid(aux.weight_grid(), args.weights, fmt="raw")
    if args.pgm:
        written += save_grid(grid, args.pgm, fmt="pgm")
    if args.report:
        report = {
            "empty": grid.empty,
            "sequential": bool(args.sequential),
            "weight_total": float(aux.weight_sum.sum()),
        }
        save_report(_stamp(report, args, cfg, cam), args.report)
        written.append(args.report)
    print("wrote " + " ".join(written))
    return 0


def _cmd_analyze(args) -> int:
    cfg, cam, scfg, cloud = _setup(args)
    ana = cfg["analysis"]
    comp = compare_strategies(
        cloud,
        cam,
        scfg,
        bins=ana["bins"],
        value_range=(ana["range_lo"], ana["range_hi"]),
        tau=ana["tau"],
    )
    prefix = args.out_prefix
    written = []
    written += save_grid(comp.hard_grid, f"{prefix}_hard.raw", fmt="raw")
    written += save_grid(comp.soft_grid, f"{prefix}_soft.raw", fmt="raw")
    written += save_grid(comp.hard_weights, f"{prefix}_hard_weights.raw", fmt="raw")
    written += save_grid(comp.soft_weights, f"{prefix}_soft_weights.raw", fmt="raw")
    written += save_grid(comp.hard_grid, f"{prefix}_hard.pgm", fmt="pgm")
    written += save_grid(comp.soft_grid, f"{prefix}_soft.pgm", fmt="pgm")
    divider = np.zeros((comp.hard_grid.height, 2), dtype=np.float64)
    for ch in range(comp.hard_grid.channels):
        pair = np.hstack([comp.hard_grid.data[:, :, ch], divider, comp.soft_grid.data[:, :, ch]])
        written += save_grid(
            FeatureGrid(pair[:, :, None], semantics="ccm"),
            f"{prefix}_pair_c{ch}.pgm",
            fmt="pgm",
        )
    report = {
        "hard": comp.hard.to_dict(),
        "soft": comp.soft.to_dict(),
        "coverage_ratio": comp.coverage_ratio,
        "cmit_ratio": comp.cmit_ratio,
        "claims": {
            "soft_coverage_ge_2x_hard": bool(
                comp.coverage_ratio is not None and comp.coverage_ratio >= 2.0
            ),
            "soft_cmit_gt_hard": bool(comp.soft.cmit > comp.hard.cmit),
        },
    }
    report_path = f"{prefix}_report.json"
    save_report(_stamp(report, args, cfg, cam), report_path)
    written.append(report_path)
    print("wrote " + " ".join(written))
    return 0


def _cmd_gradcheck(args) -> int:
    result = run_all(args.instances, args.seed)
    result["config"] = {"instances": args.instances, "seed": args.seed}
    if args.out:
        save_report(result, args.out)
        print(f"wrote {args.out}")
    for name, suite in result["suites"].items():
        print(f"{name}: max_err_ratio={suite['max_err_ratio']:.3g} "
              f"{'ok' if suite['passed'] else 'FAILED'}")
    if not result["all_passed"]:
        raise InternalConsistencyError("analytic gradients disagree with finite differences")
    return 0


def _cmd_probe(args) -> int:
    cfg, cam, scfg, cloud = _setup(args)
    report = grad_flow_probe(cloud, cam, scfg, args.mode, args.seed)
    save_report(_stamp(report.to_dict(), args, cfg, cam), args.out)
    print(f"wrote {args.out}")
    for key, val in sorted(report.summary.items()):
        print(f"{key}: {val}")
    return 0


def _cmd_ablate(args) -> int:
    cfg, cam, scfg, cloud = _setup(args)
    report = counterfactual_ablate(
        cloud, cam, scfg, seed=args.seed, k=args.k,
        geo_dim=args.geo_dim, proj_dim=args.proj_dim,
    )
    save_report(_stamp(report.to_dict(), args, cfg, cam), args.out)
    print(f"wrote {args.out}")
    print(f"sensitivity: {report.sensitivity:.6g}")
    print(f"value_path_only: {report.value_path_only}")
    return 0


def _cmd_loss(args) -> int:
    a = load_cloud(args.a)
    payload: dict = {"command": "loss", "metric": args.metric, "a": args.a, "b": list(args.b)}
    clouds_b = [load_cloud(p) for p in args.b]
    if args.metric != "mmd" and len(clouds_b) != 1:
        raise InvalidInputError(f"metric {args.metric} takes exactly one --b cloud")
    if args.metric == "chamfer":
        payload["value"] = chamfer(a, clouds_b[0]).value
    elif args.metric == "chamfer-l1":
        payload["value"] = chamfer_l1(a, clouds_b[0]).value
    elif args.metric == "arc":
        payload["value"] = arc_cd(a, clouds_b[0], args.lam).value
        payload["lam"] = args.lam
    elif args.metric == "fscore":
        payload["value"] = fscore(a, clouds_b[0], args.tau)
        payload["tau"] = args.tau
    elif args.metric == "fidelity":
        payload["value"] = fidelity(a, clouds_b[0])
    else:
        value, best = mmd(a, clouds_b)
        payload["value"] = value
        payload["ref_index"] = best
    if args.out:
        save_report(payload, args.out)
        print(f"wrote {args.out}")
    print(f"{args.metric}: {payload['value']:.17g}")
    return 0


def _cmd_normalize_kitti(args) -> int:
    cloud = load_cloud(args.input)
    vals = args.bbox
    bbox = BBox3D(center=np.array(vals[:3]), dims=np.array(vals[3:6]), yaw=vals[6])
    out = normalize_kitti(cloud, bbox)
    save_cloud(out, args.out)
    print(f"wrote {args.out} ({len(out)} points)")
    return 0


def _add_camera_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", nargs=2, type=int, metavar=("H", "W"), help="grid resolution")
    p.add_argument("--distance", type=float, help="front-camera distance from the origin")
    p.add_argument("--fill", type=float, help="fraction of the half-extent the unit ball fills")
    p.add_argument("--focal", nargs=2, type=float, metavar=("FX", "FY"))
    p.add_argument("--principal", nargs=2, type=float, metavar=("CX", "CY"))
    p.add_argument("--translation", nargs=3, type=float, metavar=("TX", "TY", "TZ"))


def _add_splat_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", type=float, help="Gaussian kernel width in pixels")
    p.add_argument("--radius", type=int, help="truncation window radius in pixels")
    p.add_argument("--eps-norm", dest="eps_norm", type=float)
    p.add_argument("--eps-depth", dest="eps_depth", type=float)
    p.add_argument("--depth-weighting", dest="depth_weighting", choices=("on", "off"))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (sections: camera, splat, analysis)")
    p.add_argument("--no-normalize", dest="no_normalize", action="store_true",
                   help="skip unit-sphere normalization of the input cloud")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="splatlab")
    parser.add_argument("--version", action="version", version=f"splatlab {__version__}")
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("gen-synth", help="generate a synthetic cloud")
    p.add_argument("--kind", choices=("sphere", "lidar"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rays", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("project", help="hard-rasterize a cloud")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("depth", "ccm"), default="depth")
    p.add_argument("--out", required=True, help="raw grid output path")
    p.add_argument("--pgm", help="also write PGM previews to this path")
    p.add_argument("--report", help="also write a JSON report")
    _add_common(p)
    _add_camera_flags(p)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("splat", help="soft-splat a cloud's CCM features")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="raw grid output path")
    p.add_argument("--weights", help="also write the weight-sum grid (raw)")
    p.add_argument("--pgm", help="also write PGM previews to this path")
    p.add_argument("--report", help="also write a JSON report")
    p.add_argument("--sequential", action="store_true", help="use the sequential reference path")
    _add_common(p)
    _add_camera_flags(p)
    _add_splat_flags(p)
    p.set_defaults(func=_cmd_splat)

    p = sub.add_parser("analyze", help="compare hard vs. soft projection")
    p.add_argument("--input", required=True)
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.add_argument("--bins", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--value-range", dest="value_range", nargs=2, type=float, metavar=("LO", "HI"))
    _add_common(p)
    _add_camera_flags(p)
    _add_splat_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--instances", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("probe", help="gradient-flow probe (hard or soft)")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("hard", "soft"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_common(p)
    _add_camera_flags(p)
    _add_splat_flags(p)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("ablate", help="counterfactual visual-token ablation")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--geo-dim", dest="geo_dim", type=int, default=16)
    p.add_argument("--proj-dim", dest="proj_dim", type=int, default=16)
    p.add_argument("--out", required=True)
    _add_common(p)
    _add_camera_flags(p)
    _add_splat_flags(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("loss", help="set-to-set losses between clouds")
    p.add_argument("--metric", choices=("chamfer", "chamfer-l1", "arc", "fscore", "fidelity", "mmd"),
                   required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", nargs="+", required=True)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.01)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("normalize-kitti", help="canonicalize a cloud against its 3D box")
    p.add_argument("--input", required=True)
    p.add_argument("--bbox", nargs=7, type=float, required=True,
                   metavar=("CX", "CY", "CZ", "DX", "DY", "DZ", "YAW"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_normalize_kitti)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return int(args.func(args))
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
