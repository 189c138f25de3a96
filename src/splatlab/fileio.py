"""File formats and deterministic report serialization.

Clouds travel as ASCII xyz ("x y z" plus optional three feature columns) or
an ASCII PLY subset; grids as 16-bit PGM previews or a raw float64 format
with a fixed 16-byte header; reports as canonical JSON with sorted keys and
floats at 17 significant digits, so equal inputs produce byte-equal files.
All writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InternalConsistencyError, InvalidInputError, ParseError
from .geometry import PointCloud
from .splatting import FeatureGrid

GRID_MAGIC = b"FGRD"


def _atomic_write(path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _detect_format(path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix == ".ply":
        return "ply"
    if suffix in (".xyz", ".txt"):
        return "xyz"
    raise InvalidInputError(f"cloud files end in .xyz, .txt or .ply, not {suffix!r}")


def _read_lines(path) -> list[str]:
    """The file's lines (str.splitlines); a non-ASCII byte is a ParseError at its line."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return blob.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        # the bad byte's line: the lines before it, plus the one it starts or continues
        line = len((blob[:exc.start].decode("ascii") + "x").splitlines())
        raise ParseError(path, line, f"non-ASCII byte 0x{blob[exc.start]:02x}") from None


def _parse_xyz(path, lines: list[str]) -> PointCloud:
    rows: list[list[float]] = []
    arity = None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            vals = [float(p) for p in text.split()]
            if len(vals) not in (3, 6):
                raise ValueError(f"expected 3 or 6 columns, got {len(vals)}")
            if arity is not None and len(vals) != arity:
                raise ValueError(f"column count changed from {arity} to {len(vals)}")
            if not all(np.isfinite(vals)):
                raise ValueError("non-finite value")
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        arity = len(vals)
        rows.append(vals)
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    feats = arr[:, 3:] if arr.shape[1] == 6 else None
    return PointCloud(arr[:, :3], feats)


_PLY_FLOAT = ("float", "float32", "double", "float64")
_PLY_UCHAR = ("uchar", "uint8")


def _parse_ply(path, lines: list[str]) -> PointCloud:
    ln = 0

    def expect(pred, message):
        if ln >= len(lines) or not pred(lines[ln].strip()):
            raise ParseError(path, min(ln + 1, len(lines)), message)

    expect(lambda s: s == "ply", "missing 'ply' magic")
    ln += 1
    expect(lambda s: s == "format ascii 1.0", "only 'format ascii 1.0' is supported")
    ln += 1
    n_vertex = None
    props: list[tuple[str, str]] = []
    while ln < len(lines):
        text = lines[ln].strip()
        ln += 1
        if text == "end_header":
            break
        if not text or text.startswith("comment"):
            continue
        parts = text.split()
        if parts[0] == "element":
            if parts[1:2] != ["vertex"] or n_vertex is not None:
                raise ParseError(path, ln, "only a single 'element vertex' is supported")
            try:
                n_vertex = int(parts[2])
                if n_vertex < 0:
                    raise ValueError
            except (IndexError, ValueError):
                raise ParseError(path, ln, "bad element count") from None
        elif parts[0] == "property":
            if len(parts) != 3:
                raise ParseError(path, ln, "unsupported property declaration")
            ptype, pname = parts[1], parts[2]
            if pname in ("x", "y", "z") and ptype in _PLY_FLOAT:
                props.append((ptype, pname))
            elif pname in ("red", "green", "blue") and ptype in _PLY_UCHAR:
                props.append((ptype, pname))
            else:
                raise ParseError(path, ln, f"unsupported property '{ptype} {pname}'")
        else:
            raise ParseError(path, ln, f"unsupported header line {text!r}")
    else:
        raise ParseError(path, len(lines), "missing end_header")
    if n_vertex is None:
        raise ParseError(path, ln, "missing 'element vertex'")
    names = [p[1] for p in props]
    if not all(axis in names for axis in ("x", "y", "z")):
        raise ParseError(path, ln, "vertex element must declare x, y and z")
    has_rgb = all(chan in names for chan in ("red", "green", "blue"))
    if len(names) not in (3, 6) or (len(names) == 6 and not has_rgb):
        raise ParseError(path, ln, "vertex properties must be xyz or xyz + rgb")

    rows = []
    data_lines = lines[ln:]
    if len(data_lines) < n_vertex:
        raise ParseError(path, len(lines), f"expected {n_vertex} vertex rows")
    extra = [t for t in data_lines[n_vertex:] if t.strip()]
    if extra:
        raise ParseError(path, ln + n_vertex + 1, "trailing content after vertex rows")
    for offset, line in enumerate(data_lines[:n_vertex]):
        lineno = ln + offset + 1
        parts = line.split()
        try:
            if len(parts) != len(props):
                raise ValueError(f"expected {len(props)} values, got {len(parts)}")
            rec = {}
            for (ptype, pname), raw in zip(props, parts):
                if ptype in _PLY_FLOAT:
                    val = float(raw)
                    if not np.isfinite(val):
                        raise ValueError("non-finite value")
                else:
                    val = int(raw)
                    if not 0 <= val <= 255:
                        raise ValueError("uchar out of range")
                rec[pname] = val
            rows.append(rec)
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
    if not rows:
        raise InvalidInputError(f"{path}: no vertices")
    pts = np.array([[r["x"], r["y"], r["z"]] for r in rows], dtype=np.float64)
    feats = None
    if has_rgb:
        feats = np.array([[r["red"], r["green"], r["blue"]] for r in rows], dtype=np.float64) / 255.0
    return PointCloud(pts, feats)


def _reject_missing(path, exc: OSError) -> None:
    # A path the caller named but cannot be read is an input problem, not an
    # I/O failure of ours; keep exit-code semantics separate.
    if isinstance(exc, (FileNotFoundError, IsADirectoryError)):
        raise InvalidInputError(f"{path}: {exc.strerror or exc}") from None
    raise exc


def load_cloud(path) -> PointCloud:
    """Read an xyz or PLY cloud, as its suffix says; parse failures carry the path and line number."""
    kind = _detect_format(path)
    try:
        lines = _read_lines(path)
    except OSError as exc:
        _reject_missing(path, exc)
    return (_parse_xyz if kind == "xyz" else _parse_ply)(path, lines)


def save_cloud(cloud: PointCloud, path) -> None:
    """Write xyz or PLY, as the suffix says; floats at 17 significant digits round-trip exactly."""
    kind = _detect_format(path)
    has_rgb = cloud.features is not None
    if has_rgb and cloud.features.shape[1] != 3:
        raise InvalidInputError("xyz and PLY files carry exactly three feature columns")
    if kind == "xyz":
        cols = np.hstack([cloud.points, cloud.features]) if has_rgb else cloud.points
        body = "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in cols)
        _atomic_write(path, body.encode("ascii"))
        return
    header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}",
              "property float x", "property float y", "property float z"]
    if has_rgb:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header.append("end_header")
    out = ["\n".join(header)]
    for i, p in enumerate(cloud.points):
        row = " ".join(format(v, ".17g") for v in p)
        if has_rgb:
            rgb = np.rint(np.clip(cloud.features[i], 0.0, 1.0) * 255.0).astype(int)
            row += " " + " ".join(str(v) for v in rgb)
        out.append(row)
    _atomic_write(path, ("\n".join(out) + "\n").encode("ascii"))


def _channel_paths(path, channels: int) -> list[Path]:
    path = Path(path)
    if channels == 1:
        return [path]
    return [path.with_name(f"{path.stem}_c{ch}{path.suffix}") for ch in range(channels)]


def save_grid(grid: FeatureGrid, path, fmt: str = "raw") -> list[str]:
    """Write a grid to disk; returns the list of files written.

    raw: 16-byte header (magic 'FGRD', then height/width/channels as
    little-endian uint32) followed by row-major little-endian float64.
    pgm: 16-bit big-endian P5, one file per channel for multi-channel grids,
    values mapped linearly from (0, 1) for ccm grids, from the data's
    min/max otherwise, to 0..65535 with clipping.
    """
    if fmt == "raw":
        header = struct.pack("<4sIII", GRID_MAGIC, grid.height, grid.width, grid.channels)
        payload = np.ascontiguousarray(grid.data, dtype="<f8").tobytes()
        _atomic_write(path, header + payload)
        return [str(path)]
    if fmt != "pgm":
        raise InvalidInputError("fmt must be 'raw' or 'pgm'")
    if grid.semantics == "ccm":
        lo, hi = 0.0, 1.0
    else:
        lo, hi = float(grid.data.min()), float(grid.data.max())
    span = hi - lo
    written = []
    for ch, target in enumerate(_channel_paths(path, grid.channels)):
        plane = grid.data[:, :, ch]
        if span > 0:
            scaled = np.clip((plane - lo) / span, 0.0, 1.0) * 65535.0
        else:
            scaled = np.zeros_like(plane)
        samples = np.rint(scaled).astype(">u2")
        header = f"P5\n{grid.width} {grid.height}\n65535\n".encode("ascii")
        _atomic_write(target, header + samples.tobytes())
        written.append(str(target))
    return written


def _emit(obj, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        keys = sorted(obj)
        if not all(isinstance(k, str) for k in keys):
            raise InternalConsistencyError("report keys must be strings")
        out.append("{\n")
        for i, key in enumerate(keys):
            out.append(pad + "  " + json.dumps(key) + ": ")
            _emit(obj[key], out, indent + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(pad + "  ")
            _emit(item, out, indent + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        val = float(obj)
        if not np.isfinite(val):
            raise InternalConsistencyError("reports must not contain non-finite numbers")
        out.append(format(val, ".17g"))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise InternalConsistencyError(f"unserializable report value of type {type(obj)!r}")


def dumps_report(report) -> str:
    """Canonical JSON text: sorted keys, 17-significant-digit floats.

    17 significant digits round-trip float64 exactly; identical report
    content therefore yields identical bytes.
    """
    obj = report.to_dict() if hasattr(report, "to_dict") else report
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def save_report(report, path) -> None:
    """Serialize a report (dict or dataclass with to_dict) plus tool version."""
    obj = report.to_dict() if hasattr(report, "to_dict") else dict(report)
    obj = dict(obj)
    obj.setdefault("tool_version", __version__)
    _atomic_write(path, dumps_report(obj).encode("ascii"))


def load_report(path) -> dict:
    """Parse a JSON file; a missing file, a non-ASCII byte or malformed JSON is invalid input."""
    try:
        with open(path, "r", encoding="ascii") as f:
            return json.load(f)
    except OSError as exc:
        _reject_missing(path, exc)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"{path}: not valid ASCII JSON ({exc})") from None
