"""Tests for splatlab.fileio: cloud formats, grid formats, and reports."""

import json
import os
import struct

import numpy as np
import pytest

from splatlab import cli
from splatlab.errors import InvalidInputError, ParseError
from splatlab.fileio import (
    dumps_report,
    load_cloud,
    load_report,
    save_cloud,
    save_grid,
    save_report,
)
from splatlab.geometry import PointCloud
from splatlab.splatting import FeatureGrid


def test_xyz_two_points(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("0 0 0\n1 0 0\n")
    cloud = load_cloud(p)
    assert len(cloud) == 2
    assert cloud.features is None
    np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 0, 0]])


def test_xyz_comments_and_blank_lines(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("# header\n\n0 0 0\n# mid\n1 2 3\n")
    assert len(load_cloud(p)) == 2


def test_xyz_parse_error_carries_line_number(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("0 0 banana\n")
    with pytest.raises(ParseError) as exc:
        load_cloud(p)
    assert exc.value.line == 1
    assert "a.xyz:1:" in str(exc.value)


def test_xyz_error_line_counts_comments(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("# one\n0 0 0\n1 1\n")
    with pytest.raises(ParseError) as exc:
        load_cloud(p)
    assert exc.value.line == 3


def test_xyz_rejects_mixed_arity(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("0 0 0\n1 1 1 0.5 0.5 0.5\n")
    with pytest.raises(ParseError):
        load_cloud(p)


def test_xyz_rejects_nonfinite(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("0 0 nan\n")
    with pytest.raises(ParseError):
        load_cloud(p)


def test_xyz_empty_file_rejected(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("# nothing here\n")
    with pytest.raises(InvalidInputError):
        load_cloud(p)


def test_missing_input_is_invalid_input(tmp_path):
    with pytest.raises(InvalidInputError):
        load_cloud(tmp_path / "nope.xyz")
    with pytest.raises(InvalidInputError):
        load_report(tmp_path / "nope.json")


def test_xyz_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.normal(size=(20, 3)), rng.random((20, 3)))
    path = tmp_path / "c.xyz"
    save_cloud(cloud, path)
    back = load_cloud(path)
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.features, cloud.features)


def test_format_inference_and_override(tmp_path):
    p = tmp_path / "cloud.txt"
    p.write_text("1 2 3\n")
    assert len(load_cloud(p)) == 1  # .txt treated as xyz
    q = tmp_path / "cloud.weird"
    q.write_text("1 2 3\n")
    with pytest.raises(InvalidInputError):
        load_cloud(q)
    with pytest.raises(InvalidInputError):
        save_cloud(PointCloud(np.zeros((1, 3))), q)


def _ply_text(n, body, props=None):
    props = props or ["property float x", "property float y", "property float z"]
    head = ["ply", "format ascii 1.0", f"element vertex {n}", *props, "end_header"]
    return "\n".join(head) + "\n" + body


def test_ply_basic(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text(_ply_text(2, "0 0 0\n1 0 0\n"))
    cloud = load_cloud(p)
    assert len(cloud) == 2
    assert cloud.features is None


def test_ply_with_rgb(tmp_path):
    props = [
        "property float x", "property float y", "property float z",
        "property uchar red", "property uchar green", "property uchar blue",
    ]
    p = tmp_path / "a.ply"
    p.write_text(_ply_text(1, "0.5 0.25 0.125 255 0 128\n", props))
    cloud = load_cloud(p)
    np.testing.assert_allclose(cloud.features, [[1.0, 0.0, 128.0 / 255.0]], atol=1e-12)


def test_ply_double_and_comment(tmp_path):
    props = ["comment made by hand", "property double x", "property double y",
             "property double z"]
    p = tmp_path / "a.ply"
    p.write_text(_ply_text(1, "0.1 0.2 0.3\n", props))
    np.testing.assert_allclose(load_cloud(p).points, [[0.1, 0.2, 0.3]], atol=0)


def test_ply_header_errors(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text("solid\n")
    with pytest.raises(ParseError):
        load_cloud(p)

    p.write_text("ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n")
    with pytest.raises(ParseError):
        load_cloud(p)

    # unsupported property type
    props = ["property int x", "property float y", "property float z"]
    p.write_text(_ply_text(1, "1 2 3\n", props))
    with pytest.raises(ParseError):
        load_cloud(p)


def test_ply_bare_element_line(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text("ply\nformat ascii 1.0\nelement\nend_header\n")
    with pytest.raises(ParseError) as exc:
        load_cloud(p)
    assert exc.value.line == 3


@pytest.mark.parametrize("name, blob, line", [
    ("a.xyz", b"0 0 1\n\xff\xfe 1 2\n", 2),
    ("a.xyz", b"# caf\xe9\n0 0 1\n", 1),
    ("a.ply", _ply_text(2, "0 0 0\n").encode("ascii") + b"1 \xe9 0\n", 9),
])
def test_non_ascii_byte_is_parse_error(tmp_path, capsys, name, blob, line):
    """Data rows and comments alike: ParseError at the byte's line, and CLI exit 2."""
    p = tmp_path / name
    p.write_bytes(blob)
    with pytest.raises(ParseError) as exc:
        load_cloud(p)
    assert exc.value.line == line
    assert cli.main(["project", "--input", str(p), "--out", str(tmp_path / "g.raw")]) == 2
    assert f"{name}:{line}: non-ASCII byte" in capsys.readouterr().err


def test_ply_wrong_row_count(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text(_ply_text(3, "0 0 0\n1 1 1\n"))
    with pytest.raises(ParseError):
        load_cloud(p)


def test_ply_trailing_garbage_rejected(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text(_ply_text(1, "0 0 0\nextra stuff\n"))
    with pytest.raises(ParseError):
        load_cloud(p)


def test_ply_negative_vertex_count_is_bad_element_count(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text(_ply_text(-1, "0 0 0\n"))
    with pytest.raises(ParseError, match="bad element count") as exc:
        load_cloud(p)
    assert exc.value.line == 3


@pytest.mark.parametrize("name", ["c.xyz", "c.ply"])
def test_save_cloud_rejects_features_without_three_columns(tmp_path, name):
    """Neither format can carry (N, 2) features, so both refuse rather than drop them."""
    cloud = PointCloud(np.zeros((2, 3)), np.full((2, 2), 0.5))
    with pytest.raises(InvalidInputError):
        save_cloud(cloud, tmp_path / name)
    assert not (tmp_path / name).exists()


def test_ply_roundtrip_quantizes_rgb(tmp_path):
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.normal(size=(10, 3)), rng.random((10, 3)))
    path = tmp_path / "c.ply"
    save_cloud(cloud, path)
    back = load_cloud(path)
    assert np.array_equal(back.points, cloud.points)
    assert np.abs(back.features - cloud.features).max() <= 0.5 / 255.0 + 1e-12


def test_raw_grid_header_and_size(tmp_path):
    grid = FeatureGrid(np.arange(6, dtype=np.float64).reshape(2, 3, 1), semantics="generic")
    path = tmp_path / "g.raw"
    save_grid(grid, path, fmt="raw")
    blob = path.read_bytes()
    assert len(blob) == 16 + 48
    magic, h, w, c = struct.unpack("<4sIII", blob[:16])
    assert magic == b"FGRD" and (h, w, c) == (2, 3, 1)


def test_raw_grid_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    grid = FeatureGrid(rng.normal(size=(5, 4, 3)), semantics="generic")
    path = tmp_path / "g.raw"
    save_grid(grid, path, fmt="raw")
    back = np.frombuffer(path.read_bytes(), "<f8", offset=16).reshape(5, 4, 3)
    assert np.array_equal(back, grid.data)


def test_pgm_header_and_endpoint_mapping(tmp_path):
    grid = FeatureGrid(np.array([[[1.0]]]), semantics="ccm")
    path = tmp_path / "g.pgm"
    written = save_grid(grid, path, fmt="pgm")
    assert written == [str(path)]
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n1 1\n65535\n")
    sample = struct.unpack(">H", blob[len(b"P5\n1 1\n65535\n"):])[0]
    assert sample == 65535


def test_pgm_multichannel_per_channel_files(tmp_path):
    grid = FeatureGrid(np.zeros((2, 2, 3)), semantics="ccm")
    written = save_grid(grid, tmp_path / "g.pgm", fmt="pgm")
    assert [os.path.basename(p) for p in written] == ["g_c0.pgm", "g_c1.pgm", "g_c2.pgm"]
    for p in written:
        assert os.path.exists(p)


def test_pgm_big_endian_samples(tmp_path):
    # value 1/65535 of the range maps to sample 1 = bytes 00 01
    grid = FeatureGrid(np.array([[[1.0 / 65535.0]]]), semantics="ccm")
    path = tmp_path / "g.pgm"
    save_grid(grid, path, fmt="pgm")
    assert path.read_bytes().endswith(b"\x00\x01")


def test_save_grid_unknown_format(tmp_path):
    grid = FeatureGrid(np.zeros((1, 1, 1)), semantics="generic")
    with pytest.raises(InvalidInputError):
        save_grid(grid, tmp_path / "g.bin", fmt="npz")


def test_report_deterministic_bytes(tmp_path):
    report = {"b": 2, "a": [1.5, {"z": True, "y": None}], "c": "text"}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_report(report, p1)
    save_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_sorted_keys_and_17g(tmp_path):
    path = tmp_path / "r.json"
    save_report({"beta": 0.1, "alpha": 1.0 / 3.0}, path)
    text = path.read_text()
    assert text.index('"alpha"') < text.index('"beta"')
    assert "0.10000000000000001" in text
    assert "0.33333333333333331" in text


def test_report_roundtrips_floats_exactly(tmp_path):
    rng = np.random.default_rng(3)
    values = [float(v) for v in rng.normal(size=16)]
    path = tmp_path / "r.json"
    save_report({"values": values, "pi": 3.141592653589793}, path)
    back = load_report(path)
    assert back["values"] == values
    assert back["pi"] == 3.141592653589793


def test_report_is_valid_json_with_injected_version(tmp_path):
    import splatlab

    path = tmp_path / "r.json"
    save_report({"x": 1}, path)
    back = json.loads(path.read_text())
    assert back["tool_version"] == splatlab.__version__
    assert back["x"] == 1


def test_report_rejects_nonfinite_and_bad_keys():
    with pytest.raises(Exception):
        dumps_report({"x": float("nan")})
    with pytest.raises(Exception):
        dumps_report({1: "non-string key"})


def test_report_handles_numpy_scalars_and_arrays():
    text = dumps_report({"arr": np.array([1.0, 2.0]), "n": np.int64(3), "f": np.float64(0.5)})
    back = json.loads(text)
    assert back["arr"] == [1.0, 2.0]
    assert back["n"] == 3
    assert back["f"] == 0.5


@pytest.mark.parametrize("blob", [b"{not json", b'{"x": "caf\xc3\xa9"}'])
def test_load_report_malformed_is_invalid_input(tmp_path, blob):
    path = tmp_path / "r.json"
    path.write_bytes(blob)
    with pytest.raises(InvalidInputError, match="r.json: not valid ASCII JSON"):
        load_report(path)


def test_atomic_write_no_temp_left_behind(tmp_path):
    path = tmp_path / "r.json"
    save_report({"x": 1}, path)
    save_report({"x": 2}, path)  # overwrite through the temp + rename path
    assert load_report(path)["x"] == 2
    leftovers = [f for f in os.listdir(tmp_path) if f != "r.json"]
    assert leftovers == []
