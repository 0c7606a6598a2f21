import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import make_cluster_cloud
from sceneqa.cli import main
from sceneqa.errors import MalformedHeader, SceneQaError, TruncatedBody, UnsupportedEncoding
from sceneqa.ply_io import (
    LabeledPointCloud,
    _parse_header,
    _vertex_chunks,
    _vertex_element,
    parse_ply,
    write_ply,
)

ASCII_FIXTURE = """ply
format ascii 1.0
comment handwritten fixture
element vertex 3
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
property int label
property int instance
end_header
0.5 1.5 2.5 255 0 0 4 1
-1.0 0.0 0.25 0 255 0 4 1
2.0 -3.0 1.0 0 0 255 7 2
"""


def write(path, text):
    path.write_bytes(text.encode("ascii"))
    return path


def test_ascii_fixture(tmp_path):
    cloud = parse_ply(write(tmp_path / "a.ply", ASCII_FIXTURE))
    assert len(cloud) == 3
    assert np.allclose(cloud.positions[0], [0.5, 1.5, 2.5])
    assert cloud.colors[2].tolist() == [0, 0, 255]
    assert cloud.semantic_labels.tolist() == [4, 4, 7]
    assert cloud.instance_labels.tolist() == [1, 1, 2]


def test_binary_matches_ascii_bitwise(tmp_path):
    source = make_cluster_cloud(5, [(1, 4, [0, 0, 0], [1, 1, 1], 40),
                                    (2, 7, [3, 3, 1], [0.5, 0.5, 0.5], 25)])
    write_ply(tmp_path / "a.ply", source, binary=False)
    write_ply(tmp_path / "b.ply", source, binary=True)
    a = parse_ply(tmp_path / "a.ply")
    b = parse_ply(tmp_path / "b.ply")
    assert np.array_equal(a.positions, b.positions)  # bitwise, both via float32
    assert np.array_equal(a.colors, b.colors)
    assert np.array_equal(a.semantic_labels, b.semantic_labels)
    assert np.array_equal(a.instance_labels, b.instance_labels)


def test_truncated_ascii_body(tmp_path):
    truncated = ASCII_FIXTURE.replace("element vertex 3", "element vertex 10")
    with pytest.raises(TruncatedBody) as err:
        parse_ply(write(tmp_path / "t.ply", truncated))
    assert err.value.offset is not None


def test_truncated_binary_body(tmp_path):
    source = make_cluster_cloud(6, [(1, 4, [0, 0, 0], [1, 1, 1], 30)])
    write_ply(tmp_path / "b.ply", source, binary=True)
    blob = (tmp_path / "b.ply").read_bytes()
    (tmp_path / "cut.ply").write_bytes(blob[:-8])
    with pytest.raises(TruncatedBody):
        parse_ply(tmp_path / "cut.ply")


def test_big_endian_rejected(tmp_path):
    text = ASCII_FIXTURE.replace("format ascii 1.0", "format binary_big_endian 1.0")
    with pytest.raises(UnsupportedEncoding):
        parse_ply(write(tmp_path / "be.ply", text))


def test_malformed_header_cases(tmp_path):
    with pytest.raises(MalformedHeader):
        parse_ply(write(tmp_path / "m1.ply", "not a ply\n" + ASCII_FIXTURE))
    with pytest.raises(MalformedHeader):
        parse_ply(write(tmp_path / "m2.ply",
                        ASCII_FIXTURE.replace("property float x", "property quux x")))
    no_end = ASCII_FIXTURE.replace("end_header\n", "")
    with pytest.raises(MalformedHeader):
        parse_ply(write(tmp_path / "m3.ply", no_end))


@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
def test_obj_info_lines_are_skipped_like_comments(tmp_path, binary):
    source = make_cluster_cloud(5, [(1, 4, [0, 0, 0], [1, 1, 1], 40),
                                    (2, 7, [3, 3, 1], [0.5, 0.5, 0.5], 25)])
    plain, info = tmp_path / "plain.ply", tmp_path / "info.ply"
    write_ply(plain, source, binary=binary)
    magic, fmt, rest = plain.read_bytes().split(b"\n", 2)
    info.write_bytes(b"\n".join([magic, fmt, b"obj_info made by scanner", rest]))
    a, b = parse_ply(plain), parse_ply(info)
    for name in ("positions", "colors", "semantic_labels", "instance_labels"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_header_error_offset_counts_obj_info_lines(tmp_path):
    text = ASCII_FIXTURE.replace("comment handwritten fixture\n",
                                 "obj_info made by scanner\ncomment handwritten fixture\n")
    text = text.replace("property float y", "property quux y")
    with pytest.raises(MalformedHeader) as err:
        parse_ply(write(tmp_path / "info.ply", text))
    assert err.value.offset == text.index("property quux y")


def test_unknown_properties_skipped(tmp_path):
    text = ASCII_FIXTURE.replace(
        "property int instance",
        "property int instance\nproperty float confidence")
    text = text.replace("0.5 1.5 2.5 255 0 0 4 1", "0.5 1.5 2.5 255 0 0 4 1 0.9")
    text = text.replace("-1.0 0.0 0.25 0 255 0 4 1", "-1.0 0.0 0.25 0 255 0 4 1 0.8")
    text = text.replace("2.0 -3.0 1.0 0 0 255 7 2", "2.0 -3.0 1.0 0 0 255 7 2 0.7")
    cloud = parse_ply(write(tmp_path / "u.ply", text))
    assert len(cloud) == 3
    assert cloud.instance_labels.tolist() == [1, 1, 2]


def test_alias_property_names(tmp_path):
    text = ASCII_FIXTURE.replace("property int label", "property int semantic_label")
    text = text.replace("property int instance", "property int instance_label")
    cloud = parse_ply(write(tmp_path / "alias.ply", text))
    assert cloud.semantic_labels.tolist() == [4, 4, 7]


def test_missing_position_property(tmp_path):
    text = ASCII_FIXTURE.replace("property float z\n", "")
    text = text.replace("0.5 1.5 2.5", "0.5 1.5")
    text = text.replace("-1.0 0.0 0.25", "-1.0 0.0")
    text = text.replace("2.0 -3.0 1.0", "2.0 -3.0")
    with pytest.raises(MalformedHeader):
        parse_ply(write(tmp_path / "nz.ply", text))


def test_cloud_invariants():
    with pytest.raises(ValueError):
        LabeledPointCloud(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.uint8),
                          np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        LabeledPointCloud(np.array([[0.0, 0.0, np.inf]]),
                          np.zeros((1, 3), dtype=np.uint8),
                          np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError):
        LabeledPointCloud(np.zeros((1, 3)), np.zeros((1, 3), dtype=np.uint8),
                          np.zeros(1, dtype=np.int64), np.array([-1]))


# --- the vertex table against the former per-token reader ----------------------

def reference_ascii_table(blob):
    """The former ASCII reader: split each row, convert every token with
    Python float() or int(), one column at a time."""
    _, elements, body_offset = _parse_header(io.BytesIO(blob))
    v_idx, vertex = _vertex_element(elements)
    lines = blob[body_offset:].split(b"\n")
    skip = sum(el.count for el in elements[:v_idx])
    rows = [lines[skip + i].split() for i in range(vertex.count)]
    out = np.zeros(vertex.count, dtype=np.dtype(vertex.properties))
    for col, (name, np_type) in enumerate(vertex.properties):
        convert = float if np.dtype(np_type).kind == "f" else int
        out[name] = np.array([convert(row[col]) for row in rows], dtype=np_type)
    return out


def ascii_table(blob):
    body = io.BytesIO(blob)
    _, elements, _ = _parse_header(body)
    v_idx, vertex = _vertex_element(elements)
    chunks = _vertex_chunks(body, "ascii", len(blob), elements[:v_idx], vertex.count,
                            np.dtype(vertex.properties))
    return np.concatenate([table for _, table in chunks])


def assert_same_table(blob):
    table, ref = ascii_table(blob), reference_ascii_table(blob)
    assert table.dtype == ref.dtype
    assert table.tobytes() == ref.tobytes()


WIDE_HEADER = """ply
format ascii 1.0
element vertex {n}
property float x
property double y
property float z
property char c
property short s
property int label
property uint instance
end_header
"""

AWKWARD_ROWS = [
    "0.1000000000000000055511151231257827021181583404541015625 0.1 -0.0 -128 -32768 -2147483648 0",
    "3.4028234663852886e+38 1.7976931348623157e308 -3.4028235e38 127 32767 2147483647 4294967295",
    "1.4e-45 4.9e-324 1e-40 -1 -1 -1 1",
    "1.00000005960464477539062499 1.00000005960464477539062501 16777217 +7 +0 -0 +12",
    "-2.5E+2 1e-3 6.02214076e23 0 0 0 0",
    "123456789.123456789 0.30000000000000004 -1.17549435e-38 5 -5 5 5",
]


def test_awkward_literals_match_reference(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.standard_normal(600) * 10.0 ** rng.integers(-40, 38, 600)
    formats = ("{!r}", "{:.9g}", "{:.20e}", "{:.3f}")
    rows = list(AWKWARD_ROWS)
    for i, v in enumerate(values):
        text = formats[i % len(formats)].format(float(v))
        rows.append(f"{text} {text} {text} {i % 256 - 128} {-i} {i * 7919} {i}")
    blob = (WIDE_HEADER.format(n=len(rows)) + "\n".join(rows) + "\n").encode("ascii")
    assert_same_table(blob)
    # the float-max y of AWKWARD_ROWS[1] reads exactly, but a cloud bounds its coordinates
    with pytest.raises(MalformedHeader, match="within"):
        parse_ply(write(tmp_path / "wide.ply", blob.decode("ascii")))
    del rows[1]
    text = WIDE_HEADER.format(n=len(rows)) + "\n".join(rows) + "\n"
    cloud = parse_ply(write(tmp_path / "wide.ply", text))
    assert np.signbit(cloud.positions[0, 2])


def test_cluster_cloud_matches_reference(tmp_path):
    source = make_cluster_cloud(8, [(1, 4, [0, 0, 0], [1, 1, 1], 300),
                                    (2, 7, [3, 3, 1], [0.5, 0.5, 0.5], 200)])
    write_ply(tmp_path / "a.ply", source, binary=False)
    assert_same_table((tmp_path / "a.ply").read_bytes())


ELEMENT_BEFORE_VERTEX = ASCII_FIXTURE.replace(
    "element vertex 3",
    "element camera 2\nproperty float focal\nproperty list uchar int ids\nelement vertex 3",
).replace("end_header\n", "end_header\n35.0 3 1 2 3\n50.0 0\n") + "3 1 2 3\n"


def test_element_before_vertex_matches_reference(tmp_path):
    assert_same_table(ELEMENT_BEFORE_VERTEX.encode("ascii"))
    cloud = parse_ply(write(tmp_path / "e.ply", ELEMENT_BEFORE_VERTEX))
    assert cloud.semantic_labels.tolist() == [4, 4, 7]


def test_blank_line_inside_vertex_block_is_truncation(tmp_path):
    text = ASCII_FIXTURE.replace("4 1\n2.0", "4 1\n\n2.0")
    with pytest.raises(TruncatedBody) as err:
        parse_ply(write(tmp_path / "b.ply", text))
    assert err.value.offset == len(text)


def test_extra_trailing_values_ignored(tmp_path):
    text = ASCII_FIXTURE.replace("7 2\n", "7 2 0.5 9\n")
    assert_same_table(text.encode("ascii"))
    cloud = parse_ply(write(tmp_path / "x.ply", text))
    assert cloud.instance_labels.tolist() == [1, 1, 2]


# --- malformed input: every failure is a SceneQaError ---------------------------

def binary_with_first_position(tmp_path, position):
    write_ply(tmp_path / "src.ply", make_cluster_cloud(5, [(1, 4, [0, 0, 0], [1, 1, 1], 4)]),
              binary=True)
    blob = (tmp_path / "src.ply").read_bytes()
    body = blob.index(b"end_header\n") + len(b"end_header\n")
    first = np.asarray(position, dtype="<f4").tobytes()
    return blob[:body] + first + blob[body + len(first):]


# Ids and colors declared as floats: integral values parse, anything else is rejected.
FLOAT_IDS_FIXTURE = (ASCII_FIXTURE.replace("property uchar", "property float")
                     .replace("property int", "property float"))


def with_first_row(fixture, row):
    head, body = fixture.split("end_header\n")
    return f"{head}end_header\n{row}\n" + body.split("\n", 1)[1]


def test_integral_float_ids_and_colors_parse(tmp_path):
    text = with_first_row(FLOAT_IDS_FIXTURE, "0.5 1.5 2.5 255.0 0 0 4.0 1e0")
    cloud = parse_ply(write(tmp_path / "f.ply", text))
    want = parse_ply(write(tmp_path / "i.ply", ASCII_FIXTURE))
    for field in ("colors", "semantic_labels", "instance_labels"):
        assert getattr(cloud, field).dtype == getattr(want, field).dtype
        np.testing.assert_array_equal(getattr(cloud, field), getattr(want, field))


MALFORMED_CASES = {
    "bare_property": ASCII_FIXTURE.replace("property float z", "property\nproperty float z"),
    "duplicate_property": ASCII_FIXTURE.replace("property float y", "property float x"),
    "uchar_out_of_range": ASCII_FIXTURE.replace("255 0 0", "300 0 0"),
    "short_row": ASCII_FIXTURE.replace("0 0 255 7 2", "0 0 255"),
    "empty_vertex_element": ASCII_FIXTURE.replace("element vertex 3", "element vertex 0")
                                         .split("end_header\n")[0] + "end_header\n",
    "nan_position_ascii": ASCII_FIXTURE.replace("0.5 1.5 2.5", "0.5 nan 2.5"),
    "huge_position_double": ASCII_FIXTURE.replace("property float y", "property double y")
                                         .replace("0.5 1.5 2.5", "0.5 1e200 2.5"),
    "negative_instance": ASCII_FIXTURE.replace("7 2\n", "7 -2\n"),
    "nan_position_binary": None,
    "nan_label": with_first_row(FLOAT_IDS_FIXTURE, "0.5 1.5 2.5 255 0 0 nan 1"),
    "fractional_label": with_first_row(FLOAT_IDS_FIXTURE, "0.5 1.5 2.5 255 0 0 4.5 1"),
    "huge_label": with_first_row(FLOAT_IDS_FIXTURE, "0.5 1.5 2.5 255 0 0 1e30 1"),
    "inf_instance": with_first_row(FLOAT_IDS_FIXTURE, "0.5 1.5 2.5 255 0 0 4 inf"),
    "fractional_instance": with_first_row(FLOAT_IDS_FIXTURE, "0.5 1.5 2.5 255 0 0 4 0.25"),
    "nan_red": with_first_row(FLOAT_IDS_FIXTURE, "0.5 1.5 2.5 nan 0 0 4 1"),
    "fractional_green": with_first_row(FLOAT_IDS_FIXTURE, "0.5 1.5 2.5 255 0.5 0 4 1"),
    "blue_above_255": with_first_row(FLOAT_IDS_FIXTURE, "0.5 1.5 2.5 255 0 256 4 1"),
    "negative_red": with_first_row(FLOAT_IDS_FIXTURE, "0.5 1.5 2.5 -1 0 0 4 1"),
    "int_color_above_255": with_first_row(ASCII_FIXTURE.replace("uchar red", "int red"),
                                          "0.5 1.5 2.5 300 0 0 4 1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CASES))
def test_malformed_vertex_data_is_scene_error(tmp_path, capsys, case):
    ply = tmp_path / f"{case}.ply"
    if case == "nan_position_binary":
        ply.write_bytes(binary_with_first_position(tmp_path, [np.nan, 0.0, 0.0]))
    else:
        write(ply, MALFORMED_CASES[case])
    with pytest.raises(MalformedHeader):
        parse_ply(ply)

    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"4": "chair"}))
    code = main(["ingest", "--ply", str(ply), "--label-map", str(labels),
                 "--scene-id", "x", "--out", str(tmp_path / "o.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(ply) in err and "Traceback" not in err


HEADER_LINES = ASCII_FIXTURE.split("end_header\n")[0].splitlines() + ["end_header"]
ASCII_BODY = ASCII_FIXTURE.split("end_header\n")[1]
HEADER_TOKENS = ["ply", "format", "ascii", "binary_little_endian", "binary_big_endian",
                 "1.0", "comment", "element", "vertex", "face", "property", "list",
                 "uchar", "char", "int", "uint", "float", "double", "x", "y", "z",
                 "red", "label", "instance", "0", "-1", "2", "3", "4",
                 "99999999999999999999", "1e3", "", "\xff"]


@st.composite
def edited_headers(draw):
    lines = list(HEADER_LINES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "mutate"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(HEADER_TOKENS))
            lines[i] = " ".join(tokens)
        if not lines:
            break
    text = "".join(line + "\n" for line in lines) + ASCII_BODY
    return text.encode("latin-1")


BODY_VALUES = ["nan", "inf", "-inf", "4.5", "-1", "256", "1e30", "0.0", "7"]


@st.composite
def edited_values(draw):
    """The ASCII fixture, optionally with float-typed ids and colors, with
    one to three body values replaced."""
    text = draw(st.sampled_from([ASCII_FIXTURE, FLOAT_IDS_FIXTURE]))
    head, body = text.split("end_header\n")
    rows = [line.split() for line in body.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BODY_VALUES))
    return (head + "end_header\n" + "".join(" ".join(r) + "\n" for r in rows)).encode("ascii")


@st.composite
def byte_edits(draw):
    """(binary fixture?, truncation point or None, [(position, xor mask)]);
    positions are taken modulo the fixture's length."""
    binary = draw(st.booleans())
    cut = draw(st.none() | st.integers(0, 4096))
    flips = draw(st.lists(st.tuples(st.integers(0, 4096), st.integers(1, 255)), max_size=3))
    return binary, cut, flips


def fuzz_blobs(root) -> dict:
    """The fixtures ``byte_edits`` edits: {binary?: file bytes}."""
    cloud = make_cluster_cloud(5, [(1, 4, [0, 0, 0], [1, 1, 1], 6),
                                   (2, 7, [2, 2, 0], [1, 1, 1], 6)])
    write_ply(root / "binary.ply", cloud, binary=True)
    return {False: ASCII_FIXTURE.encode("ascii"), True: (root / "binary.ply").read_bytes()}


def edited_blob(fixtures, edit) -> bytes:
    """The file bytes a drawn fuzz edit stands for."""
    if isinstance(edit, bytes):
        return edit
    binary, cut, flips = edit
    blob = bytearray(fixtures[binary])
    if cut is not None:
        del blob[cut % (len(blob) + 1):]
    for pos, mask in flips:
        if blob:
            blob[pos % len(blob)] ^= mask
    return bytes(blob)


FUZZED_EDITS = st.one_of(edited_headers(), edited_values(), byte_edits())


@pytest.fixture(scope="module")
def fuzz_fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, fuzz_blobs(root)


@settings(max_examples=200, deadline=None, database=None)
@given(edit=FUZZED_EDITS)
def test_fuzzed_input_yields_cloud_or_scene_error(fuzz_fixtures, edit):
    root, fixtures = fuzz_fixtures
    path = root / "case.ply"
    path.write_bytes(edited_blob(fixtures, edit))
    try:
        cloud = parse_ply(path)
    except SceneQaError:
        return
    assert len(cloud) > 0
    assert np.all(np.isfinite(cloud.positions))
    assert cloud.colors.dtype == np.uint8
    assert cloud.semantic_labels.dtype == cloud.instance_labels.dtype == np.int64
