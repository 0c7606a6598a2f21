"""The streamed PLY reader against the former whole-file reader.

``parse_ply`` reads the header line by line and the vertex block straight
from the open file; a pipe is read into memory first. Every outcome must be
that of ``oracles.reference_parse_ply``, which read the whole file into one
bytes object before parsing: the same arrays bit for bit, or the same error
type, message and byte offset.
"""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_parse_ply
from synth import make_cluster_cloud
from test_ply import (
    ASCII_FIXTURE,
    ELEMENT_BEFORE_VERTEX,
    FLOAT_IDS_FIXTURE,
    FUZZED_EDITS,
    MALFORMED_CASES,
    binary_with_first_position,
    edited_blob,
    fuzz_blobs,
)
import sceneqa
from sceneqa import ply_io
from sceneqa.errors import MalformedHeader, SceneQaError, TruncatedBody
from sceneqa.ply_io import parse_ply, write_ply


def outcome(parse, path):
    """Every array of the parsed cloud as bytes, or the error raised."""
    try:
        cloud = parse(path)
    except SceneQaError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "offset", None)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (
        cloud.positions, cloud.colors, cloud.semantic_labels, cloud.instance_labels)]


def assert_same_outcome(path):
    new = outcome(parse_ply, path)
    assert new == outcome(reference_parse_ply, path)
    return new


def accepted(result) -> bool:
    return isinstance(result, list)


# --- fixtures ------------------------------------------------------------------------

HEAD, BODY = ASCII_FIXTURE.split("end_header\n")

FIXTURES = {
    "ascii": ASCII_FIXTURE,
    "float_ids": FLOAT_IDS_FIXTURE,
    "element_before_vertex": ELEMENT_BEFORE_VERTEX,
    "truncated": ASCII_FIXTURE.replace("element vertex 3", "element vertex 10"),
    "big_endian": ASCII_FIXTURE.replace("format ascii 1.0", "format binary_big_endian 1.0"),
    "no_magic": "not a ply\n" + ASCII_FIXTURE,
    "no_end_header": ASCII_FIXTURE.replace("end_header\n", ""),
    "end_header_without_newline": HEAD + "end_header",
    "crlf": ASCII_FIXTURE.replace("\n", "\r\n"),
    "comment_ends_header": HEAD + "comment end_header\n" + "end_header\n" + BODY,
    "end_header_inside_a_line": HEAD.replace("fixture", "end_header") + "end_header\n" + BODY,
    "end_header_twice": ASCII_FIXTURE + "end_header\n",
    "no_format": ASCII_FIXTURE.replace("format ascii 1.0\n", ""),
    "header_only": HEAD,
    "empty": "",
    "element_after_vertex": ASCII_FIXTURE.replace(
        "end_header", "element face 1\nproperty list uchar int vertex_indices\nend_header")
    + "3 0 1 2\n",
    **{f"malformed_{k}": v for k, v in MALFORMED_CASES.items() if v is not None},
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_matches_reference(tmp_path, name):
    path = tmp_path / "f.ply"
    path.write_bytes(FIXTURES[name].encode("latin-1"))
    assert_same_outcome(path)


def test_binary_fixtures_match_reference(tmp_path):
    (tmp_path / "nan.ply").write_bytes(binary_with_first_position(tmp_path, [np.nan, 0, 0]))
    assert not accepted(assert_same_outcome(tmp_path / "nan.ply"))
    blob = fuzz_blobs(tmp_path)[True]
    for cut in (0, 10, blob.index(b"end_header\n") + 11, len(blob) - 8, len(blob)):
        (tmp_path / "cut.ply").write_bytes(blob[:cut])
        assert accepted(assert_same_outcome(tmp_path / "cut.ply")) == (cut == len(blob))


# --- seeded synth clouds -------------------------------------------------------------

def seeded_cloud(seed: int):
    rng = np.random.default_rng(seed)
    clusters = [(i + 1, int(rng.integers(0, 20)), rng.uniform(-5, 5, 3), rng.uniform(0.2, 2, 3),
                 int(rng.integers(1, 200))) for i in range(int(rng.integers(1, 6)))]
    return make_cluster_cloud(seed, clusters)


# an element ahead of the vertex block: ASCII rows may hold lists, binary ones may not
ASCII_CAMERA = ("element camera 2\nproperty float focal\nproperty list uchar int ids\n",
                b"35.0 3 1 2 3\n50.0 0\n")
BINARY_CAMERA = ("element camera 2\nproperty float focal\nproperty uchar flag\n",
                 np.array([(35.0, 1), (50.0, 0)], dtype=[("f", "<f4"), ("u", "u1")]).tobytes())


def with_element_before_vertex(blob: bytes, element) -> bytes:
    header, rows = element
    head, body = blob.split(b"end_header\n", 1)
    head = head.replace(b"element vertex", header.encode("ascii") + b"element vertex")
    return head + b"end_header\n" + rows + body


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
def test_seeded_cloud_matches_reference(tmp_path, seed, binary):
    path = tmp_path / "c.ply"
    write_ply(path, seeded_cloud(seed), binary=binary)
    blob = path.read_bytes()
    variants = {"plain": blob,
                "element_before": with_element_before_vertex(
                    blob, BINARY_CAMERA if binary else ASCII_CAMERA)}
    if binary:  # a list-typed element cannot be skipped in a binary file
        variants["list_before"] = with_element_before_vertex(blob, ASCII_CAMERA)
    cut = int(np.random.default_rng(seed).integers(blob.index(b"end_header\n"), len(blob)))
    variants["cut"] = blob[:cut]
    for name, data in variants.items():
        path.write_bytes(data)
        result = assert_same_outcome(path)
        assert accepted(result) == (name in ("plain", "element_before")), name


# --- fuzzed files --------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_stream")
    return root, fuzz_blobs(root)


@settings(max_examples=300, deadline=None, database=None)
@given(edit=FUZZED_EDITS)
def test_fuzzed_input_matches_reference(fuzz_fixtures, edit):
    root, fixtures = fuzz_fixtures
    path = root / "case.ply"
    path.write_bytes(edited_blob(fixtures, edit))
    assert_same_outcome(path)


# --- a file that cannot seek ----------------------------------------------------------

@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("case", ["ascii", "binary_element_before", "binary_cut"])
def test_pipe_matches_reference(tmp_path, case):
    path = tmp_path / "c.ply"
    write_ply(path, seeded_cloud(11), binary=case != "ascii")
    blob = path.read_bytes()
    if case == "binary_element_before":
        blob = with_element_before_vertex(blob, BINARY_CAMERA)
    elif case == "binary_cut":
        blob = blob[:-5]
    path.write_bytes(blob)
    fifo = tmp_path / "pipe.ply"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(blob)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        result = outcome(parse_ply, fifo)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert result == outcome(reference_parse_ply, path)
    assert accepted(result) == (case != "binary_cut")
    if case == "binary_cut":
        assert result[2] == len(blob)  # the offset is the length of what the pipe held


# --- chunk boundaries ------------------------------------------------------------------
# The vertex block is decoded ply_io._CHUNK_ROWS rows at a time. With a few
# rows a chunk, the small files above cross many chunk boundaries.

@pytest.fixture(params=[1, 2, 5], ids=lambda rows: f"{rows}rows")
def small_chunks(request, monkeypatch):
    monkeypatch.setattr(ply_io, "_CHUNK_ROWS", request.param)
    return request.param


def test_fixtures_match_reference_in_small_chunks(tmp_path, small_chunks):
    for name in sorted(FIXTURES):
        test_fixture_matches_reference(tmp_path, name)
    test_binary_fixtures_match_reference(tmp_path)


@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
def test_seeded_clouds_match_reference_in_small_chunks(tmp_path, small_chunks, binary):
    for seed in range(8):
        test_seeded_cloud_matches_reference(tmp_path, seed, binary)


@settings(max_examples=200, deadline=None, database=None)
@given(edit=FUZZED_EDITS, rows=st.sampled_from([1, 2]))
def test_fuzzed_input_matches_reference_in_small_chunks(fuzz_fixtures, edit, rows):
    root, fixtures = fuzz_fixtures
    path = root / "case.ply"
    path.write_bytes(edited_blob(fixtures, edit))
    with mock.patch.object(ply_io, "_CHUNK_ROWS", rows):
        assert_same_outcome(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipes_match_reference_in_small_chunks(tmp_path, small_chunks):
    for case in ("ascii", "binary_element_before", "binary_cut"):
        (tmp_path / case).mkdir()
        test_pipe_matches_reference(tmp_path / case, case)


def float_ids_file(path, n, edits=None) -> Path:
    """An ASCII cloud of ``n`` rows with float-typed colors and ids, the
    rows in ``edits`` ({row: text}) replaced."""
    head = FLOAT_IDS_FIXTURE.split("end_header\n")[0].replace("element vertex 3",
                                                              f"element vertex {n}")
    rows = [f"{i}.5 1.5 2.5 {i % 256} 0 0 4 1" for i in range(n)]
    for row, text in (edits or {}).items():
        rows[row] = text
    path.write_bytes((head + "end_header\n" + "".join(r + "\n" for r in rows)).encode())
    return path


@pytest.mark.parametrize("edits, message", [
    ({7: "7.5 1.5 2.5 7 0 0 4.5 1"}, "property 'label' holds 4.5 in row 7,"),
    ({10: "10.5 1.5 2.5 300 0 0 4 1"}, "property 'red' holds 300.0 in row 10,"),
    ({1: "1.5 1.5 2.5 1 0 0 4 0.25", 9: "9.5 1.5 2.5 9 0.5 0 4 1"},
     "property 'green' holds 0.5 in row 9,"),  # colors are checked before ids
], ids=["label", "red", "green_before_instance"])
def test_bad_value_past_the_first_chunk_names_its_row(tmp_path, small_chunks, edits, message):
    path = float_ids_file(tmp_path / "f.ply", 12, edits)
    result = assert_same_outcome(path)
    assert result[0] == "MalformedHeader" and message in result[1], result


def test_bad_binary_value_past_the_first_chunk_names_its_row(tmp_path, small_chunks):
    dtype = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("label", "<f4")])
    table = np.zeros(12, dtype=dtype)
    table["label"][8] = np.nan
    head = ("ply\nformat binary_little_endian 1.0\nelement vertex 12\nproperty float x\n"
            "property float y\nproperty float z\nproperty float label\nend_header\n")
    path = tmp_path / "b.ply"
    path.write_bytes(head.encode() + table.tobytes())
    result = assert_same_outcome(path)
    assert result[0] == "MalformedHeader" and "holds nan in row 8," in result[1], result


@pytest.mark.parametrize("edits, error, message", [
    ({8: "8.5 abc 2.5 8 0 0 4 1"}, MalformedHeader, "row 8"),
    ({2: "2.5 1.5 2.5 2 0 0 4.5 1", 8: "8.5 1.5"}, MalformedHeader, "row 8 "),
    ({9: ""}, TruncatedBody, "body holds 9 "),
], ids=["bad_token", "short_row_after_bad_label", "blank_line"])
def test_undecodable_later_chunk_reports_as_the_whole_block(tmp_path, small_chunks, edits,
                                                            error, message):
    path = float_ids_file(tmp_path / "f.ply", 12, edits)
    with pytest.raises(error, match=message):
        parse_ply(path)
    assert_same_outcome(path)


def declare_rows(path, n, declared):
    """Rewrite the ``element vertex n`` line of ``path`` to declare
    ``declared`` rows; "body" declares one row fewer than the body's bytes."""
    head, body = path.read_bytes().split(b"end_header\n")
    if declared == "body":
        declared = len(body) - 1
    path.write_bytes(head.replace(b"element vertex %d" % n, b"element vertex %d" % declared)
                     + b"end_header\n" + body)
    return declared


BAD_ROWS = {
    "bad_token": lambda row: f"{row}.5 1.5 2.5 {row} 0 x7 4 1",
    "short_row": lambda row: f"{row}.5 1.5",
    "blank_line": lambda row: "",
}


@pytest.mark.parametrize("later", [False, True], ids=["first_chunk", "later_chunk"])
@pytest.mark.parametrize("case", [*BAD_ROWS, "cut_body"])
def test_first_bad_ascii_row_is_named_from_0(tmp_path, small_chunks, case, later):
    """The chunk that holds the first bad row is read again line by line;
    the error names that row of the whole block, counted from 0."""
    row = 10 if later else small_chunks - 1
    path = tmp_path / "f.ply"
    if case == "cut_body":
        declare_rows(float_ids_file(path, row), row, 12)
    else:
        float_ids_file(path, 12, {row: BAD_ROWS[case](row)})
    expected = {
        "bad_token": ("MalformedHeader", "vertex element: property 'blue' holds 'x7' in "
                                         f"row {row}, not a float32 value", None),
        "short_row": ("MalformedHeader",
                      f"vertex element: row {row} does not split into 8 values", None),
    }.get(case, ("TruncatedBody", f"vertex element declares 12 rows, body holds {row} "
                                  f"(byte offset {path.stat().st_size})", path.stat().st_size))
    assert assert_same_outcome(path) == expected


@pytest.mark.parametrize("declared", [13, "body", 10 ** 6, 10 ** 30])
def test_short_body_in_a_later_chunk_is_truncation(tmp_path, small_chunks, declared):
    path = float_ids_file(tmp_path / "f.ply", 12)
    declared = declare_rows(path, 12, declared)
    with pytest.raises(TruncatedBody) as err:
        parse_ply(path)
    assert err.value.offset == path.stat().st_size
    assert_same_outcome(path)
    n = len(seeded_cloud(1))
    binary = tmp_path / "b.ply"
    write_ply(binary, seeded_cloud(1), binary=True)
    binary.write_bytes(binary.read_bytes().replace(b"element vertex %d" % n,
                                                   b"element vertex %d" % (n + declared)))
    assert not accepted(assert_same_outcome(binary))


# --- footprint -----------------------------------------------------------------------

def test_ascii_parse_peak_stays_below_the_file_size(tmp_path):
    """The whole-file reader held the file and the table at once (about twice
    the file); streamed, the peak is the cloud and one chunk."""
    cloud = make_cluster_cloud(4, [(i + 1, i % 20, [i % 10, i // 10, 1], [1, 1, 1], 1000)
                                   for i in range(100)])
    path = tmp_path / "big.ply"
    write_ply(path, cloud, binary=False)
    tracemalloc.start()
    try:
        parsed = parse_ply(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parsed) == 100_000
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def test_overdeclared_ascii_rows_fail_before_the_cloud_is_allocated(tmp_path):
    """A header that declares nearly one row per body byte is truncation,
    found before the cloud's 43 bytes a declared row are allocated."""
    path = float_ids_file(tmp_path / "f.ply", 20_000)
    declare_rows(path, 20_000, "body")
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedBody, match="body holds 20000"):
            parse_ply(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * path.stat().st_size, (peak, path.stat().st_size)


def repeated_cloud_file(path, n, binary) -> Path:
    """A PLY file of ``n`` points: the rows of a 1000-point cloud, repeated."""
    cloud = make_cluster_cloud(6, [(i + 1, i % 20, [i % 10, i // 10, 1], [1, 1, 1], 100)
                                   for i in range(10)])
    write_ply(path, cloud, binary=binary)
    head, body = path.read_bytes().split(b"end_header\n")
    head = head.replace(b"element vertex 1000", b"element vertex %d" % n)
    path.write_bytes(head + b"end_header\n" + body * (n // 1000))
    return path


def parse_peak_beyond_the_cloud(path) -> int:
    tracemalloc.start()
    try:
        cloud = parse_ply(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(a.nbytes for a in (cloud.positions, cloud.colors, cloud.semantic_labels,
                                         cloud.instance_labels))


@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
def test_parse_peak_beyond_the_cloud_does_not_grow_with_it(tmp_path, binary):
    """One chunk is held besides the cloud, whatever the number of points;
    holding the vertex table would add about 3.5 MB at 200k points."""
    small = parse_peak_beyond_the_cloud(repeated_cloud_file(tmp_path / "s.ply", 50_000, binary))
    large = parse_peak_beyond_the_cloud(repeated_cloud_file(tmp_path / "l.ply", 200_000, binary))
    assert abs(large - small) < 0.5e6, (small, large)


def test_ingest_loads_neither_openssl_nor_multiprocessing(tmp_path):
    path = tmp_path / "c.ply"
    write_ply(path, make_cluster_cloud(3, [(1, 4, [0, 0, 0], [1, 1, 1], 60)]), binary=True)
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"4": "chair"}))
    code = (
        "import sys\n"
        "from sceneqa.cli import main\n"
        f"code = main(['ingest', '--ply', {str(path)!r}, '--label-map', {str(labels)!r},"
        f" '--scene-id', 's', '--out', {str(tmp_path / 'o.json')!r}, '--oriented'])\n"
        "print(code, sorted(m for m in ('_hashlib', 'multiprocessing') if m in sys.modules))\n")
    src = str(Path(sceneqa.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 []", run.stdout
