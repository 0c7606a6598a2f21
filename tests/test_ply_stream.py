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

import numpy as np
import pytest
from hypothesis import given, settings

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
from sceneqa.errors import SceneQaError
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


# --- footprint -----------------------------------------------------------------------

def test_ascii_parse_peak_stays_below_the_file_size(tmp_path):
    """The whole-file reader held the file and the table at once (about twice
    the file); streamed, the peak is the vertex table and the cloud."""
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
