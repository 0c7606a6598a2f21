"""PLY reader for labeled indoor point clouds.

Supports the two encodings that annotated capture pipelines actually emit:
``ascii 1.0`` and ``binary_little_endian 1.0``. Vertex properties are
discovered by name: positions from x/y/z, colors from red/green/blue,
semantic ids from label|semantic_label, instance ids from
instance|instance_label. Unknown properties are decoded and dropped; in
ASCII, values past the declared properties on a row are ignored, and a blank
line inside the vertex block counts as truncation. Ids and colors may be
declared with any scalar type but must hold integers that fit int64 (ids) or
0-255 (colors).

The header is read line by line up to the first ``end_header\\n`` and the
vertex block straight from the open file, ``_CHUNK_ROWS`` rows at a time:
``np.loadtxt`` decodes an ASCII chunk, one read fills a binary one, and each
chunk is checked and copied into the preallocated arrays of the cloud.
Neither the file nor the whole vertex table is ever held, so a parse holds
one copy of the cloud plus one chunk. An ASCII chunk that does not decode is
read again line by line to name its first bad row, counted from 0 as in
every error. A file that cannot seek (a pipe) is read into memory first and
parsed the same way; error offsets are byte offsets into the file, and "the
file length" for a truncated body.

Limitations (documented, raise rather than guess): binary big-endian files,
list-typed vertex properties, and list-typed elements that precede the
vertex element in a binary file.
"""

from __future__ import annotations

import io
import itertools
import warnings

import numpy as np

from .errors import MalformedHeader, TruncatedBody, UnsupportedEncoding
from .frozen import Frozen, set_field
from .geometry import MAX_COORD

_SCALAR_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}

# Vertex rows decoded at a time. The block goes into the cloud's arrays one
# chunk at a time, so a parse holds the cloud plus one chunk's table.
_CHUNK_ROWS = 1 << 14

_SEMANTIC_NAMES = ("label", "semantic_label")
_INSTANCE_NAMES = ("instance", "instance_label")


class LabeledPointCloud(Frozen):
    """Per-point positions, colors and semantic/instance ids.

    positions: (n, 3) float64, colors: (n, 3) uint8,
    semantic_labels / instance_labels: (n,) int64. Missing color or label
    properties in the source file default to zeros. Every coordinate lies
    within a quarter of ``geometry.MAX_COORD``, so that a box fitted to the
    points, yawed or not, has its centre and size within the box bound.
    """

    __slots__ = _fields = ("positions", "colors", "semantic_labels", "instance_labels")

    def __init__(self, positions: np.ndarray, colors: np.ndarray,
                 semantic_labels: np.ndarray, instance_labels: np.ndarray):
        n = len(positions)
        if n == 0:
            raise ValueError("point cloud is empty")
        bound = MAX_COORD / 4
        if not (-bound <= positions.min() and positions.max() <= bound):  # or NaN
            raise ValueError(f"point cloud positions must be finite and within {bound:g} m")
        if np.any(instance_labels < 0):
            raise ValueError("instance labels must be >= 0")
        for name, column in (("colors", colors), ("semantic_labels", semantic_labels),
                             ("instance_labels", instance_labels)):
            if len(column) != n:
                raise ValueError(f"{name} length does not match positions")
        set_field(self, "positions", positions)
        set_field(self, "colors", colors)
        set_field(self, "semantic_labels", semantic_labels)
        set_field(self, "instance_labels", instance_labels)

    def __len__(self):
        return len(self.positions)


class _Element:
    def __init__(self, name, count):
        self.name = name
        self.count = count
        self.properties = []  # (name, numpy little-endian type str)
        self.has_list = False


_END_HEADER = b"end_header\n"


def _parse_header(fh):
    """Parse the header of a file object read from its start; returns
    (format, elements, body offset) and leaves the file at the body. The
    header ends at the first ``end_header\\n`` in the file, also where that
    closes a longer line such as ``comment end_header``."""
    head = []
    for line in iter(fh.readline, b""):
        head.append(line)
        if line.endswith(_END_HEADER):  # the only place a first occurrence can end
            break
    else:
        raise MalformedHeader("missing end_header", offset=fh.tell())
    body_offset = fh.tell()
    lines = b"".join(head)[:-len(_END_HEADER)].decode("ascii", errors="replace").splitlines()
    if not lines or lines[0].strip() != "ply":
        raise MalformedHeader("missing 'ply' magic", offset=0)

    fmt = None
    elements = []
    offset = len(lines[0]) + 1
    for line in lines[1:]:
        tokens = line.split()
        if not tokens or tokens[0] in ("comment", "obj_info"):
            offset += len(line) + 1
            continue
        kind = tokens[0]
        if kind == "format":
            if len(tokens) != 3:
                raise MalformedHeader(f"bad format line: {line!r}", offset=offset)
            if tokens[1] == "binary_big_endian":
                raise UnsupportedEncoding("binary_big_endian is not supported", offset=offset)
            if tokens[1] not in ("ascii", "binary_little_endian"):
                raise MalformedHeader(f"unknown format {tokens[1]!r}", offset=offset)
            fmt = tokens[1]
        elif kind == "element":
            if len(tokens) != 3:
                raise MalformedHeader(f"bad element line: {line!r}", offset=offset)
            try:
                count = int(tokens[2])
            except ValueError:
                raise MalformedHeader(f"bad element count: {line!r}", offset=offset) from None
            if count < 0:
                raise MalformedHeader(f"negative element count: {line!r}", offset=offset)
            elements.append(_Element(tokens[1], count))
        elif kind == "property":
            if not elements:
                raise MalformedHeader("property before any element", offset=offset)
            if tokens[1:2] == ["list"]:
                if len(tokens) != 5:
                    raise MalformedHeader(f"bad list property: {line!r}", offset=offset)
                elements[-1].has_list = True
                elements[-1].properties.append((tokens[4], None))
            else:
                if len(tokens) != 3:
                    raise MalformedHeader(f"bad property line: {line!r}", offset=offset)
                np_type = _SCALAR_TYPES.get(tokens[1])
                if np_type is None:
                    raise MalformedHeader(f"unknown property type {tokens[1]!r}", offset=offset)
                elements[-1].properties.append((tokens[2], "<" + np_type))
        else:
            raise MalformedHeader(f"unexpected header line: {line!r}", offset=offset)
        offset += len(line) + 1

    if fmt is None:
        raise MalformedHeader("header has no format line", offset=body_offset)
    return fmt, elements, body_offset


def _vertex_element(elements):
    for idx, el in enumerate(elements):
        if el.name == "vertex":
            return idx, el
    raise MalformedHeader("header declares no vertex element")


def _binary_chunks(fh, count, dtype):
    """Iterate over (first row, table) for each run of at most _CHUNK_ROWS
    vertex rows of a binary file, read from the vertex block on, each table
    a view of one reused buffer."""
    buf = np.empty(min(count, _CHUNK_ROWS), dtype=dtype)
    for first in range(0, count, _CHUNK_ROWS):
        table = buf[:count - first]
        if fh.readinto(table) != table.nbytes:  # the file shrank since its size was taken
            raise TruncatedBody(f"vertex element ends early at row {first}", offset=fh.tell())
        yield first, table


def _loadtxt(rows, dtype):
    with warnings.catch_warnings():
        # An empty block is reported as truncation, not as a warning.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(rows, dtype=dtype, comments=None, usecols=range(len(dtype)), ndmin=1)


def _bad_row(line, row, dtype) -> MalformedHeader:
    """The error for an ASCII vertex line that does not decode as one row."""
    values = line.decode("latin-1").split()  # split as loadtxt splits a line
    for name, value in zip(dtype.names, values):
        try:
            _loadtxt([value], dtype[[name]])
        except ValueError:
            return MalformedHeader(f"vertex element: property {name!r} holds {value!r} in "
                                   f"row {row}, not a {dtype[name].name} value")
    return MalformedHeader(f"vertex element: row {row} does not split into {len(dtype)} values")


def _ascii_chunks(fh, size, before, count, dtype):
    """Iterate over (first row, table) for each run of at most _CHUNK_ROWS
    vertex rows, read from the body on. A chunk that fails to decode or
    comes up short is read again line by line, and its first line that is
    not a row raises: a blank line or the end of the body is truncation."""
    skip = min(sum(el.count for el in before), size)  # fits islice; lines <= bytes
    next(itertools.islice(fh, skip, skip), None)
    for first in range(0, count, _CHUNK_ROWS):
        want, start = min(_CHUNK_ROWS, count - first), fh.tell()
        try:
            table = _loadtxt(itertools.islice(fh, want), dtype)
        except ValueError:
            table = ()
        if len(table) < want:  # read again, the end of the body as one more blank line
            fh.seek(start)
            for row, line in enumerate(itertools.chain(itertools.islice(fh, want), [b""]), first):
                try:
                    if not len(_loadtxt([line], dtype)):
                        break
                except ValueError:
                    raise _bad_row(line, row, dtype) from None
            raise TruncatedBody(f"vertex element declares {count} rows, body holds {row}", size)
        yield first, table


def _vertex_chunks(fh, fmt, size, before, count, dtype):
    """The (first row, table) chunks of the vertex block, once the body has
    been checked to be large enough for ``count`` rows, so that a header
    that declares far more rows than the file holds raises TruncatedBody
    before parse_ply allocates the cloud."""
    offset = fh.tell()
    if fmt == "ascii":
        chunks = _ascii_chunks(fh, size, before, count, dtype)
        # A row holds at least one byte per property and a blank between
        # two; a body too small for that cannot decode, and the chunk that
        # fails says how.
        if count * (2 * len(dtype) - 1) > size - offset:
            for _ in chunks:  # raises
                pass
        return chunks
    for el in before:
        if el.has_list:
            raise UnsupportedEncoding(
                f"cannot skip list-typed element {el.name!r} before vertex", offset=offset)
        row = sum(np.dtype(t).itemsize for _, t in el.properties)
        offset += row * el.count
    need = dtype.itemsize * count
    if size - offset < need:
        raise TruncatedBody(
            f"vertex element needs {need} bytes, file has {size - offset}", offset=size)
    fh.seek(offset)
    return _binary_chunks(fh, count, dtype)


def _cast_column(table, name, dtype, first_row=0):
    """Column ``name`` cast to the integer ``dtype``; a value the cast would
    change (non-finite, fractional or out of range) raises MalformedHeader
    naming its row, counted from ``first_row`` for a chunk of the block."""
    values = table[name]
    with np.errstate(invalid="ignore"):
        cast = values.astype(dtype)
    bad = cast != values
    if bad.any():
        row = int(np.argmax(bad))
        raise MalformedHeader(f"vertex element: property {name!r} holds {values[row]} "
                              f"in row {first_row + row}, not a {np.dtype(dtype).name} value")
    return cast


def parse_ply(path) -> LabeledPointCloud:
    """Parse a labeled PLY file (ascii or binary little-endian).

    The vertex block is read from the open file; a file that cannot seek (a
    pipe) is read into memory first. Every malformed input raises a
    SceneQaError subclass.
    """
    with open(path, "rb") as fh:
        if fh.seekable():
            return _parse(fh)
        return _parse(io.BytesIO(fh.read()))


def _parse(fh) -> LabeledPointCloud:
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    fmt, elements, body_offset = _parse_header(fh)
    v_idx, vertex = _vertex_element(elements)
    if vertex.has_list:
        raise UnsupportedEncoding("list-typed vertex properties are not supported",
                                  offset=body_offset)
    try:
        dtype = np.dtype(vertex.properties)
    except ValueError as exc:
        raise MalformedHeader(f"vertex element: {exc}") from None
    for axis in ("x", "y", "z"):
        if axis not in dtype.names:
            raise MalformedHeader(f"vertex element lacks property {axis!r}")

    chunks = _vertex_chunks(fh, fmt, size, elements[:v_idx], vertex.count, dtype)

    n = vertex.count
    positions = np.empty((n, 3))
    colors = np.zeros((n, 3), dtype=np.uint8)
    semantic_labels = np.zeros(n, dtype=np.int64)
    instance_labels = np.zeros(n, dtype=np.int64)
    # (property, column it fills), in the order a bad value is reported
    casts = []
    if all(c in dtype.names for c in ("red", "green", "blue")):
        casts += [(c, colors[:, i]) for i, c in enumerate(("red", "green", "blue"))]
    for aliases, column in ((_SEMANTIC_NAMES, semantic_labels),
                            (_INSTANCE_NAMES, instance_labels)):
        casts += [(name, column) for name in aliases if name in dtype.names][:1]

    # A bad value is reported only once the whole block has read, since a
    # block that does not read is reported first; per property, its first.
    bad = {}
    for first, table in chunks:
        stop = first + len(table)
        np.stack([table["x"], table["y"], table["z"]], axis=1, out=positions[first:stop])
        for name, column in casts:
            if name not in bad:
                try:
                    column[first:stop] = _cast_column(table, name, column.dtype, first)
                except MalformedHeader as exc:
                    bad[name] = exc
    for name, _ in casts:
        if name in bad:
            raise bad[name]
    try:
        return LabeledPointCloud(positions, colors, semantic_labels, instance_labels)
    except ValueError as exc:
        raise MalformedHeader(f"vertex element: {exc}") from None


def write_ply(path, cloud: LabeledPointCloud, binary: bool = False):
    """Write a cloud back out; used by fixtures and round-trip tests."""
    n = len(cloud)
    header = [
        "ply",
        "format binary_little_endian 1.0" if binary else "format ascii 1.0",
        f"element vertex {n}",
        "property float x", "property float y", "property float z",
        "property uchar red", "property uchar green", "property uchar blue",
        "property int label", "property int instance",
        "end_header",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            dtype = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                              ("red", "u1"), ("green", "u1"), ("blue", "u1"),
                              ("label", "<i4"), ("instance", "<i4")])
            out = np.zeros(n, dtype=dtype)
            pos32 = cloud.positions.astype(np.float32)
            out["x"], out["y"], out["z"] = pos32[:, 0], pos32[:, 1], pos32[:, 2]
            out["red"], out["green"], out["blue"] = cloud.colors.T
            out["label"] = cloud.semantic_labels
            out["instance"] = cloud.instance_labels
            fh.write(out.tobytes())
        else:
            for i in range(n):
                x, y, z = (repr(float(np.float32(v))) for v in cloud.positions[i])
                r, g, b = (int(v) for v in cloud.colors[i])
                fh.write(f"{x} {y} {z} {r} {g} {b} "
                         f"{int(cloud.semantic_labels[i])} "
                         f"{int(cloud.instance_labels[i])}\n".encode("ascii"))
