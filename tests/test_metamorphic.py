"""Metamorphic relations over the golden corpus (Chen, Cheung & Yiu,
"Metamorphic testing", 1998): a transform of the inputs whose effect on
the records is known, so that a convention slip shows without an oracle.

- An exact 90 degree yaw about +Z: every coordinate maps without rounding,
  and the records file stays byte-identical.
- Instance ids relabelled by a non-monotone permutation: the record lines
  stay identical once the ids in ``meta`` are mapped back.
- A mirror x -> -x: every left/right truth swaps, the signed angles in
  ``meta`` change sign, and every other byte stays as it was.

All three run on the corpus of ``test_golden_records.write_golden_corpus`` at
seed 1, which has every task, a cloud and trajectories in each scene.
"""

import json
import math

import numpy as np
import pytest

from test_golden_records import write_golden_corpus
from sceneqa.cli import main
from sceneqa.ply_io import LabeledPointCloud, parse_ply, write_ply

SEED = 1
# the meta keys that hold instance ids, alone or in a list
ID_KEYS = ("pair", "target", "candidates", "standing_at", "facing", "query", "instance")


def generate(root, out) -> bytes:
    assert main(["gen", "--input-root", str(root), "--out", str(out),
                 "--seed", str(SEED)]) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """(scenes root, records file bytes) of the untransformed corpus."""
    tmp = tmp_path_factory.mktemp("metamorphic")
    root = write_golden_corpus(tmp / "scenes")
    return root, generate(root, tmp / "records.jsonl")


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def transform_corpus(src, dst, scene_fn, frames_fn, waypoint_fn=None, position_fn=None):
    """A copy of the corpus at ``src`` with each scene's metadata documents,
    trajectory waypoints and cloud positions passed through the functions."""
    for scene_dir in sorted(src.iterdir()):
        out = dst / scene_dir.name
        out.mkdir(parents=True)
        for name, fn in (("scene_metadata.json", scene_fn), ("frame_metadata.json", frames_fn)):
            write_json(out / name, fn(read_json(scene_dir / name)))
        lines = []
        for line in (scene_dir / "trajectories.jsonl").read_text().splitlines():
            doc = json.loads(line)
            if waypoint_fn is not None:
                doc["waypoints"] = [waypoint_fn(w) for w in doc["waypoints"]]
            lines.append(json.dumps(doc) + "\n")
        (out / "trajectories.jsonl").write_text("".join(lines))
        cloud = parse_ply(scene_dir / "cloud.ply")
        if position_fn is not None:
            cloud = LabeledPointCloud(position_fn(cloud.positions), cloud.colors,
                                      cloud.semantic_labels, cloud.instance_labels)
        write_ply(out / "cloud.ply", cloud, binary=True)
    return dst


# --- an exact 90 degree yaw about +Z ----------------------------------------------------

def turn(p):
    """(x, y, z) -> (-y, x, z), exact; a 2-vector turns the same way."""
    x, y, *rest = p
    return [-y, x, *rest]


def yaw_scene(doc):
    c = math.sqrt(0.5)  # (c, 0, 0, c) is the quarter turn about +Z
    for o in doc["objects"]:
        o["center"] = turn(o["center"])
        w, x, y, z = o["rotation"]  # left-multiplied by (c, 0, 0, c)
        o["rotation"] = [c * w - c * z, c * x - c * y, c * y + c * x, c * z + c * w]
    (x0, y0, z0), (x1, y1, z1) = doc["scene_extents"]["min"], doc["scene_extents"]["max"]
    doc["scene_extents"] = {"min": [-y1, x0, z0], "max": [-y0, x1, z1]}
    doc["room_center"] = turn(doc["room_center"])
    return doc


def yaw_frames(doc):
    for fr in doc["frames"]:
        p = fr["pose_c2w"]  # row-major 4x4; Rz @ pose with the integer Rz
        fr["pose_c2w"] = [-v for v in p[4:8]] + p[0:4] + p[8:]
    return doc  # the image boxes stay as they are


def test_an_exact_quarter_yaw_leaves_every_record_byte_identical(golden, tmp_path):
    root, want = golden
    turned = transform_corpus(root, tmp_path / "scenes", yaw_scene, yaw_frames, turn,
                              lambda pos: np.column_stack([-pos[:, 1], pos[:, 0], pos[:, 2]]))
    got = generate(turned, tmp_path / "records.jsonl")
    assert len(want.splitlines()) > 700  # a header and every task's records
    assert got.splitlines() == want.splitlines()


# --- instance ids relabelled ----------------------------------------------------------

def relabelling(scene_doc) -> dict:
    """Old id -> new id: a seeded permutation of the scene's ids, neither
    increasing nor decreasing, onto values the scene did not use."""
    ids = sorted(o["instance_id"] for o in scene_doc["objects"])
    perm = np.random.default_rng(len(ids)).permutation(len(ids)).tolist()
    new = [1000 + 3 * k for k in perm]
    assert new != sorted(new) and new != sorted(new, reverse=True)
    return dict(zip(ids, new))


def test_relabelled_instance_ids_change_only_the_ids_in_meta(golden, tmp_path):
    root, want = golden
    mappings = {}

    def scene_fn(doc):
        mappings[doc["scene_id"]] = mapping = relabelling(doc)
        for o in doc["objects"]:
            o["instance_id"] = mapping[o["instance_id"]]
        return doc

    def frames_fn(doc):
        mapping = mappings[doc["scene_id"]]
        for fr in doc["frames"]:
            for v in fr["visible_objects"]:
                v["instance_id"] = mapping[v["instance_id"]]
        return doc

    relabelled = transform_corpus(root, tmp_path / "scenes", scene_fn, frames_fn)
    got = generate(relabelled, tmp_path / "records.jsonl").decode().splitlines()
    want = want.decode().splitlines()
    assert got[0] == want[0] and len(got) == len(want)  # the header, and the count
    changed = 0
    for line, original in zip(got[1:], want[1:]):
        doc = json.loads(line)
        back = {new: old for old, new in mappings[doc["scene_id"]].items()}
        meta = doc["meta"]
        for key in ID_KEYS:
            if key in meta:
                meta[key] = ([back[i] for i in meta[key]] if isinstance(meta[key], list)
                             else back[meta[key]])
        mapped = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert mapped == original
        changed += line != original
    assert changed > 0  # the relation is not vacuous: ids did reach the records


# --- a mirror x -> -x -----------------------------------------------------------------

# Every left/right answer, and the left/right words a record's meta holds.
SWAP = {"left": "right", "right": "left", "Left": "Right", "Right": "Left",
        "turn left": "turn right", "turn right": "turn left",
        "TurnLeft": "TurnRight", "TurnRight": "TurnLeft"}


def mirror(p):
    """(x, ...) -> (-x, ...), exact."""
    x, *rest = p
    return [-x, *rest]


def mirror_scene(doc):
    for o in doc["objects"]:
        o["center"] = mirror(o["center"])
        w, x, y, z = o["rotation"]  # S R S with S = diag(-1, 1, 1)
        o["rotation"] = [w, x, -y, -z]
    lo, hi = doc["scene_extents"]["min"], doc["scene_extents"]["max"]
    lo[0], hi[0] = -hi[0], -lo[0]
    doc["room_center"] = mirror(doc["room_center"])
    return doc


def mirror_frames(doc):
    intrinsics = doc["intrinsics"]
    width = intrinsics["width"]
    intrinsics["cx"] = width - intrinsics["cx"]
    for fr in doc["frames"]:
        p = fr["pose_c2w"]  # row-major 4x4: S R S, and the position's x negated
        for i in (1, 2, 3, 4, 8):
            p[i] = -p[i]
        for v in fr["visible_objects"]:  # the image mirrored about its vertical centre line
            x0, y0, x1, y1 = v["bbox_2d"]
            v["bbox_2d"] = [width - x1, y0, width - x0, y1]
    return doc


def mirrored_record(doc) -> dict:
    """The record that the mirrored corpus is expected to hold in place of ``doc``."""
    task, meta = doc["task"], doc["meta"]
    if task in ("rel_dir", "cam_move_dir", "route_plan") or meta.get("axis") == "left_right":
        doc["ground_truth"] = SWAP.get(doc["ground_truth"], doc["ground_truth"])
    for key in ("kind", "primary_action"):  # route_plan's turn, named in its meta
        if key in meta:
            meta[key] = SWAP.get(meta[key], meta[key])
    for key in ("angle_deg", "turn_angle_deg"):
        if meta.get(key):  # a turn-back route's 0.0 keeps its sign
            meta[key] = -meta[key]
    return doc


def test_a_mirror_swaps_every_left_right_truth_and_nothing_else(golden, tmp_path):
    root, want = golden
    flipped = transform_corpus(root, tmp_path / "scenes", mirror_scene, mirror_frames, mirror,
                               lambda pos: pos * np.array([-1.0, 1.0, 1.0], pos.dtype))
    got = generate(flipped, tmp_path / "records.jsonl").decode().splitlines()
    want = want.decode().splitlines()
    assert got[0] == want[0] and len(got) == len(want)  # the header, and the count
    swapped = {}
    for line, original in zip(got[1:], want[1:]):
        doc = json.loads(original)
        truth = doc["ground_truth"]
        expected = json.dumps(mirrored_record(doc), sort_keys=True, separators=(",", ":"))
        assert line == expected, (line, original)
        if doc["ground_truth"] != truth:
            swapped[doc["task"]] = swapped.get(doc["task"], 0) + 1
    # not vacuous: each task with a left/right answer swapped some of its truths
    assert sorted(swapped) == ["cam_move_dir", "obj_obj_rel_pos", "rel_dir", "route_plan"]
