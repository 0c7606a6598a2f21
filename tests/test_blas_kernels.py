"""gen's geometry and records have the same bits under every OpenBLAS kernel.

OpenBLAS picks its kernel once, when numpy loads it: from the CPU, or from
``OPENBLAS_CORETYPE`` in a DYNAMIC_ARCH build. Each kernel therefore runs in a
child process of its own, started with the variable set in its environment
only. The inputs are built once, here, and handed over pickled or as files:
``synth.upright_pose_matrix`` normalises with ``np.linalg.norm``, so inputs
built under each kernel could differ before sceneqa ever saw them.

Each child prints a digest of the ``float.hex`` of every ``vector_norm``,
``closest_point_on_box``, ``box_box_distance`` and ``object_in_camera``
value and every ``classify_camera_motion`` label on seeded inputs, and the
sha256 of a ``gen`` records file over a 3-scene synthetic corpus; every
kernel must print the same. So must the frame loader's verdict on rotations
whose deviation from orthonormal, or from determinant +1, lands just inside
and just outside ``ORTHO_TOL``.
"""

import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from synth import (make_rect_cloud, make_scene, make_single_turn_waypoints, upright_pose_matrix,
                   write_scene_dir)
from test_metadata import minimal_frames
import sceneqa
from sceneqa.geometry import ORTHO_TOL, OrientedBox3, quat_from_yaw, quat_to_matrix

SRC = str(Path(sceneqa.__file__).parents[1])
KERNELS = ("Prescott", "Haswell", "Nehalem", "SkylakeX")


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return False
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


pytestmark = pytest.mark.skipif(
    not _dynamic_openblas(), reason="needs numpy built against a DYNAMIC_ARCH OpenBLAS")


CHILD = """
import hashlib, json, pickle, sys
from sceneqa import cli
from sceneqa.geometry import box_box_distance, closest_point_on_box, vector_norm
from sceneqa.graph import build_graph, object_in_camera
from sceneqa.qa_temporal import classify_camera_motion

inputs_path, corpus, out = sys.argv[1:]
with open(inputs_path, "rb") as fh:
    inputs = pickle.load(fh)

def digest(values):
    return hashlib.sha256("\\n".join(values).encode()).hexdigest()

def hexes(values):
    return [float(x).hex() for x in values]

closest = []
for box in inputs["boxes"]:
    for p in inputs["points"]:
        point, dist = closest_point_on_box(p, box)
        closest += hexes([*point, dist])
corners = []
for scene, frames in inputs["scenes"]:
    g = build_graph(scene, frames)
    for fid in g.frame_ids():
        for iid in sorted(g.visible_in(fid)):
            corners += hexes(object_in_camera(g, fid, iid).ravel())
boxes = inputs["boxes"]
result = {
    "vector_norm": digest(hexes(vector_norm(v) for v in inputs["vectors"])),
    "closest_point_on_box": digest(closest),
    "box_box_distance": digest(hexes(box_box_distance(a, b)
                                     for a, b in zip(boxes[0::2], boxes[1::2]))),
    "object_in_camera": digest(corners),
    "classify_camera_motion": digest(str(classify_camera_motion(r, d, ratio))
                                     for r, d, ratio in inputs["motions"]),
}
code = cli.main(["gen", "--input-root", corpus, "--out", out, "--seed", "1",
                 "--workers", "1"])
with open(out, "rb") as fh:
    result["gen"] = hashlib.sha256(fh.read()).hexdigest()
result["gen_exit"] = code
print(json.dumps(result, sort_keys=True))
"""


ROTATION_CHILD = """
import json, pickle, sys
from sceneqa.errors import SchemaViolation
from sceneqa.metadata import frame_metadata_from_dict

with open(sys.argv[1], "rb") as fh:
    docs = pickle.load(fh)
verdicts = []
for doc in docs:
    try:
        frame_metadata_from_dict(doc)
        verdicts.append("accepted")
    except SchemaViolation as exc:
        verdicts.append(str(exc))
print(json.dumps(verdicts))
"""


def _unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def _inputs(rng) -> dict:
    boxes = []
    for k in range(120):
        rot = quat_from_yaw(rng.uniform(-math.pi, math.pi)) if k % 3 == 0 else _unit_quat(rng)
        boxes.append(OrientedBox3(rng.uniform(-4, 4, size=3), rng.uniform(0.2, 1.6, size=3), rot))
    # displacements at and around the dominance ratio's boundary, where a
    # rounding difference would flip the label
    motions = []
    for _ in range(300):
        ratio = rng.uniform(1.0, 3.0)
        angle = math.atan(ratio) + rng.normal(0.0, 1e-15)
        local = np.array([math.cos(angle), rng.normal(), math.sin(angle)]) * rng.uniform(0.1, 5)
        rotation = quat_to_matrix(_unit_quat(rng))
        motions.append((rotation, rotation @ local, ratio))
    return {
        "vectors": [rng.normal(size=n) * rng.uniform(1e-3, 1e3) for n in (2, 3, 4) * 200],
        "boxes": boxes,
        "points": rng.uniform(-5, 5, size=(12, 3)),
        "scenes": [make_scene(seed=seed, scene_id=f"kern{seed}") for seed in (606, 607, 608)],
        "motions": motions,
    }


def _corpus(root: Path, rng):
    for seed in (711, 712, 713):
        scene, frames = make_scene(seed=seed, scene_id=f"corpus{seed}")
        lo, hi = scene.scene_extents
        cloud = make_rect_cloud(seed, float(hi[0] - lo[0]), float(hi[1] - lo[1]), n=2000)
        offset = np.array([scene.room_center[0], scene.room_center[1], 0.0])
        trajectories = [make_single_turn_waypoints(rng)[0] + offset for _ in range(8)]
        write_scene_dir(root, scene, frames, cloud, trajectories)


def _near_tolerance_frames() -> list:
    """Frame documents whose second rotation is R diag(1 + scales), the
    scales walking its orthonormality error, or its |det - 1|, across
    ORTHO_TOL in steps of about 4 ulps of 1."""
    docs = []
    for kind in ("ortho", "det"):
        for k in range(-12, 13):
            t = ORTHO_TOL * (1.0 + k * 1e-6)
            m = upright_pose_matrix([1.0, 2.0, 1.5], 0.7, 0.1)
            m[:3, :3] *= 1.0 + np.array((t / 2, -t / 2, 0.0) if kind == "ortho" else (t / 3,) * 3)
            doc = minimal_frames()
            doc["frames"][1]["pose_c2w"] = m.reshape(-1).tolist()
            docs.append(doc)
    return docs


def _fixed_order_deviations(pose) -> tuple:
    """max |R^T R - I| and |det R - 1| of a pose's rotation, on plain floats
    by the loader's formulas: the same IEEE operations in the same order."""
    r = [pose[0:3], pose[4:7], pose[8:11]]
    ortho = max(abs((r[0][i] * r[0][j] + r[1][i] * r[1][j]) + r[2][i] * r[2][j] - (i == j))
                for i in range(3) for j in range(3))
    det = ((r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0]))
           + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))
    return ortho, abs(det - 1.0)


def _run(kernel, script, *args):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, timeout=120, env=env)


def test_gen_bits_are_the_same_under_every_openblas_kernel(tmp_path):
    rng = np.random.default_rng(2022)
    inputs_path = tmp_path / "inputs.pickle"
    with open(inputs_path, "wb") as fh:
        pickle.dump(_inputs(rng), fh)
    _corpus(tmp_path / "corpus", rng)

    results, skipped = {}, []
    for kernel in (None, *KERNELS):
        run = _run(kernel, CHILD, inputs_path, tmp_path / "corpus", tmp_path / f"{kernel}.jsonl")
        if kernel is not None and run.returncode < 0:
            skipped.append(kernel)  # killed by a signal: the CPU lacks the kernel's instructions
            continue
        assert run.returncode == 0, f"{kernel or 'default'}: {run.stderr}"
        results[kernel or "default"] = json.loads(run.stdout.splitlines()[-1])
    want = results["default"]
    assert want["gen_exit"] == 0
    differing = {kernel: sorted(k for k in want if got[k] != want[k])
                 for kernel, got in results.items() if got != want}
    assert not differing, f"differs from the default kernel: {differing}"
    if len(results) < 2:
        pytest.skip(f"the CPU runs none of the kernels {', '.join(skipped)}")


def test_rotation_verdicts_are_the_same_under_every_openblas_kernel(tmp_path):
    docs = _near_tolerance_frames()
    deviations = [_fixed_order_deviations(doc["frames"][1]["pose_c2w"]) for doc in docs]
    # each kind of probe straddles the tolerance
    for kind in (0, 1):
        assert min(d[kind] for d in deviations) < ORTHO_TOL < max(d[kind] for d in deviations)
    path = "frames[1].pose.rotation"
    want = [f"{path}: rotation is not orthonormal" if ortho > ORTHO_TOL
            else f"{path}: rotation determinant is not +1" if det > ORTHO_TOL
            else "accepted" for ortho, det in deviations]
    assert {"accepted", f"{path}: rotation is not orthonormal",
            f"{path}: rotation determinant is not +1"} <= set(want)
    docs_path = tmp_path / "frames.pickle"
    with open(docs_path, "wb") as fh:
        pickle.dump(docs, fh)

    ran, skipped = [], []
    for kernel in (None, *KERNELS):
        run = _run(kernel, ROTATION_CHILD, docs_path)
        if kernel is not None and run.returncode < 0:
            skipped.append(kernel)  # killed by a signal: the CPU lacks the kernel's instructions
            continue
        assert run.returncode == 0, f"{kernel or 'default'}: {run.stderr}"
        got = json.loads(run.stdout.splitlines()[-1])
        assert got == want, f"{kernel or 'default'}: " + ", ".join(
            f"probe {i}: {g!r}, not {w!r}" for i, (g, w) in enumerate(zip(got, want)) if g != w)
        ran.append(kernel)
    if len(ran) < 2:
        pytest.skip(f"the CPU runs none of the kernels {', '.join(skipped)}")
