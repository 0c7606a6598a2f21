"""Golden bytes: the records file of one small synthetic corpus is pinned by
its sha256, so a refactor of the generators cannot change a byte of any task
unnoticed.

The corpus has three scenes, each with a point cloud and trajectories, and
its records cover all 13 tasks at both pinned seeds, at the default
``--max-per-task`` and at a cap of 2. At the default cap only one task
fills it on this corpus; the small cap pins the ``select`` draws of every
task that uses them and route_plan's first-come stop. Each pin is checked
at ``--workers`` 1 and 2.
"""

import hashlib
import json

import numpy as np
import pytest

from synth import make_rect_cloud, make_scene, make_single_turn_waypoints, write_scene_dir
from sceneqa.cli import main
from sceneqa.qa_records import TASKS

# sha256 of the whole records file (header line included) per --seed
GOLDEN_SHA256 = {
    1: "a328a20beb017580eab6eae201dc4f7474ccb9c938e616de1d85395aa1f853ca",
    2: "1c9851aa00be0a1cd908e5bba6a06c56e05c27e53e1a987ec9d659ba724d0609",
}
# the same at --max-per-task 2
GOLDEN_SHA256_CAP_2 = {
    1: "5fa4b9e0b49f4c3e8ec9472d28e19e314fb7cb357985b98be74a6a6aee9be57a",
    2: "ec9d90c7cde25466863acd52ebc7ebf5fc645a81262e326bb3c54891e393a62a",
}


def write_golden_corpus(root):
    for i in range(3):
        scene, frames = make_scene(seed=7100 + i, scene_id=f"golden{i}")
        lo, hi = scene.scene_extents
        cloud = make_rect_cloud(7100 + i, float(hi[0] - lo[0]), float(hi[1] - lo[1]), n=2000)
        rng = np.random.default_rng(7200 + i)
        # synth draws waypoints around the origin; move them onto the room floor
        offset = np.array([scene.room_center[0], scene.room_center[1], 0.0])
        trajectories = [make_single_turn_waypoints(rng)[0] + offset for _ in range(8)]
        write_scene_dir(root, scene, frames, cloud, trajectories)
    return root


@pytest.fixture(scope="module")
def golden_root(tmp_path_factory):
    return write_golden_corpus(tmp_path_factory.mktemp("golden") / "scenes")


def records_sha256(root, out, seed, workers, *flags):
    assert main(["gen", "--input-root", str(root), "--out", str(out),
                 "--seed", str(seed), "--workers", workers, *flags]) == 0
    tasks = {json.loads(line)["task"] for line in out.read_text().splitlines()[1:]}
    assert tasks == set(TASKS)
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("seed", sorted(GOLDEN_SHA256))
def test_records_file_matches_the_golden_hash(golden_root, tmp_path, seed, workers):
    out = tmp_path / "records.jsonl"
    assert records_sha256(golden_root, out, seed, workers) == GOLDEN_SHA256[seed]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("seed", sorted(GOLDEN_SHA256_CAP_2))
def test_records_file_at_a_small_cap_matches_the_golden_hash(golden_root, tmp_path, seed,
                                                             workers):
    out = tmp_path / "records.jsonl"
    got = records_sha256(golden_root, out, seed, workers, "--max-per-task", "2")
    assert got == GOLDEN_SHA256_CAP_2[seed]
