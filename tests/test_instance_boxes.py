"""Instance boxes from one sort of the cloud, bit for bit against the former
per-instance masks.

``derive_instance_boxes`` groups the points with one stable sort of the
instance ids, so that each instance is a contiguous slice in file order.
Every fitted box, category and count must equal what
``oracles.reference_derive_instance_boxes`` (one boolean mask per id) gives:
the ``scene_metadata.json`` bytes are compared, oriented and axis-aligned.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_derive_instance_boxes
from synth import make_cluster_cloud
from sceneqa.errors import EmptyAfterFiltering
from sceneqa.metadata import build_scene_metadata, derive_instance_boxes, scene_metadata_to_dict
from sceneqa.ply_io import LabeledPointCloud

INT64_MAX = np.iinfo(np.int64).max
LABELS = {-2: "rug", 0: "wall", 4: "chair", 7: "table"}


def cloud_of(positions, semantic, instance) -> LabeledPointCloud:
    positions = np.asarray(positions, dtype=float)
    return LabeledPointCloud(positions, np.zeros((len(positions), 3), dtype=np.uint8),
                             np.asarray(semantic, dtype=np.int64),
                             np.asarray(instance, dtype=np.int64))


def shuffled(cloud, seed) -> LabeledPointCloud:
    """The same points in a random order, so instances interleave."""
    perm = np.random.default_rng(seed).permutation(len(cloud))
    return cloud_of(cloud.positions[perm], cloud.semantic_labels[perm],
                    cloud.instance_labels[perm])


def scene_bytes(objects, cloud) -> bytes:
    meta = build_scene_metadata("s", objects, cloud.positions)
    return json.dumps(scene_metadata_to_dict(meta), sort_keys=True, indent=1).encode()


def assert_same_as_reference(cloud, label_map=LABELS, min_points=50):
    """Both fits give the same bytes, oriented and axis-aligned, and the
    dropped count is every other distinct id; returns the instances."""
    distinct = len(set(cloud.instance_labels.tolist()))
    for oriented in (False, True):
        want = reference_derive_instance_boxes(cloud, label_map, min_points, oriented)
        got, dropped = derive_instance_boxes(cloud, label_map, min_points, oriented)
        assert scene_bytes(got, cloud) == scene_bytes(want, cloud)
        assert dropped == distinct - len(got)
    return got


@pytest.mark.parametrize("seed", [3, 17, 101])
def test_shuffled_cluster_cloud_matches_reference(seed):
    rng = np.random.default_rng(seed)
    clusters = [(inst, int(rng.choice([-2, 0, 4, 7, 9])), rng.uniform(-5, 5, size=3),
                 rng.uniform(0.2, 2.0, size=3), int(rng.integers(20, 200)))
                for inst in range(1, 13)]
    cloud = make_cluster_cloud(seed, clusters)
    assert_same_as_reference(cloud)
    assert_same_as_reference(shuffled(cloud, seed))


def test_extreme_instance_ids_match_reference():
    cloud = shuffled(make_cluster_cloud(5, [(0, 4, [0, 0, 0], [1, 1, 1], 80),
                                            (INT64_MAX - 1, 7, [3, 0, 0], [1, 2, 1], 80),
                                            (INT64_MAX, 0, [0, 3, 0], [2, 1, 1], 80)]), 5)
    boxes = assert_same_as_reference(cloud)
    assert [b.instance_id for b in boxes] == [0, INT64_MAX - 1, INT64_MAX]


def test_negative_semantic_labels_match_reference():
    cloud = shuffled(make_cluster_cloud(8, [(1, -2, [0, 0, 0], [1, 1, 1], 60),
                                            (2, -9, [3, 0, 0], [1, 1, 1], 60)]), 8)
    boxes = assert_same_as_reference(cloud)
    assert [b.category for b in boxes] == ["rug", "class_-9"]


def test_majority_tie_goes_to_the_smallest_label():
    rng = np.random.default_rng(12)
    semantic = [7] * 30 + [4] * 30 + [-2] * 29 + [0] * 30
    cloud = cloud_of(rng.uniform(0, 1, size=(len(semantic), 3)), semantic, [3] * len(semantic))
    [box] = assert_same_as_reference(shuffled(cloud, 12))
    assert box.category == "wall"  # 0, 4 and 7 tie at 30 points; 0 is smallest


def test_instances_at_and_below_min_points():
    cloud = shuffled(make_cluster_cloud(21, [(1, 4, [0, 0, 0], [1, 1, 1], 50),
                                             (2, 7, [3, 0, 0], [1, 1, 1], 49),
                                             (3, 0, [0, 3, 0], [1, 1, 1], 51)]), 21)
    boxes = assert_same_as_reference(cloud, min_points=50)
    assert [b.instance_id for b in boxes] == [1, 3]


def test_one_instance_cloud_matches_reference():
    cloud = make_cluster_cloud(2, [(6, 7, [1, 2, 0.5], [0.4, 1.5, 1], 120)])
    [box] = assert_same_as_reference(cloud)
    assert (box.instance_id, box.category) == (6, "table")


def test_all_dropped_raises_like_reference():
    cloud = shuffled(make_cluster_cloud(4, [(1, 4, [0, 0, 0], [1, 1, 1], 30),
                                            (2, 7, [3, 0, 0], [1, 1, 1], 49)]), 4)
    for oriented in (False, True):
        with pytest.raises(EmptyAfterFiltering):
            reference_derive_instance_boxes(cloud, LABELS, 50, oriented)
        with pytest.raises(EmptyAfterFiltering):
            derive_instance_boxes(cloud, LABELS, 50, oriented)


_INSTANCE_ID = st.sampled_from([0, 1, 2, 3, 17, INT64_MAX - 1, INT64_MAX])
_SEMANTIC = st.integers(-3, 8)


@st.composite
def labeled_clouds(draw):
    """Up to five instances of up to 12 points around min_points, with few
    semantic labels (so majority ties happen), in a shuffled order."""
    min_points = draw(st.integers(1, 8))
    ids = draw(st.lists(_INSTANCE_ID, min_size=1, max_size=5, unique=True))
    semantic, instance = [], []
    for inst in ids:
        sems = draw(st.lists(_SEMANTIC, min_size=1, max_size=12))
        semantic += sems
        instance += [inst] * len(sems)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    positions = rng.uniform(-3, 3, size=(len(semantic), 3))
    if draw(st.booleans()):  # planar blobs: the 1e-6 size floor
        positions[:, 2] = 0.5
    return shuffled(cloud_of(positions, semantic, instance), rng.integers(2 ** 32)), min_points


@settings(max_examples=200, deadline=None, database=None)
@given(case=labeled_clouds())
def test_instance_boxes_match_reference_fuzzed(case):
    cloud, min_points = case
    try:
        reference_derive_instance_boxes(cloud, LABELS, min_points)
    except EmptyAfterFiltering:
        with pytest.raises(EmptyAfterFiltering):
            derive_instance_boxes(cloud, LABELS, min_points)
        return
    assert_same_as_reference(cloud, min_points=min_points)
