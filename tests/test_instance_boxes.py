"""Instance boxes from one sort of the cloud, bit for bit against the former
per-instance masks.

``derive_instance_boxes`` groups the points with one stable sort of the
instance ids, so that each instance is a contiguous slice in file order.
Every fitted box, category and count must equal what
``oracles.reference_derive_instance_boxes`` (one boolean mask per id) gives:
the ``scene_metadata.json`` bytes are compared, oriented and axis-aligned.
Where a min or max ties 0.0 with -0.0, the extents, the scene's included,
keep the sign the former axis-0 reduction
(``oracles.reference_scene_extents``) gives.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_derive_instance_boxes, reference_scene_extents
from synth import make_cluster_cloud
from sceneqa import metadata
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


def big_cloud(seed, per_instance=1000):
    """100 instances, shuffled so that the ids interleave."""
    return shuffled(make_cluster_cloud(seed, [(i + 1, i % 9 - 2, [i % 10, i // 10, 1], [1, 1, 1],
                                               per_instance) for i in range(100)]), seed)


@pytest.mark.parametrize("scan_rows", [1, 7, 1 << 14])
def test_runs_equal_np_unique(monkeypatch, scan_rows):
    monkeypatch.setattr(metadata, "_SCAN_ROWS", scan_rows)
    rng = np.random.default_rng(scan_rows)
    for labels in (big_cloud(scan_rows, 20).instance_labels, rng.integers(0, 4, 500),
                   np.full(300, INT64_MAX), np.array([5]),
                   rng.choice([0, 1, INT64_MAX - 1, INT64_MAX], 200)):
        order = np.argsort(labels, kind="stable")
        want = np.unique(labels[order], return_index=True, return_counts=True)
        got = metadata._runs(labels, order)
        for w, g in zip(want, got):
            assert w.tolist() == g.tolist()


@pytest.mark.parametrize("seed", range(8))
def test_signed_zero_extents_match_reference(seed):
    """Which of -0.0 and 0.0 a min or max keeps depends on the reduction's
    layout; a box with a zero extent keeps the sign the reference gives."""
    rng = np.random.default_rng(seed)
    n = 200
    positions = rng.choice([-0.0, 0.0, 0.5, -1.5], size=(n, 3))
    positions[:, 2] = rng.choice([-0.0, 0.0], size=n)
    cloud = cloud_of(positions, rng.integers(0, 8, n), rng.integers(0, 40, n))
    assert_same_as_reference(cloud, min_points=1)


def bits(values) -> bytes:
    """The float64 bytes of ``values``: equal only when every sign of zero is."""
    return np.asarray(values, dtype=float).tobytes()


# A 1-D min or max and the axis-0 one break a tie between 0.0 and -0.0
# differently at some lengths (with SIMD, where the vector loop's tail
# begins), so the cases below run one instance of each length in a range.
ZERO_TIE_LENGTHS = range(8, 73)


@pytest.mark.parametrize("far", [5.0, -5.0])  # the zeros tie at the min, or at the max
def test_zero_ties_in_aligned_boxes_keep_the_former_signs(far):
    """x and y draw from {0.0, -0.0, far}, z from the two zeros alone, so a
    box centre's z is -0.0 or 0.0 as z's min and max broke their ties."""
    rng = np.random.default_rng(31)
    lengths = np.array(ZERO_TIE_LENGTHS)
    instance = np.repeat(lengths, lengths)
    positions = rng.choice([0.0, -0.0, far], size=(len(instance), 3))
    positions[:, 2] = rng.choice([0.0, -0.0], size=len(instance))
    cloud = cloud_of(positions, np.zeros(len(instance)), instance)
    assert_same_as_reference(cloud, min_points=1)
    for inst in derive_instance_boxes(cloud, LABELS, min_points=1)[0]:
        lo, hi = reference_scene_extents(positions[instance == inst.instance_id])
        assert bits(inst.box.center) == bits((lo + hi) / 2.0)
        assert bits(inst.box.size) == bits(np.maximum(hi - lo, 1e-6))


def test_zero_ties_in_oriented_boxes_keep_the_former_signs():
    """Clusters of 4m + 1 points with an exactly diagonal covariance, so the
    fitted yaw is 0: x is -0.0, 0.0 or 4.0 and y is 1.0 or -1.0, half and
    half, plus one point at their means (2, 0); z is a signed zero, which
    the unrotation leaves alone."""
    rng = np.random.default_rng(37)
    clusters = []
    for m in range(2, 19):
        x = np.concatenate([rng.choice([0.0, -0.0], 2 * m), np.full(2 * m, 4.0), [2.0]])
        y = np.concatenate([np.tile([1.0, -1.0], 2 * m), [0.0]])
        clusters.append(np.stack([x, y, rng.choice([0.0, -0.0], 4 * m + 1)], axis=1))
    positions = np.concatenate(clusters)
    instance = np.repeat(np.arange(len(clusters)), [len(c) for c in clusters])
    cloud = cloud_of(positions, np.zeros(len(instance)), instance)
    oriented = assert_same_as_reference(cloud, min_points=1)
    for inst, points in zip(oriented, clusters):
        assert inst.box.rotation.tolist() == [1.0, 0.0, 0.0, 0.0]  # yaw 0
        lo, hi = reference_scene_extents(points)
        assert bits(inst.box.center[2]) == bits((lo[2] + hi[2]) / 2.0)


@pytest.mark.parametrize("values", [(0.0, -0.0, 5.0), (0.0, -0.0, -5.0)])
def test_zero_ties_in_scene_extents_keep_the_former_signs(values):
    rng = np.random.default_rng(41)
    for n in ZERO_TIE_LENGTHS:
        points = rng.choice(values, size=(n, 3))
        meta = build_scene_metadata("s", (), points)
        lo, hi = reference_scene_extents(points)
        assert bits(meta.scene_extents) == bits((lo, hi)), n
        assert bits(meta.room_center) == bits((lo + hi) / 2.0), n


def test_oriented_fit_allocates_at_most_16_bytes_a_point():
    """The sort order (8 bytes a point) and what the sort needs besides it;
    the sorted ids and np.unique's copies came to about 42 bytes a point."""
    cloud = big_cloud(4)
    tracemalloc.start()
    try:
        derive_instance_boxes(cloud, LABELS, oriented=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cloud) == 100_000
    assert peak <= 16 * len(cloud) + 1e6, peak
