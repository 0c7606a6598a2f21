"""The benchmark's workloads: seeded inputs, the CLI passes, the output checks.

Every input is a pure function of the workload seed and is built with the
generators in tests/synth.py. One *operation* is a scene for gen, a cloud for
ingest and a prediction for eval (which only the traced run's tail chain in
run.py makes); it fails when the CLI exits nonzero or its output does not
pass the checks below.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import synth
from sceneqa import cli
from sceneqa.errors import SceneQaError
from sceneqa.metadata import load_scene_metadata
from sceneqa.ply_io import write_ply
from sceneqa.qa_records import ANSWER_MCA, ANSWER_NA

TRAJECTORIES_PER_SCENE = 20
HULL_CLOUD_POINTS = 20_000
INGEST_CLOUDS = ("ascii", "binary", "ascii", "binary")
INGEST_INSTANCES = 100  # on a 10 x 10 grid of 2 m cells, so clusters never touch
INGEST_POINTS_PER_INSTANCE = 1_250
UNKNOWN_QID_SHARE = 0.01

# Stream tags, so that workloads sharing a seed still draw distinct inputs.
TAG_GEN_HULL, TAG_GEN_GEOM, TAG_INGEST, TAG_EVAL, TAG_TAIL = range(1, 6)


def sub_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


@dataclass
class PassCheck:
    """Outcome of the output checks on one pass."""

    attempted: int
    failed: int
    items: int  # records written, instance boxes fitted, or predictions judged
    problems: list = field(default_factory=list)
    sha256: str | None = None


def _fail_all(attempted: int, problem: str) -> PassCheck:
    return PassCheck(attempted, attempted, 0, [problem])


# --- scene corpora (gen and eval) -------------------------------------------------

def build_scene_corpus(root: Path, seed: int, tag: int, n_scenes: int,
                       cloud_points: int | None = None) -> list:
    """Write n synthetic scenes as the CLI's --input-root expects them."""
    scene_ids = []
    for i in range(n_scenes):
        s = sub_seed(seed, tag, i)
        scene_id = f"scene{i:04d}"
        scene, frames = synth.make_scene(s, scene_id)
        cloud = None
        if cloud_points:
            lo, hi = scene.scene_extents
            cloud = synth.make_rect_cloud(s, float(hi[0] - lo[0]), float(hi[1] - lo[1]),
                                          n=cloud_points)
        rng = np.random.default_rng(sub_seed(seed, tag, i, 1))
        # synth draws waypoints around the origin; real navigation trajectories
        # live in the room frame, so move them onto the room's floor centre.
        offset = np.array([scene.room_center[0], scene.room_center[1], 0.0])
        trajectories = [synth.make_single_turn_waypoints(rng)[0] + offset
                        for _ in range(TRAJECTORIES_PER_SCENE)]
        synth.write_scene_dir(root, scene, frames, cloud, trajectories)
        scene_ids.append(scene_id)
    return scene_ids


def check_records_file(path: Path, scene_ids, first_hashes: dict | None) -> tuple:
    """Checks on one written records file; returns (PassCheck, per-scene hashes).

    Per scene: its lines hash the same as in the first pass, every numeric
    truth is positive and every option truth is one of its options. For the
    whole file: it re-reads through read_records_jsonl and the header's
    record_count equals the number of record lines.
    """
    n = len(scene_ids)
    try:
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        header = json.loads(lines[0])["_header"]
        _, records = cli.read_records_jsonl(path)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return _fail_all(n, f"records file does not re-read: {exc!r}"), {}
    if not header["record_count"] == len(lines) - 1 == len(records):
        return _fail_all(n, f"header record_count {header['record_count']} but "
                            f"{len(lines) - 1} lines and {len(records)} records"), {}

    digests = {sid: hashlib.sha256() for sid in scene_ids}
    bad = {}
    for line, rec in zip(lines[1:], records):
        if rec.scene_id not in digests:
            bad.setdefault(rec.scene_id, f"record {rec.qid} names an unknown scene")
            continue
        digests[rec.scene_id].update(line)
        if rec.answer_type == ANSWER_NA and not float(rec.ground_truth) > 0:
            bad.setdefault(rec.scene_id, f"{rec.qid}: numeric truth {rec.ground_truth!r} is not > 0")
        elif rec.answer_type == ANSWER_MCA and rec.ground_truth not in rec.options:
            bad.setdefault(rec.scene_id, f"{rec.qid}: truth is not one of the options")
    hashes = {sid: d.hexdigest() for sid, d in digests.items()}
    if first_hashes is not None:
        for sid in scene_ids:
            if hashes[sid] != first_hashes.get(sid):
                bad.setdefault(sid, f"{sid}: records differ from the first pass")
    problems = sorted(bad.values())
    return PassCheck(n, len(bad), len(records), problems,
                     hashlib.sha256(raw).hexdigest()), hashes


class GenWorkload:
    """`sceneqa gen` over a scene corpus, all 13 tasks."""

    unit = "records"
    points_per_pass = 0

    def __init__(self, name, tag, n_scenes, cloud_points, workers):
        self.name, self.tag, self.n_scenes = name, tag, n_scenes
        self.cloud_points, self.workers = cloud_points, workers

    def build(self, root: Path, seed: int, run_cli):
        self.root, self.seed = root, seed
        self.scene_ids = build_scene_corpus(root / "scenes", seed, self.tag,
                                            self.n_scenes, self.cloud_points)
        self.first_hashes = None

    def invocations(self, out: Path, workers: int | None = None):
        return [["gen", "--input-root", self.root / "scenes", "--out", out / "records.jsonl",
                 "--seed", self.seed, "--workers", workers or self.workers]]

    def check(self, out: Path) -> PassCheck:
        result, hashes = check_records_file(out / "records.jsonl", self.scene_ids,
                                            self.first_hashes)
        if self.first_hashes is None and hashes:
            self.first_hashes = hashes
        return result

    def scene_dirs(self):
        return [self.root / "scenes" / sid for sid in self.scene_ids]


# --- ingest -----------------------------------------------------------------------

def planted_clusters(seed: int, tag: int, k: int, n_instances: int = INGEST_INSTANCES,
                     points: int = INGEST_POINTS_PER_INSTANCE):
    """Box-shaped clusters, one per 2 m grid cell, at most 1.8 m across."""
    rng = np.random.default_rng(sub_seed(seed, tag, k))
    clusters = []
    for idx in range(n_instances):
        gx, gy = divmod(idx, 10)
        center = [2.0 * gx + 1.0 + rng.uniform(-0.2, 0.2),
                  2.0 * gy + 1.0 + rng.uniform(-0.2, 0.2),
                  rng.uniform(0.4, 1.2)]
        size = rng.uniform(0.3, 1.4, size=3)
        semantic = int(rng.integers(0, len(synth.CATEGORIES)))
        clusters.append((idx + 1, semantic, center, size, points))
    return clusters


def write_ascii_ply(path: Path, cloud):
    """Byte-for-byte what write_ply(binary=False) writes, joined in one go
    rather than formatted row by row, so that set-up stays short."""
    header = ("ply\nformat ascii 1.0\n"
              f"element vertex {len(cloud)}\n"
              "property float x\nproperty float y\nproperty float z\n"
              "property uchar red\nproperty uchar green\nproperty uchar blue\n"
              "property int label\nproperty int instance\nend_header\n")
    pos = cloud.positions.astype(np.float32)
    cols = (pos[:, 0].tolist(), pos[:, 1].tolist(), pos[:, 2].tolist(),
            *cloud.colors.T.tolist(), cloud.semantic_labels.tolist(),
            cloud.instance_labels.tolist())
    body = "".join(f"{x!r} {y!r} {z!r} {r} {g} {b} {s} {i}\n"
                   for x, y, z, r, g, b, s, i in zip(*cols))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(body.encode("ascii"))


def write_clouds(root: Path, seed: int, tag: int, encodings, **cluster_args) -> list:
    """Write one labeled cluster cloud per encoding plus labels.json;
    returns [(scene id, path, planted clusters, points)]."""
    label_map = {str(i): cat for i, cat in enumerate(synth.CATEGORIES)}
    (root / "labels.json").write_text(json.dumps(label_map), encoding="utf-8")
    clouds = []
    for k, encoding in enumerate(encodings):
        clusters = planted_clusters(seed, tag, k, **cluster_args)
        cloud = synth.make_cluster_cloud(sub_seed(seed, tag, k, 1), clusters)
        path = root / f"cloud{k}_{encoding}.ply"
        if encoding == "ascii":
            write_ascii_ply(path, cloud)
        else:
            write_ply(path, cloud, binary=True)
        clouds.append((f"cloud{k}", path, clusters, len(cloud)))
    return clouds


def ingest_invocations(root: Path, clouds, out: Path):
    return [["ingest", "--ply", path, "--label-map", root / "labels.json",
             "--scene-id", scene_id, "--out", out / f"{scene_id}.json", "--oriented"]
            for scene_id, path, _, _ in clouds]


class IngestWorkload:
    """`sceneqa ingest --oriented` on four 125k-point clouds, two ASCII, two binary."""

    name = "ingest_mixed"
    unit = "instance records"

    def build(self, root: Path, seed: int, run_cli):
        self.root, self.seed = root, seed
        self.clouds = write_clouds(root, seed, TAG_INGEST, INGEST_CLOUDS)
        self.points_per_pass = sum(n for *_, n in self.clouds)

    def invocations(self, out: Path, workers: int | None = None):
        return ingest_invocations(self.root, self.clouds, out)

    def scene_dirs(self):
        return []

    def check(self, out: Path) -> PassCheck:
        """Per cloud: the metadata reloads, the fitted instance count equals the
        planted count, and each fitted centre lies inside its planted cluster."""
        failed, fitted, problems = 0, 0, []
        for scene_id, _, clusters, _ in self.clouds:
            problem = None
            try:
                meta = load_scene_metadata(out / f"{scene_id}.json")
            except (OSError, ValueError, SceneQaError) as exc:
                problem = f"{scene_id}: metadata does not reload: {exc!r}"
            else:
                fitted += len(meta.objects)
                planted = {c[0]: c for c in clusters}
                if len(meta.objects) != len(planted):
                    problem = (f"{scene_id}: {len(meta.objects)} instances fitted, "
                               f"{len(planted)} planted")
                for obj in meta.objects:
                    cluster = planted.get(obj.instance_id)
                    if problem is None and (cluster is None or np.any(
                            np.abs(obj.box.center - np.asarray(cluster[2])) > np.asarray(cluster[3]) / 2)):
                        problem = f"{scene_id}: instance {obj.instance_id} lies outside its cluster"
            if problem:
                failed += 1
                problems.append(problem)
        return PassCheck(len(self.clouds), failed, fitted, problems)


# --- eval (the traced run's tail chain) ------------------------------------------

# Planted answer kinds: (kind, expected status, scores 1.0).
MCA_KINDS = (
    ("letter_bare", "scored", True),
    ("letter_punctuated", "scored", True),
    ("letter_bracketed", "scored", True),
    ("option_text", "scored", True),
    ("paraphrase", "scored", True),
    ("two_letters", "ambiguous", False),
    ("unrelated", "no_match", False),
    ("missing", "missing", False),
)
NA_KINDS = (
    ("numeral_with_unit", "scored", False),
    ("no_numeral", "no_number", False),
    ("missing", "missing", False),
)
NA_WEIGHTS = (0.7, 0.15, 0.15)


def plant_answer(rec, kind: str, noise: float) -> str:
    truth = rec.ground_truth
    if kind == "numeral_with_unit":
        noisy = float(truth) * (1.0 + noise)
        return f"about {noisy:.2f} {'cm' if rec.task == 'obj_size' else 'm'}"
    if kind == "no_numeral":
        return "hard to say, a few"
    letter = chr(ord("A") + list(rec.options).index(truth))
    if kind == "letter_bare":
        return letter
    if kind == "letter_punctuated":
        return letter + "."
    if kind == "letter_bracketed":
        return f"({letter.lower()})"
    if kind == "option_text":
        return truth
    if kind == "paraphrase":
        # The option's words, reordered, after filler that matches no option.
        return "my pick: " + " ".join(reversed(truth.lower().split()))
    if kind == "two_letters":
        return "(A) or (B)"
    if kind == "unrelated":
        return "not sure"
    raise ValueError(kind)


def plant_predictions(records, seed: int, path: Path, model: int = 0) -> tuple:
    """Write one model's seeded predictions; returns
    ({qid: (status, scores_one)}, unknown qids)."""
    rng = np.random.default_rng(sub_seed(seed, TAG_EVAL, 1, model))
    n = len(records)
    na_picks = rng.choice(len(NA_KINDS), size=n, p=NA_WEIGHTS)
    mca_picks = rng.random(n)
    noise = rng.uniform(-0.4, 0.4, size=n)
    # Reordered words of an appearance_order option name another option.
    no_paraphrase = [k for k in MCA_KINDS if k[0] != "paraphrase"]
    expected, lines = {}, []
    for i, rec in enumerate(records):
        if rec.answer_type == ANSWER_NA:
            kind, status, correct = NA_KINDS[na_picks[i]]
        else:
            kinds = no_paraphrase if rec.task == "appearance_order" else MCA_KINDS
            kind, status, correct = kinds[int(mca_picks[i] * len(kinds))]
        expected[rec.qid] = (status, correct)
        if kind != "missing":
            lines.append({"qid": rec.qid, "raw_text": plant_answer(rec, kind, noise[i])})
    unknown = [f"unknown:{k:05d}" for k in range(max(1, round(UNKNOWN_QID_SHARE * len(lines))))]
    lines.extend({"qid": qid, "raw_text": "A"} for qid in unknown)
    order = rng.permutation(len(lines))
    with open(path, "w", encoding="utf-8") as fh:
        for i in order:
            fh.write(json.dumps(lines[i], sort_keys=True) + "\n")
    return expected, unknown


def check_report(path: Path, expected: dict, unknown) -> PassCheck:
    """Each record's status is the planted one, each planted-correct answer
    scores 1.0, and no unknown-qid prediction reaches the report."""
    n = len(expected) + len(unknown)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            judged = {j["qid"]: j for j in json.load(fh)["per_question"]}
    except (OSError, ValueError, KeyError) as exc:
        return _fail_all(n, f"report does not load: {exc!r}")
    failed, problems = 0, []
    for qid, (status, correct) in expected.items():
        j = judged.get(qid)
        if j is None or j.get("status") != status or (correct and j.get("score") != 1.0):
            failed += 1
            if len(problems) < 5:
                problems.append(f"{qid}: expected {status}{' 1.0' if correct else ''}, got {j}")
    for qid in unknown:
        if qid in judged:
            failed += 1
            problems.append(f"unknown qid {qid} was judged")
    return PassCheck(n, failed, len(judged), problems)


def all_workloads() -> dict:
    # Why each was chosen is recorded in BENCHMARK.json and README.md.
    wls = [
        GenWorkload("gen_hull", TAG_GEN_HULL, 12, HULL_CLOUD_POINTS, 1),
        GenWorkload("gen_geom", TAG_GEN_GEOM, 60, None, 2),
        IngestWorkload(),
    ]
    return {w.name: w for w in wls}
