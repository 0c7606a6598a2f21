"""Question-record schema, task registry, seeded RNG streams, rounding rules.

Everything the task generators share lives here so that the spatial,
temporal and route modules stay independent of each other. Each of the 13
generators builds its records through one ``TaskRecords(scene_id, task,
cfg)``: the qid counter is a record's position in its task's list, and
every random draw comes from the stream named ``(seed, scene_id, task,
*parts)``. A ``QaRecord`` checks its own invariants when it is made, so no
record, generated or read back, skips ``validate_record``.

The stream ``TaskRecords.rng(*parts)`` is derived in four steps, so that
another implementation can reproduce every draw:

1. name = ``":".join([str(seed), scene_id, task, *map(str, parts)])``,
   e.g. ``"1:scene0003:rel_dir:select"``;
2. digest = SHA-256 of the name's UTF-8 bytes (32 bytes);
3. words = the digest read as eight little-endian uint32 words;
4. ``numpy.random.Generator(PCG64(SeedSequence(words)))``; passing the
   words as a list of eight Python ints gives the same state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .frozen import Frozen, set_field

# Canonical task order; also the sort order of generated record files.
TASKS = (
    "obj_count",
    "abs_dist",
    "rel_dist",
    "rel_dir",
    "obj_size",
    "room_size",
    "appearance_order",
    "route_plan",
    "cam_obj_abs_dist",
    "cam_obj_rel_dist",
    "obj_obj_rel_pos",
    "cam_displacement",
    "cam_move_dir",
)
TASK_ORDER = {t: i for i, t in enumerate(TASKS)}

ANSWER_NA = "NA"
ANSWER_MCA = "MCA"

# The multiple-choice tasks, with their fixed option arity; every other task
# is NA. obj_obj_rel_pos is binary (one option per side of the compared axis).
MCA_OPTION_COUNTS = {
    "rel_dist": 4,
    "rel_dir": 3,
    "appearance_order": 4,
    "route_plan": 3,
    "cam_obj_rel_dist": 4,
    "obj_obj_rel_pos": 2,
    "cam_move_dir": 4,
}


class QaRecord(Frozen):
    """One question: ``answer_type`` is "NA" or "MCA", ``options`` a tuple
    of strings or None, and ``meta`` a fresh ``{}`` when not given. Made
    only when it passes ``validate_record``."""

    __slots__ = _fields = ("qid", "scene_id", "task", "answer_type", "question", "options",
                           "ground_truth", "frame_refs", "meta")

    def __init__(self, qid: str, scene_id: str, task: str, answer_type: str, question: str,
                 options: tuple | None, ground_truth: str, frame_refs: tuple,
                 meta: dict | None = None):
        set_field(self, "qid", qid)
        set_field(self, "scene_id", scene_id)
        set_field(self, "task", task)
        set_field(self, "answer_type", answer_type)
        set_field(self, "question", question)
        set_field(self, "options", options)
        set_field(self, "ground_truth", ground_truth)
        set_field(self, "frame_refs", frame_refs)
        set_field(self, "meta", {} if meta is None else meta)
        validate_record(self)


def validate_record(rec: QaRecord):
    """Enforce the record invariants; raises ValueError on violation."""
    if not isinstance(rec.task, str) or rec.task not in TASK_ORDER:
        raise ValueError(f"unknown task {rec.task!r}")
    if rec.answer_type not in (ANSWER_MCA, ANSWER_NA):
        raise ValueError(f"unknown answer type {rec.answer_type!r}")
    want = MCA_OPTION_COUNTS.get(rec.task)  # a task is MCA exactly when it has a count
    if (rec.answer_type == ANSWER_MCA) != (want is not None):
        raise ValueError(f"{rec.task} is an {'MCA' if want else 'NA'} task, not {rec.answer_type}")
    if rec.answer_type == ANSWER_MCA:
        if not rec.options:
            raise ValueError("MCA record without options")
        if len(set(rec.options)) != len(rec.options):
            raise ValueError("MCA options are not pairwise distinct")
        if rec.ground_truth not in rec.options:
            raise ValueError("MCA ground truth not among options")
        if len(rec.options) != want:
            raise ValueError(f"{rec.task} expects {want} options, got {len(rec.options)}")
    else:
        if rec.options:
            raise ValueError("NA record must not carry options")
        try:
            value = float(rec.ground_truth)
        except ValueError:
            raise ValueError("NA ground truth does not parse as a number") from None
        if not value > 0:
            raise ValueError(f"NA ground truth must be positive, got {rec.ground_truth!r}")
        if not math.isfinite(value):
            raise ValueError(f"NA ground truth must be finite, got {rec.ground_truth!r}")


def record_to_dict(rec: QaRecord) -> dict:
    doc = {
        "qid": rec.qid,
        "scene_id": rec.scene_id,
        "task": rec.task,
        "answer_type": rec.answer_type,
        "question": rec.question,
        "ground_truth": rec.ground_truth,
        "frame_refs": list(rec.frame_refs),
        "meta": rec.meta,
    }
    if rec.options is not None:
        doc["options"] = list(rec.options)
    return doc


def record_from_dict(doc: dict) -> QaRecord:
    """The validated record of one decoded line; raises KeyError for a
    missing field and ValueError for a wrongly typed or invalid one."""
    for name in ("qid", "scene_id", "task", "answer_type", "question", "ground_truth"):
        if not isinstance(doc[name], str):
            raise ValueError(f"{name} must be a string, got {doc[name]!r}")
    options = doc.get("options", [])
    if not (isinstance(options, list) and all(isinstance(o, str) for o in options)):
        raise ValueError(f"options must be a list of strings, got {options!r}")
    frame_refs = doc["frame_refs"]
    if not (isinstance(frame_refs, list)
            and all(isinstance(f, int) and not isinstance(f, bool) for f in frame_refs)):
        raise ValueError(f"frame_refs must be a list of integers, got {frame_refs!r}")
    if not isinstance(doc.get("meta", {}), dict):
        raise ValueError(f"meta must be an object, got {doc['meta']!r}")
    return QaRecord(doc["qid"], doc["scene_id"], doc["task"], doc["answer_type"],
                    doc["question"], tuple(options) if "options" in doc else None,
                    doc["ground_truth"], tuple(frame_refs), doc.get("meta", {}))


def make_qid(scene_id: str, task: str, counter: int) -> str:
    return f"{scene_id}:{task}:{counter:04d}"


# GenConfig field annotation -> (accepted types, description); a bool is
# accepted only for a bool field, and a float field must be finite
_FIELD_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a finite number"),
                "bool": (bool, "true or false")}


@dataclass(frozen=True)
class GenConfig:
    """Generator thresholds and seed material.

    The task definitions leave margins and bins open; these values
    make answers robust to annotation noise and are written into the
    records header so downstream consumers can audit them.
    """

    seed: int = 0
    ambiguity_margin_m: float = 0.15   # winner-vs-runner-up gap for rel-dist tasks
    min_pair_dist_m: float = 0.1       # discard near-touching object pairs
    rel_dir_front_deg: float = 30.0    # |angle| below this -> front cone, discarded
    rel_dir_back_deg: float = 150.0    # |angle| at or above this -> "back"
    min_planar_dist_m: float = 0.3     # observer-to-query minimum planar distance
    appearance_gap_frames: int = 5     # min first-seen separation for order questions
    interval_gap_m: float = 0.15       # axis-interval separation for relative position
    min_displacement_m: float = 0.5    # minimum camera travel for motion questions
    dominance_ratio: float = 1.5       # dominant-axis ratio for movement direction
    sample_frames: int = 32            # frames drawn per scene for temporal tasks
    max_per_task: int = 64             # per-scene cap on emitted records per task
    min_bbox_area_px: float = 400.0    # graph visibility filter
    turn_threshold_deg: float = 30.0   # heading change that makes a turn
    alt_turn_threshold_deg: float = 45.0  # alternative-template eligibility
    turn_noise_floor_deg: float = 5.0  # per-junction jitter ignored by clustering
    turn_window_segments: int = 3      # jitter-merge window (consecutive segments)
    max_anchor_dist_m: float = 2.0     # route anchors farther than this are unusable
    route_alternative_mode: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kinds, wanted = _FIELD_KINDS[f.type]
            if (not isinstance(value, kinds) or (isinstance(value, bool) and kinds is not bool)
                    or (f.type == "float" and not abs(value) <= sys.float_info.max)):
                raise ValueError(f"{f.name} must be {wanted}, got {value!r}")
        for name in ("ambiguity_margin_m", "min_pair_dist_m", "rel_dir_front_deg",
                     "rel_dir_back_deg", "min_planar_dist_m", "interval_gap_m",
                     "min_displacement_m", "dominance_ratio", "turn_threshold_deg",
                     "alt_turn_threshold_deg", "max_anchor_dist_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name, least in (("appearance_gap_frames", 1), ("sample_frames", 2),
                            ("max_per_task", 1), ("turn_window_segments", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")


def round_tenth(value: float) -> str:
    """Round to 0.1 with ties away from zero; stable one-decimal text."""
    scaled = np.floor(value * 10.0 + 0.5)
    return f"{scaled / 10.0:.1f}"


def round_unit(value: float) -> str:
    """Round to the nearest integer with ties up; stable integer text."""
    return str(int(np.floor(value + 0.5)))


class TaskRecords:
    """The records one generator emits for one task in one scene, numbered
    in emitted order, and the task's named RNG streams."""

    def __init__(self, scene_id: str, task: str, cfg: GenConfig):
        self.scene_id, self.task, self.cfg = scene_id, task, cfg
        self.records = []

    def add(self, answer_type: str, question: str, truth: str, options=None,
            frame_refs=(), meta=None) -> QaRecord:
        """Append the next record and return it; raises ValueError, adding
        nothing, on a record that breaks the invariants of ``validate_record``."""
        rec = QaRecord(make_qid(self.scene_id, self.task, len(self.records)), self.scene_id,
                       self.task, answer_type, question,
                       tuple(options) if options is not None else None, truth,
                       tuple(frame_refs), meta or {})
        self.records.append(rec)
        return rec

    def rng(self, *parts) -> np.random.Generator:
        """The task's RNG stream named by ``parts``.

        The stream identity is the SHA-256 of the seed, scene_id, task and
        all name parts, so every such combination gets its own generator and
        the draw sequence never depends on scheduling or on questions
        discarded elsewhere. The module docstring spells out the derivation.
        """
        import hashlib  # here, not at module level: loading OpenSSL costs every command memory

        name = ":".join([str(self.cfg.seed), self.scene_id, self.task, *map(str, parts)])
        # SeedSequence takes the uint32 words as they are; a list of the same
        # words (one word per int, zeros included) gives the same state, only
        # slower, since it is turned back into this array
        words = np.frombuffer(hashlib.sha256(name.encode("utf-8")).digest(), dtype="<u4")
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))

    def until_full(self, items):
        """``items`` in order while the task holds fewer than ``max_per_task``
        records (first come, first kept); none is pulled once it is full."""
        if len(self.records) >= self.cfg.max_per_task:
            return
        for item in items:
            yield item  # resumed once the caller's loop body has run
            if len(self.records) >= self.cfg.max_per_task:
                return

    def select(self, cases) -> list:
        """At most ``max_per_task`` of ``cases``, in order, drawn from the
        task's ``"select"`` stream."""
        cases, limit = list(cases), self.cfg.max_per_task
        if len(cases) <= limit:
            return cases
        picks = sorted(self.rng("select").choice(len(cases), size=limit, replace=False).tolist())
        return [cases[i] for i in picks]
