"""Per-layer tracing of the sceneqa modules, done from the benchmark's side.

`instrumented()` wraps the public functions of each layer at the names their
callers look them up by, and puts the originals back afterwards; no program
file changes. A wrapped call records a span: name, start, end, parent span,
run id and scene id. Functions called once per record (`record_to_dict`,
`record_from_dict`, `match_option`, `extract_number`) get call counters
instead of spans, so that a pass does not hold a span per record; their
time therefore stays in the self time of the span that called them.

Spans stay in memory and are written out when the traced run ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass, field
from itertools import combinations
from pathlib import Path

from sceneqa import cli, evaluate, graph, qa_spatial, qa_temporal
from sceneqa.errors import TooFewFrames
from sceneqa.geometry import box_box_distance
from sceneqa.metadata import load_frame_metadata, load_scene_metadata
from sceneqa.qa_records import GenConfig

SPATIAL_TASKS = tuple(qa_spatial.SPATIAL_GENERATORS)
TEMPORAL_TASKS = tuple(qa_temporal.TEMPORAL_GENERATORS)
STATUSES = ("scored", "no_match", "ambiguous", "no_number", "missing")


def _per_layer_spec():
    """(metric name, unit, better) for every per-layer metric, in output order."""
    spec = [
        ("metadata.load_scene_metadata.s", "s", "lower"),
        ("metadata.load_frame_metadata.s", "s", "lower"),
        ("graph.build_graph.s", "s", "lower"),
        ("graph.sample_frame_sequence.s", "s", "lower"),
        ("ply_io.parse_ply.s", "s", "lower"),
        ("cli.generate_scene_records.s", "s", "lower"),
        ("cli.run_generation.self_s", "s", "lower"),
    ]
    for module, tasks in (("qa_spatial", SPATIAL_TASKS), ("qa_temporal", TEMPORAL_TASKS)):
        for task in tasks:
            spec.append((f"{module}.{task}.s", "s", "lower"))
            spec.append((f"{module}.{task}.records", "count", "higher"))
    spec += [
        ("route_plan.load_trajectories.s", "s", "lower"),
        ("route_plan.gen_route_plan.s", "s", "lower"),
        ("route_plan.records", "count", "higher"),
        ("route_plan.skipped", "count", "lower"),
        ("route_plan.useful_ratio", "ratio", "higher"),
        ("geometry.box_box_distance.calls", "count", "lower"),
        ("geometry.box_box_distance.us_per_call", "us", "lower"),
        ("graph.object_in_camera.calls", "count", "lower"),
        ("graph.object_in_camera.us_per_call", "us", "lower"),
        ("qa_records.record_to_dict.s", "s", "lower"),
        ("qa_records.record_from_dict.s", "s", "lower"),
        ("cli.write_records_jsonl.s", "s", "lower"),
        ("cli.read_records_jsonl.s", "s", "lower"),
        ("ply_io.parse_ply.ascii.s", "s", "lower"),
        ("ply_io.parse_ply.ascii.mb_per_s", "MB/s", "higher"),
        ("ply_io.parse_ply.binary.s", "s", "lower"),
        ("ply_io.parse_ply.binary.mb_per_s", "MB/s", "higher"),
        ("metadata.derive_instance_boxes.s", "s", "lower"),
        ("metadata.save_scene_metadata.s", "s", "lower"),
        ("evaluate.score_run.s", "s", "lower"),
        ("evaluate.match_option.us_per_call", "us", "lower"),
        ("evaluate.extract_number.us_per_call", "us", "lower"),
    ]
    spec += [(f"evaluate.status.{s}", "count", "higher" if s == "scored" else "lower")
             for s in STATUSES]
    spec += [
        ("evaluate.unknown_qid", "count", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return spec


PER_LAYER = _per_layer_spec()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    scene: str | None
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}  # (run, name) -> [calls, seconds]
        self.run = None
        self._scene = None
        self._stack = []

    def span(self, name, fn, scene_of=None, observe=None):
        """Wrap fn so that each call records a span; observe(result, *args)
        returns counts to attach to it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_scene = self._scene
            if scene_of is not None:
                self._scene = scene_of(*args)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.run, self._scene)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._scene = outer_scene
            if observe is not None:
                span.info.update(observe(result, *args))
            return result
        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                c = self.counters.setdefault((self.run, name), [0, 0.0])
                c[0] += 1
                c[1] += time.perf_counter() - start
        return wrapper

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")
            for (run, name), (calls, seconds) in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "run": run, "calls": calls,
                                     "seconds": seconds}, sort_keys=True) + "\n")


def _ply_format(result, path):
    with open(path, "rb") as fh:
        head = fh.read(256)
    fmt = "binary" if b"format binary" in head else "ascii"
    return {"format": fmt, "bytes": Path(path).stat().st_size, "points": len(result)}


def _route_counts(result, g, trajectories, cfg):
    records, skipped = result
    return {"records": len(records), "skipped": skipped, "trajectories": len(trajectories)}


def _score_counts(report, records, preds, *rest):
    counts = collections.Counter(j["status"] for j in report.per_question)
    known = {r.qid for r in records}
    counts["unknown_qid"] = sum(1 for p in preds if p.qid not in known)
    return dict(counts)


def _records(result, *args):
    return {"records": len(result)}


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []

    def patch(owner, key, wrapper):
        if isinstance(owner, dict):
            saved.append((owner, key, owner[key]))
            owner[key] = wrapper
        else:
            saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, wrapper)

    def span(owner, key, name, **kw):
        fn = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        patch(owner, key, tracer.span(name, fn, **kw))

    def count(owner, key, name):
        patch(owner, key, tracer.counter(name, getattr(owner, key)))

    span(cli, "cmd_gen", "cli.cmd_gen")
    span(cli, "cmd_ingest", "cli.cmd_ingest", scene_of=lambda args: args.scene_id)
    span(cli, "cmd_eval", "cli.cmd_eval")
    span(cli, "run_generation", "cli.run_generation")
    span(cli, "generate_scene_records", "cli.generate_scene_records",
         scene_of=lambda inputs, *_: Path(inputs.scene_path).parent.name)
    span(cli, "load_scene_metadata", "metadata.load_scene_metadata")
    span(cli, "load_frame_metadata", "metadata.load_frame_metadata")
    span(cli, "parse_ply", "ply_io.parse_ply", observe=_ply_format)
    span(graph, "build_graph", "graph.build_graph")
    span(graph, "sample_frame_sequence", "graph.sample_frame_sequence")
    for task in SPATIAL_TASKS:
        span(qa_spatial.SPATIAL_GENERATORS, task, f"qa_spatial.{task}", observe=_records)
    for task in TEMPORAL_TASKS:
        span(qa_temporal.TEMPORAL_GENERATORS, task, f"qa_temporal.{task}", observe=_records)
    span(cli, "load_trajectories", "route_plan.load_trajectories")
    span(cli, "gen_route_plan", "route_plan.gen_route_plan", observe=_route_counts)
    span(cli, "write_records_jsonl", "cli.write_records_jsonl")
    span(cli, "read_records_jsonl", "cli.read_records_jsonl")
    span(cli, "derive_instance_boxes", "metadata.derive_instance_boxes")
    span(cli, "save_scene_metadata", "metadata.save_scene_metadata")
    span(cli, "score_run", "evaluate.score_run", observe=_score_counts)
    count(cli, "record_to_dict", "qa_records.record_to_dict")
    count(cli, "record_from_dict", "qa_records.record_from_dict")
    count(evaluate, "match_option", "evaluate.match_option")
    count(evaluate, "extract_number", "evaluate.extract_number")
    try:
        yield tracer
    finally:
        for owner, key, original in reversed(saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def layer_metrics(tracer: Tracer, run: str) -> dict:
    """Per-layer metrics of one run id; None where the run made no such call."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s.run == run]
    by_name = collections.defaultdict(list)
    child_time = collections.defaultdict(float)
    for i, s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def total(name, where=None):
        hits = [s for s in by_name.get(name, ()) if where is None or where(s)]
        return sum(s.end - s.start for s in hits) if hits else None

    def info(name, key):
        hits = by_name.get(name, ())
        return sum(s.info.get(key, 0) for s in hits) if hits else None

    def self_time(name):
        hits = [(i, s) for i, s in spans if s.name == name]
        return sum(s.end - s.start - child_time[i] for i, s in hits) if hits else None

    def counted(name, per_call=False):
        c = tracer.counters.get((run, name))
        if not c:
            return None
        return c[1] / c[0] * 1e6 if per_call else c[1]

    def mb_per_s(fmt):
        secs = total("ply_io.parse_ply", lambda s: s.info["format"] == fmt)
        if not secs:
            return None
        size = sum(s.info["bytes"] for s in by_name["ply_io.parse_ply"] if s.info["format"] == fmt)
        return size / 1e6 / secs

    m = {
        "metadata.load_scene_metadata.s": total("metadata.load_scene_metadata"),
        "metadata.load_frame_metadata.s": total("metadata.load_frame_metadata"),
        "graph.build_graph.s": total("graph.build_graph"),
        "graph.sample_frame_sequence.s": total("graph.sample_frame_sequence"),
        "ply_io.parse_ply.s": total("ply_io.parse_ply"),
        "cli.generate_scene_records.s": total("cli.generate_scene_records"),
        "cli.run_generation.self_s": self_time("cli.run_generation"),
    }
    for module, tasks in (("qa_spatial", SPATIAL_TASKS), ("qa_temporal", TEMPORAL_TASKS)):
        for task in tasks:
            m[f"{module}.{task}.s"] = total(f"{module}.{task}")
            m[f"{module}.{task}.records"] = info(f"{module}.{task}", "records")
    routed = info("route_plan.gen_route_plan", "records")
    offered = info("route_plan.gen_route_plan", "trajectories")
    m.update({
        "route_plan.load_trajectories.s": total("route_plan.load_trajectories"),
        "route_plan.gen_route_plan.s": total("route_plan.gen_route_plan"),
        "route_plan.records": routed,
        "route_plan.skipped": info("route_plan.gen_route_plan", "skipped"),
        "route_plan.useful_ratio": routed / offered if offered else None,
        "qa_records.record_to_dict.s": counted("qa_records.record_to_dict"),
        "qa_records.record_from_dict.s": counted("qa_records.record_from_dict"),
        "cli.write_records_jsonl.s": total("cli.write_records_jsonl"),
        "cli.read_records_jsonl.s": total("cli.read_records_jsonl"),
        "ply_io.parse_ply.ascii.s": total("ply_io.parse_ply", lambda s: s.info["format"] == "ascii"),
        "ply_io.parse_ply.ascii.mb_per_s": mb_per_s("ascii"),
        "ply_io.parse_ply.binary.s": total("ply_io.parse_ply", lambda s: s.info["format"] == "binary"),
        "ply_io.parse_ply.binary.mb_per_s": mb_per_s("binary"),
        "metadata.derive_instance_boxes.s": total("metadata.derive_instance_boxes"),
        "metadata.save_scene_metadata.s": total("metadata.save_scene_metadata"),
        "evaluate.score_run.s": total("evaluate.score_run"),
        "evaluate.match_option.us_per_call": counted("evaluate.match_option", per_call=True),
        "evaluate.extract_number.us_per_call": counted("evaluate.extract_number", per_call=True),
        "evaluate.unknown_qid": info("evaluate.score_run", "unknown_qid"),
    })
    for status in STATUSES:
        m[f"evaluate.status.{status}"] = info("evaluate.score_run", status)
    return m


def probe_geometry(scene_dirs) -> dict:
    """Direct calls outside the generator tree: box_box_distance over every
    object pair of each scene, object_in_camera over every (sampled frame,
    visible object) pair."""
    cfg = GenConfig()
    pair_s = cam_s = 0.0
    pair_n = cam_n = 0
    for d in scene_dirs:
        scene = load_scene_metadata(Path(d) / "scene_metadata.json")
        frames = load_frame_metadata(Path(d) / "frame_metadata.json")
        g = graph.build_graph(scene, frames, cfg.min_bbox_area_px)
        pairs = list(combinations([o.box for o in scene.objects], 2))
        start = time.perf_counter()
        for a, b in pairs:
            box_box_distance(a, b)
        pair_s += time.perf_counter() - start
        pair_n += len(pairs)
        try:
            seq = graph.sample_frame_sequence(g, cfg.sample_frames)
        except TooFewFrames:
            seq = []
        cases = [(fid, iid) for fid in seq for iid in sorted(g.visible_in(fid))]
        start = time.perf_counter()
        for fid, iid in cases:
            graph.object_in_camera(g, fid, iid)
        cam_s += time.perf_counter() - start
        cam_n += len(cases)
    return {
        "geometry.box_box_distance.calls": pair_n,
        "geometry.box_box_distance.us_per_call": pair_s / pair_n * 1e6 if pair_n else None,
        "graph.object_in_camera.calls": cam_n,
        "graph.object_in_camera.us_per_call": cam_s / cam_n * 1e6 if cam_n else None,
    }
