"""Command-line surface: ingest -> gen -> eval -> stats, plus fusion-check.

Exit codes: 0 success, 2 input error (missing/unreadable/malformed files),
3 evaluation error, 4 a gen worker process that ended abruptly. All outputs
are deterministic: ``gen --workers N`` runs the parent process plus N - 1
helpers, which claim scenes from one shared counter. Each worker appends
each scene's block of JSON lines, sorted by (task order, qid), to a spool
file of its own in a temporary directory beside ``--out``, and hands back
only where the block lies. The parent sorts that index by scene_id, which
must be unique, and then copies the blocks into ``--out`` one at a time, so
the worker count never changes the bytes on disk and the parent never holds
more than one block.

Every generated artifact starts with a header line ``{"_header": {...}}``
carrying the resolved configuration; readers in this package skip it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import os
import shutil
import sys
import tempfile
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from . import graph as graph_mod
from . import qa_spatial, qa_temporal
from .errors import DanglingInstanceRef, DuplicateQid, InputError, SceneQaError, WorkerDied
from .evaluate import Prediction, render_table, score_run
from .metadata import (
    DEFAULT_MIN_POINTS,
    build_scene_metadata,
    derive_instance_boxes,
    iter_jsonl,
    load_frame_metadata,
    load_scene_metadata,
    read_jsonl,
    save_scene_metadata,
)
from .ply_io import parse_ply
from .qa_records import TASKS, GenConfig, record_from_dict, record_to_dict
from .route_plan import gen_route_plan, load_trajectories

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EVAL = 3
EXIT_WORKER = 4


def _load(path, loader):
    """``loader(path)``, with any parse or decode failure named by path."""
    try:
        return loader(path)
    except (SceneQaError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- record file helpers ------------------------------------------------------

# The bytes of json.dumps(doc, sort_keys=True, separators=(",", ":")),
# without building an encoder per call.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _dump_line(doc: dict) -> str:
    return _encode(doc) + "\n"


def write_records_jsonl(path, index, header: dict):
    """The header line, then each scene's block of record lines, copied in
    ``index`` order from the spool files that run_generation's index names."""
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open(path, "wb"))
        out.write(_dump_line({"_header": header}).encode())
        spools = {}
        for *_, spool, offset, length in index:
            if spool not in spools:
                spools[spool] = stack.enter_context(open(spool, "rb"))
            spools[spool].seek(offset)
            out.write(spools[spool].read(length))


def read_records_jsonl(path):
    """Returns (header dict or None, list of validated QaRecords)."""
    return read_jsonl(path, record_from_dict)


# --- generation pipeline ------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SceneInputs:
    scene_path: str
    frames_path: str
    cloud_path: str | None = None
    trajectories_path: str | None = None


def discover_scenes(root) -> list[SceneInputs]:
    """Scan an input root: one subdirectory per scene with the metadata pair
    and optional cloud.ply / trajectories.jsonl."""
    root = Path(root)
    scenes = []
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        scene = sub / "scene_metadata.json"
        frames = sub / "frame_metadata.json"
        if not (scene.exists() and frames.exists()):
            continue
        cloud = sub / "cloud.ply"
        traj = sub / "trajectories.jsonl"
        scenes.append(SceneInputs(
            str(scene), str(frames),
            str(cloud) if cloud.exists() else None,
            str(traj) if traj.exists() else None,
        ))
    return scenes


def _route_plan(ctx, cfg: GenConfig):
    records, _ = gen_route_plan(ctx.graph, ctx.trajectories, cfg)
    return records


def task_generators() -> dict:
    """Task name -> ``gen(ctx, cfg)``, read from the registries at call time."""
    return {**qa_spatial.SPATIAL_GENERATORS, **qa_temporal.TEMPORAL_GENERATORS,
            "route_plan": _route_plan}


def generate_scene_records(inputs: SceneInputs, cfg: GenConfig, tasks,
                           dump_dir=None) -> tuple:
    """All requested records for one scene, from one scene context, as
    ``(scene_id, record count, text)``: the JSON lines sorted by (task order,
    qid) and joined. With ``dump_dir`` the graph is written there too."""
    scene = _load(inputs.scene_path, load_scene_metadata)
    frames = _load(inputs.frames_path, load_frame_metadata)
    try:
        g = graph_mod.build_graph(scene, frames, cfg.min_bbox_area_px)
    except DanglingInstanceRef as exc:
        raise InputError(f"{inputs.frames_path}: {exc}") from None
    cloud = None
    if "room_size" in tasks and inputs.cloud_path:
        cloud = _load(inputs.cloud_path, parse_ply)
    trajectories = ()
    if "route_plan" in tasks and inputs.trajectories_path:
        trajectories = [t for sid, t in load_trajectories(inputs.trajectories_path)
                        if sid == scene.scene_id]
    ctx = graph_mod.scene_context(g, cfg.sample_frames, cloud, trajectories)

    if dump_dir is not None:
        with open(Path(dump_dir) / f"{scene.scene_id}.json", "w", encoding="utf-8") as fh:
            json.dump(graph_mod.graph_to_dict(g), fh, sort_keys=True, indent=1)
            fh.write("\n")

    generators = task_generators()
    lines = []
    for task in (t for t in TASKS if t in tasks):  # TASKS is in task order
        try:  # a truth that breaks the record invariants, e.g. an overflowing distance
            records = generators[task](ctx, cfg)
        except ValueError as exc:
            raise InputError(f"{inputs.scene_path}: {task}: {exc}") from None
        lines += [_dump_line(record_to_dict(rec))
                  for rec in sorted(records, key=attrgetter("qid"))]
    return scene.scene_id, len(lines), "".join(lines)


# The (jobs, claim counter, spool directory) of a fan-out, as the pool
# initializer hands them to a helper process.
_helper_args = None


def _init_helper(*args):
    global _helper_args
    _helper_args = args


class _Counter:
    """The claim counter of a generation in one process: the ``value`` and
    ``get_lock()`` of a ``multiprocessing.Value``, without the import."""

    def __init__(self):
        self.value = 0

    def get_lock(self):
        return contextlib.nullcontext()


def _drain(jobs, next_index, spool_dir) -> list:
    """Claim job indices one at a time from the shared counter, generate each
    scene and append its block to a spool file in ``spool_dir`` that no other
    drain writes, even in the same process, until none is left; returns the
    index ``[(job index, scene_id, count, spool, offset, length), ...]``. A
    failure runs the counter out, so that no worker claims another scene."""
    index = []
    try:
        fd, spool = tempfile.mkstemp(prefix=f"{os.getpid()}-", dir=spool_dir)
        with open(fd, "wb") as fh:
            while True:
                with next_index.get_lock():
                    i = next_index.value
                    next_index.value = i + 1
                if i >= len(jobs):
                    return index
                scene_id, count, text = generate_scene_records(*jobs[i])
                block = text.encode()
                index.append((i, scene_id, count, spool, fh.tell(), len(block)))
                fh.write(block)
    except BaseException:
        with next_index.get_lock():
            next_index.value = len(jobs)
        raise


def _helper_drain() -> list:
    return _drain(*_helper_args)


def _fan_out(jobs, spool_dir, helpers: int) -> list:
    """``_drain`` in this process and in ``helpers`` helper processes at once;
    returns all of their index entries."""
    import multiprocessing  # only a fan-out pays for the imports
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    next_index = multiprocessing.Value("q", 0)

    def stop_claims(future):  # a helper that died cannot run the counter out itself
        if not future.cancelled() and future.exception() is not None:
            with next_index.get_lock():
                next_index.value = len(jobs)

    pool = ProcessPoolExecutor(helpers, initializer=_init_helper,
                               initargs=(jobs, next_index, spool_dir))
    try:
        pending = [pool.submit(_helper_drain) for _ in range(helpers)]
        for future in pending:
            future.add_done_callback(stop_claims)
        index = _drain(jobs, next_index, spool_dir)
        for future in pending:
            index += future.result()
        return index
    except BrokenProcessPool:
        raise WorkerDied("a gen worker process ended abruptly "
                         "(killed, or out of memory)") from None
    finally:
        pool.shutdown(cancel_futures=True)


def run_generation(scene_inputs, cfg: GenConfig, tasks, spool_dir, workers: int = 1,
                   dump_dir=None) -> tuple:
    """Generate every scene into spool files in ``spool_dir``, the parent
    being one of ``workers`` workers, and sort the index of the scene blocks
    into the canonical record order by scene_id. Returns ``(record count,
    index)`` for write_records_jsonl."""
    jobs = [(inp, cfg, tuple(tasks), dump_dir) for inp in scene_inputs]
    helpers = min(workers, len(jobs)) - 1
    if helpers > 0:
        index = _fan_out(jobs, spool_dir, helpers)
    else:
        index = _drain(jobs, _Counter(), spool_dir)
    index.sort(key=itemgetter(1, 0))
    for (i, scene_id, *_), (j, other, *_) in zip(index, index[1:]):
        if scene_id == other:
            raise InputError(f"scene_id {scene_id!r} is used by both "
                             f"{jobs[i][0].scene_path} and {jobs[j][0].scene_path}")
    return sum(entry[2] for entry in index), index


# --- commands -------------------------------------------------------------------

def cmd_ingest(args) -> int:
    cloud = _load(args.ply, parse_ply)
    doc = _load(args.label_map, _read_json)
    label_map = {}
    try:
        for key, category in doc.items():
            label = int(key)
            if str(label) != key:  # canonical keys cannot name one label twice
                raise InputError(f"{args.label_map}: key {key!r} is not a canonical "
                                 f"decimal integer (write '{label}')")
            if not isinstance(category, str) or not category:
                raise InputError(f"{args.label_map}: label {label}: category must be a "
                                 f"nonempty string, got {category!r}")
            label_map[label] = category
    except (AttributeError, ValueError) as exc:
        raise InputError(f"{args.label_map}: expected an object keyed by integer "
                         f"label ids ({exc})") from None
    instances, dropped = derive_instance_boxes(cloud, label_map,
                                               min_points=args.min_points,
                                               oriented=args.oriented)
    meta = build_scene_metadata(args.scene_id, instances, cloud.positions)
    save_scene_metadata(args.out, meta)
    print(f"scene {args.scene_id}: {len(instances)} instance(s), "
          f"{dropped} dropped (< {args.min_points} points)")
    return EXIT_OK


def _resolve_config(args) -> tuple[GenConfig, list, int]:
    """Layer the generator config: defaults < config file < CLI flags."""
    values = {}
    tasks = list(TASKS)
    workers, workers_source = 1, None
    if args.config:
        doc = _load(args.config, _read_json)
        if not isinstance(doc, dict):
            raise InputError(f"{args.config}: expected a JSON object of generator settings")
        tasks = doc.pop("tasks", tasks)
        if not (isinstance(tasks, list) and all(isinstance(t, str) for t in tasks)):
            raise InputError(f"{args.config}: tasks must be a list of task names, "
                             f"got {tasks!r}")
        workers, workers_source = doc.pop("workers", workers), args.config
        values.update(doc)
    if args.seed is not None:
        values["seed"] = args.seed
    if args.max_per_task is not None:
        values["max_per_task"] = args.max_per_task
    if args.tasks:
        tasks = [t.strip() for t in args.tasks.split(",") if t.strip()]
    if args.workers is not None:
        workers, workers_source = args.workers, "--workers"
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise InputError(f"{workers_source}: workers must be an integer >= 1, "
                         f"got {workers!r}")
    unknown = [t for t in tasks if t not in TASKS]
    if unknown:
        raise SceneQaError(f"unknown task(s): {', '.join(unknown)}")
    try:
        cfg = GenConfig(**values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{args.config or 'command line'}: invalid generator "
                         f"config: {exc}") from None
    return cfg, tasks, workers


def cmd_gen(args) -> int:
    cfg, tasks, workers = _resolve_config(args)
    if args.input_root:
        scene_inputs = discover_scenes(args.input_root)
        if not scene_inputs:
            raise SceneQaError(f"no scene directories under {args.input_root}")
    else:
        if not (args.scene_metadata and args.frame_metadata):
            raise SceneQaError("need --input-root or --scene-metadata with --frame-metadata")
        scene_inputs = [SceneInputs(args.scene_metadata, args.frame_metadata,
                                    args.cloud, args.trajectories)]

    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():  # fail before generating, as open() would
        code = errno.EISDIR if out.is_dir() else errno.ENOENT
        raise OSError(code, os.strerror(code), args.out)
    # Beside --out, on its disk: a tmpfs /tmp would hold the blocks in memory.
    spool_dir = tempfile.mkdtemp(prefix=f".{out.name}.spool-", dir=out.parent)
    try:
        if args.dump_graphs:
            Path(args.dump_graphs).mkdir(parents=True, exist_ok=True)
        count, index = run_generation(scene_inputs, cfg, tasks, spool_dir, workers,
                                      args.dump_graphs)
        header = {"config": dataclasses.asdict(cfg), "tasks": list(tasks),
                  "record_count": count}
        write_records_jsonl(args.out, index, header)
    finally:
        shutil.rmtree(spool_dir, ignore_errors=True)
    print(f"wrote {count} record(s) to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _, records = read_records_jsonl(args.records)
    _, preds = read_jsonl(args.predictions,
                          lambda doc: Prediction(doc["qid"], doc["raw_text"]))
    report = score_run(records, preds, weight_by_question=args.weight_by_question)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")
    print(render_table(report))
    return EXIT_OK


def cmd_stats(args) -> int:
    counts, total = {}, 0
    for rec in iter_jsonl(args.records, record_from_dict):  # one record held at a time
        counts[rec.task] = counts.get(rec.task, 0) + 1
        total += 1
    lines = [f"{'task':<18}{'count':>8}"]
    for task in TASKS:
        if task in counts:
            lines.append(f"{task:<18}{counts[task]:>8}")
    lines.append(f"{'total':<18}{total:>8}")
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"per_task": counts, "total": total}, fh,
                      sort_keys=True, indent=1)
            fh.write("\n")
    return EXIT_OK


def cmd_fusion_check(args) -> int:
    from . import fusion

    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    ok = True

    w = fusion.FusionWeights.random(rng, dim_v=8, dim_3d=7, d_k=6, d_p1=9, d_p2=5)
    h_v = rng.normal(size=(6, 8))
    f = rng.normal(size=(4, 7))
    z = rng.normal(size=(1, 7))
    attn = fusion.attention_map(h_v, fusion.build_unified_3d(f, z), w)
    row_err = float(np.abs(attn.sum(axis=1) - 1.0).max())
    ok &= _check_line("attention rows sum to 1", row_err < 1e-9, f"max err {row_err:.2e}")

    w_zero = w.with_zero_values().with_identity_projector()
    residual = fusion.fuse_forward(h_v, f, z, w_zero)
    ok &= _check_line("zero-value residual identity", bool(np.array_equal(residual, h_v)))

    err_lin = fusion.grad_check(
        dataclasses.replace(w.with_identity_projector(), use_softmax=False), h_v, f, z)
    ok &= _check_line("linear-path gradients", err_lin < 1e-9, f"max rel err {err_lin:.2e}")

    err_full = fusion.grad_check(w, h_v, f, z)
    ok &= _check_line("full-chain gradients", err_full < 1e-5, f"max rel err {err_full:.2e}")

    if args.full_shapes:
        w_big = fusion.FusionWeights.random(rng, dim_v=1152, dim_3d=768,
                                            d_k=64, d_p1=3584, d_p2=3584, scale=0.02)
        out = fusion.fuse_forward(rng.normal(size=(729, 1152)),
                                  rng.normal(size=(729, 768)),
                                  rng.normal(size=(1, 768)), w_big)
        ok &= _check_line("full-width shape smoke", out.shape == (729, 3584),
                          f"output {out.shape}")

    return EXIT_OK if ok else 1


def _check_line(name, passed, detail="") -> bool:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    return bool(passed)


# --- argument parsing -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sceneqa",
        description="Deterministic scene-graph QA generation and scoring.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="fit instance boxes from a labeled PLY")
    p.add_argument("--ply", required=True)
    p.add_argument("--label-map", required=True,
                   help="JSON mapping semantic label id -> category name")
    p.add_argument("--scene-id", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-points", type=int, default=DEFAULT_MIN_POINTS)
    p.add_argument("--oriented", action="store_true",
                   help="fit yaw-oriented boxes instead of axis-aligned")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gen", help="generate question records")
    p.add_argument("--input-root", help="directory of per-scene subdirectories")
    p.add_argument("--scene-metadata")
    p.add_argument("--frame-metadata")
    p.add_argument("--cloud", help="optional labeled PLY for room-size hulls")
    p.add_argument("--trajectories", help="optional trajectory JSONL for route planning")
    p.add_argument("--out", required=True)
    p.add_argument("--tasks", help="comma-separated subset of task names")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-per-task", type=int)
    p.add_argument("--workers", type=int,
                   help="worker processes, counting this one (default 1); each "
                        "claims one scene at a time")
    p.add_argument("--config", help="JSON file of generator settings")
    p.add_argument("--dump-graphs", help="directory for debug graph dumps")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("eval", help="score predictions against records")
    p.add_argument("--records", required=True)
    p.add_argument("--predictions", required=True,
                   help="JSONL of {qid, raw_text}")
    p.add_argument("--out")
    p.add_argument("--weight-by-question", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="count records per task")
    p.add_argument("--records", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("fusion-check", help="run the fusion kernel self-checks")
    p.add_argument("--seed", type=int)
    p.add_argument("--full-shapes", action="store_true",
                   help="also run the full-width shape smoke test")
    p.set_defaults(func=cmd_fusion_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DuplicateQid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except (SceneQaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
