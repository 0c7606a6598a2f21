"""Command-line surface: ingest -> gen -> eval -> stats, plus fusion-check.

Exit codes: 0 success, 2 input error (missing/unreadable/malformed files),
3 evaluation error, 4 a gen worker process that ended abruptly. All outputs
are deterministic: ``gen --workers N`` runs the parent process plus N - 1
helpers forked from it with ``os.fork`` (so N > 1 needs a platform that has
it). A worker claims job ``i`` by creating the file ``<i>`` of a temporary
directory beside ``--out``: the spool file is the claim. It writes the job's
block of JSON lines, sorted by (task order, qid), there and keeps only
``(scene_id, i, record count)``; ``--workers 1`` runs the same loop alone. A
helper sends its tuples down a pipe of its own once, as it exits, and the
parent polls the helpers between two of its own scenes, so one that ended
without a whole report stops the run (exit 4) before the parent claims
another scene. The parent sorts the tuples by scene_id, which must be
unique, and then copies the files one at a time into a records file in that
same directory, so the worker count never changes the bytes on disk and the
parent never holds a block. Only when every check has passed and the whole
file is written does it rename that file onto ``--out`` (and move any
``--dump-graphs`` files, which the workers also write there, into their
directory): a failed run leaves the old ``--out`` as it was. ``gen`` reads
only ``--input-root``, and every command publishes its ``--out`` this way,
through ``_publish``, having checked it before reading any scene, cloud or
record.

Every generated artifact starts with a header line ``{"_header": {...}}``
carrying the resolved configuration; readers in this package skip it.

A run pays only for its own command. Every command imports the package
(numpy, the metadata, PLY, graph and record modules), ``evaluate`` and
``route_plan``; only ``gen`` imports the generator modules ``qa_spatial``
and ``qa_temporal``, before it starts any helper, and only ``fusion-check``
imports ``fusion``. ``main`` registers ``gc.freeze`` as an exit hook, once
per process, so the interpreter's collections at exit skip the objects the
run leaves instead of walking them; nothing is frozen while a command runs.
The price is that an object still in a reference cycle at exit is never
finalized, so every output is closed and every staging directory removed
before ``main`` returns.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import dataclasses
import errno
import gc
import json
import os
import pickle
import shutil
import sys
import tempfile
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import graph as graph_mod
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
    write_json,
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
    """The JSON document at ``path``, in which no object repeats a key."""
    def unique_keys(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise InputError(f"key {key!r} appears twice in one object")
            doc[key] = value
        return doc

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=unique_keys)


# --- record file helpers ------------------------------------------------------

# The bytes of json.dumps(doc, sort_keys=True, separators=(",", ":")).
# JSONEncoder.encode builds a C encoder per call; _dump_line reuses one
# built with the same settings, or takes encode's path without one.
_settings = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_markers = {}  # the circular-reference marks, empty between calls
try:
    # c_make_encoder is private: these are the nine arguments that
    # JSONEncoder.iterencode passes it (checked on CPython 3.11)
    _c_encode = json.encoder.c_make_encoder(
        _markers, _settings.default, json.encoder.encode_basestring_ascii,
        _settings.indent, _settings.key_separator, _settings.item_separator,
        _settings.sort_keys, _settings.skipkeys, _settings.allow_nan)
except TypeError:  # no C encoder (None), or one with another signature
    _c_encode = None


def _dump_line(doc: dict) -> str:
    if _c_encode is None:
        return _settings.encode(doc) + "\n"
    try:
        return "".join(_c_encode(doc, 0)) + "\n"
    except BaseException:
        _markers.clear()  # a failed call leaves its open containers marked
        raise


def write_records_jsonl(path, spools, header: dict):
    """The header line, then the record lines of each spool file that
    run_generation returns, copied in order."""
    with open(path, "wb") as out:
        out.write(_dump_line({"_header": header}).encode())
        for spool in spools:
            with open(spool, "rb") as fh:
                shutil.copyfileobj(fh, out)


def read_records_jsonl(path):
    """Returns (header dict or None, list of validated QaRecords)."""
    return read_jsonl(path, record_from_dict)


# --- generation pipeline ------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SceneInputs:
    scene_path: str
    frames_path: str
    cloud_path: str | None
    trajectories_path: str | None


def discover_scenes(root) -> list[SceneInputs]:
    """Scan an input root: one subdirectory per scene with the metadata pair
    and optional cloud.ply / trajectories.jsonl; one of the pair alone is an
    InputError, and a subdirectory with neither is skipped."""
    root = Path(root)
    scenes = []
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        scene = sub / "scene_metadata.json"
        frames = sub / "frame_metadata.json"
        if not (scene.exists() and frames.exists()):
            if scene.exists() or frames.exists():
                raise InputError(f"{frames if scene.exists() else scene}: missing, but "
                                 f"the other metadata file of the scene is there")
            continue
        cloud = sub / "cloud.ply"
        traj = sub / "trajectories.jsonl"
        scenes.append(SceneInputs(
            str(scene), str(frames),
            str(cloud) if cloud.exists() else None,
            str(traj) if traj.exists() else None,
        ))
    return scenes


def task_generators() -> dict:
    """Task name -> ``gen(ctx, cfg)``, each looked up at call time. The
    generator modules are imported here, so only gen loads them."""
    from . import qa_spatial, qa_temporal

    return {**qa_spatial.SPATIAL_GENERATORS, **qa_temporal.TEMPORAL_GENERATORS,
            "route_plan": lambda g, cfg: gen_route_plan(g, g.trajectories, cfg)[0]}


def generate_scene_records(inputs: SceneInputs, cfg: GenConfig, tasks,
                           dump_dir=None) -> tuple:
    """All requested records for one scene, from the scene's graph, as
    ``(scene_id, record count, text)``: the JSON lines sorted by (task order,
    qid) and joined. With ``dump_dir`` the graph is written there too, as
    ``<scene_id>.json``, so the scene_id must be a single file name."""
    scene = _load(inputs.scene_path, load_scene_metadata)
    if dump_dir is not None and (scene.scene_id in (".", "..") or "/" in scene.scene_id
                                 or "\0" in scene.scene_id):
        raise InputError(f"{inputs.scene_path}: scene_id {scene.scene_id!r} is not a "
                         f"single file name, so --dump-graphs cannot name a file after it")
    frames = _load(inputs.frames_path, load_frame_metadata)
    if frames.scene_id != scene.scene_id:
        raise InputError(f"{inputs.frames_path}: scene_id {frames.scene_id!r} is not "
                         f"{scene.scene_id!r}, the scene_id of {inputs.scene_path}")
    cloud = (_load(inputs.cloud_path, parse_ply)
             if "room_size" in tasks and inputs.cloud_path else None)
    trajectories = ()
    if "route_plan" in tasks and inputs.trajectories_path:
        trajectories = [t for sid, t in load_trajectories(inputs.trajectories_path)
                        if sid == scene.scene_id]
    try:
        g = graph_mod.build_graph(scene, frames, cfg.min_bbox_area_px, cfg.sample_frames,
                                  cloud, trajectories)
    except DanglingInstanceRef as exc:
        raise InputError(f"{inputs.frames_path}: {exc}") from None

    if dump_dir is not None:
        write_json(Path(dump_dir) / f"{scene.scene_id}.json", graph_mod.graph_to_dict(g))

    generators = task_generators()
    lines = []
    for task in (t for t in TASKS if t in tasks):  # TASKS is in task order
        try:  # a truth that breaks the record invariants, e.g. an overflowing distance
            records = generators[task](g, cfg)
        except ValueError as exc:
            raise InputError(f"{inputs.scene_path}: {task}: {exc}") from None
        lines += [_dump_line(record_to_dict(rec))
                  for rec in sorted(records, key=attrgetter("qid"))]
    return scene.scene_id, len(lines), "".join(lines)


def _claim(spool_dir, i) -> bool:
    """Create job ``i``'s spool file ``spool_dir/<i>``, empty; False if it
    exists. Creating the file is the claim, so no two workers generate one
    job."""
    try:
        os.close(os.open(os.path.join(spool_dir, str(i)),
                         os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600))
        return True
    except FileExistsError:
        return False


def _stop_claims(jobs, spool_dir):
    """Claim every job still unclaimed, so that no worker starts another."""
    for i in range(len(jobs)):
        with contextlib.suppress(OSError):  # at worst the others generate on
            _claim(spool_dir, i)


def _drain(jobs, spool_dir, between_scenes=None) -> list:
    """Claim the jobs one at a time in index order, skipping any another
    worker holds, and write each one's block to its spool file; returns
    ``(scene_id, i, record count)`` for each job generated here.
    ``between_scenes()`` runs after each scene, before the next claim. A
    failure claims every job left, so that no worker starts another scene."""
    done = []
    try:
        for i in range(len(jobs)):
            if not _claim(spool_dir, i):
                continue
            scene_id, count, text = generate_scene_records(*jobs[i])
            # opened only now: held open while the scene was generated, the
            # file object raised a one-worker gen's peak RSS by about 0.13 MB
            with open(os.path.join(spool_dir, str(i)), "wb") as spool:
                spool.write(text.encode())
            done.append((scene_id, i, count))
            if between_scenes is not None:
                between_scenes()
        return done
    except BaseException:
        _stop_claims(jobs, spool_dir)
        raise


def _helper(jobs, spool_dir, read_end, write_end):
    """A forked helper's whole life: drain, send one pickled ``(ok, tuples or
    exception)`` down the report pipe's ``write_end``, and leave with
    ``os._exit``, so that nothing the parent's stack would run on its way out
    (the staging directory's removal above all) runs here too."""
    try:
        os.close(read_end)
        try:
            report = pickle.dumps((True, _drain(jobs, spool_dir)))
        except BaseException as exc:  # the parent raises it
            try:
                report = pickle.dumps((False, exc))
            except Exception:  # an error that cannot be pickled is sent as text
                report = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with open(write_end, "wb") as pipe:
            pipe.write(report)
    finally:
        os._exit(0)


def _read_report(fd) -> bytes:
    with open(fd, "rb") as pipe:
        return pipe.read()


def _unpickle_report(report: bytes) -> list:
    """A helper's tuples; raises its error, or WorkerDied if the report is
    missing or cut short because the helper ended before sending it all."""
    try:
        ok, result = pickle.loads(report)
    except Exception:
        raise WorkerDied("a gen worker process ended abruptly "
                         "(killed, or out of memory)") from None
    if not ok:
        raise result
    return result


def _fan_out(jobs, spool_dir, helpers: int) -> list:
    """``_drain`` in this process and in ``helpers`` forked helper processes
    at once; returns all of their tuples.

    Plain ``os.fork`` on purpose, not multiprocessing, whose default start
    method is not fork everywhere: a forked helper shares the pages of numpy
    and of every module gen has loaded, where a spawned one pays a whole
    interpreter, numpy and sceneqa start-up (about 130 ms of CPU and 30 MB
    of its own). This process runs no other thread when it forks. Between
    two of its scenes it polls the helpers, so one that died stops the run
    before this process claims another scene. Every helper is read and
    reaped before this returns or raises."""
    # Every worker draws from numpy.random, which loads OpenSSL through
    # secrets; loaded before the fork, its pages are shared, not loaded anew.
    import numpy.random  # noqa: F401

    pipes = {}  # helper pid -> the read end of its report pipe, until it is reaped
    done, reports = [], []  # the helpers' tuples; the reports read after this drain

    def poll():
        for pid in list(pipes):
            if os.waitpid(pid, os.WNOHANG)[0]:
                done.extend(_unpickle_report(_read_report(pipes.pop(pid))))

    try:
        for _ in range(helpers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                _stop_claims(jobs, spool_dir)  # the helpers already forked claim no more
                raise
            if pid == 0:
                _helper(jobs, spool_dir, read_end, write_end)  # never returns
            os.close(write_end)
            pipes[pid] = read_end
        own = _drain(jobs, spool_dir, poll)
    finally:
        for pid in list(pipes):
            reports.append(_read_report(pipes.pop(pid)))  # to its end: the helper has exited
            os.waitpid(pid, 0)
    for report in reports:
        done += _unpickle_report(report)
    return own + done


def run_generation(scene_inputs, cfg: GenConfig, tasks, spool_dir, workers: int = 1,
                   dump_dir=None) -> tuple:
    """Generate every scene into a file of its own in ``spool_dir``, the
    parent being one of ``workers`` workers. Returns ``(record count, spool
    files)``, the files in the canonical record order by scene_id, for
    write_records_jsonl."""
    jobs = [(inp, cfg, tuple(tasks), dump_dir) for inp in scene_inputs]
    done = _fan_out(jobs, spool_dir, min(workers, len(jobs)) - 1)
    done.sort()  # by scene_id, then by job index
    for (scene_id, i, _), (other, j, _) in zip(done, done[1:]):
        if scene_id == other:
            raise InputError(f"scene_id {scene_id!r} is used by both "
                             f"{jobs[i][0].scene_path} and {jobs[j][0].scene_path}")
    return (sum(count for *_, count in done),
            [os.path.join(spool_dir, str(i)) for _, i, _ in done])


# --- commands -------------------------------------------------------------------

def _check_out(out: str) -> Path:
    """``out`` as a Path; raises the OSError that open(out, "w") would for a
    directory or a path in a missing directory. Each command checks its
    ``--out`` so before it reads any scene, cloud or record."""
    path = Path(out)
    if path.is_dir() or not path.parent.is_dir():
        code = errno.EISDIR if path.is_dir() else errno.ENOENT
        raise OSError(code, os.strerror(code), out)
    return path


@contextlib.contextmanager
def _publish(out: str):
    """Yield a file path in a new private directory beside ``out``, on its
    disk, for the caller's output (and any other files it stages); rename
    that file onto ``out`` only if the block exits cleanly, and always
    remove the directory, so a failed run leaves nothing beside ``out``."""
    path = _check_out(out)
    stage = tempfile.mkdtemp(prefix=f".{path.name}.spool-", dir=path.parent)
    try:
        staged = os.path.join(stage, "out")  # gen's spool files are named by job index
        yield staged
        os.replace(staged, out)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def cmd_ingest(args) -> int:
    if not args.scene_id:  # as load_scene_metadata would reject it
        raise InputError("--scene-id: expected a nonempty string")
    if args.min_points < 1:
        raise InputError(f"--min-points: expected an integer >= 1, got {args.min_points}")
    _check_out(args.out)
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
    with _publish(args.out) as staged:
        save_scene_metadata(staged, meta)
    print(f"scene {args.scene_id}: {len(instances)} instance(s), "
          f"{dropped} dropped (< {args.min_points} points)")
    return EXIT_OK


def _resolve_config(args) -> tuple[GenConfig, list, int]:
    """Layer the generator config: defaults < config file < CLI flags."""
    values = {}
    tasks, tasks_source = list(TASKS), None
    workers, workers_source = 1, None
    if args.config:
        doc = _load(args.config, _read_json)
        if not isinstance(doc, dict):
            raise InputError(f"{args.config}: expected a JSON object of generator settings")
        tasks, tasks_source = doc.pop("tasks", tasks), args.config
        if not (isinstance(tasks, list) and all(isinstance(t, str) for t in tasks)):
            raise InputError(f"{args.config}: tasks must be a list of task names, "
                             f"got {tasks!r}")
        workers, workers_source = doc.pop("workers", workers), args.config
        values.update(doc)
    if args.seed is not None:
        values["seed"] = args.seed
    if args.max_per_task is not None:
        values["max_per_task"] = args.max_per_task
    if args.tasks is not None:
        tasks, tasks_source = [t.strip() for t in args.tasks.split(",") if t.strip()], "--tasks"
    if args.workers is not None:
        workers, workers_source = args.workers, "--workers"
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise InputError(f"{workers_source}: workers must be an integer >= 1, "
                         f"got {workers!r}")
    if workers > 1 and not hasattr(os, "fork"):  # the helpers are forked: see _fan_out
        raise InputError(f"{workers_source}: workers above 1 need os.fork, which this "
                         f"platform does not have; use 1")
    unknown = [t for t in tasks if t not in TASKS]
    if unknown:
        raise InputError(f"{tasks_source}: unknown task(s): {', '.join(unknown)}")
    if not tasks:
        raise InputError(f"{tasks_source}: expected at least one task name")
    tasks = [t for t in TASKS if t in tasks]  # in task order, each once
    try:
        cfg = GenConfig(**values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{args.config or 'command line'}: invalid generator "
                         f"config: {exc}") from None
    return cfg, tasks, workers


def cmd_gen(args) -> int:
    cfg, tasks, workers = _resolve_config(args)
    task_generators()  # loaded before any fork, so the helpers share them
    scene_inputs = discover_scenes(args.input_root)
    if not scene_inputs:
        raise SceneQaError(f"no scene directories under {args.input_root}")

    with _publish(args.out) as staged:  # on --out's disk: a tmpfs /tmp holds files in memory
        spool_dir = os.path.dirname(staged)  # the spool files and graphs are staged there too
        staged_dumps = None
        if args.dump_graphs:
            Path(args.dump_graphs).mkdir(parents=True, exist_ok=True)
            staged_dumps = os.path.join(spool_dir, "graphs")
            os.mkdir(staged_dumps)
        count, spools = run_generation(scene_inputs, cfg, tasks, spool_dir, workers,
                                       staged_dumps)
        header = {"config": dataclasses.asdict(cfg), "tasks": tasks,
                  "record_count": count}
        write_records_jsonl(staged, spools, header)
        if staged_dumps:  # shutil.move: the dump directory may be on another disk
            for name in sorted(os.listdir(staged_dumps)):
                shutil.move(os.path.join(staged_dumps, name),
                            os.path.join(args.dump_graphs, name))
    print(f"wrote {count} record(s) to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.out:
        _check_out(args.out)
    _, records = read_records_jsonl(args.records)
    _, preds = read_jsonl(args.predictions,
                          lambda doc: Prediction(doc["qid"], doc["raw_text"]))
    report = score_run(records, preds, weight_by_question=args.weight_by_question)
    if args.out:
        with _publish(args.out) as staged:
            write_json(staged, report.to_dict())
    print(render_table(report))
    return EXIT_OK


def cmd_stats(args) -> int:
    if args.out:
        _check_out(args.out)
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
        with _publish(args.out) as staged:
            write_json(staged, {"per_task": counts, "total": total})
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
    p.add_argument("--input-root", required=True, help="directory of per-scene subdirectories")
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


# Whether main has registered gc.freeze as an exit hook in this process.
_freeze_at_exit = False


def main(argv=None) -> int:
    global _freeze_at_exit
    if not _freeze_at_exit:  # atexit.unregister would leave a dead slot behind
        # The interpreter's collections at exit then skip what the run left
        # (numpy's import-time objects above all) instead of walking it.
        atexit.register(gc.freeze)
        _freeze_at_exit = True
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
