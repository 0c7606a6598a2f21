import errno
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import reference_write_records, verify_record
from synth import make_cluster_cloud, make_rect_cloud, make_scene, make_single_turn_waypoints, write_scene_dir
import sceneqa
from sceneqa import cli, errors, qa_spatial, qa_temporal
from sceneqa.cli import discover_scenes, main, read_records_jsonl, task_generators
from sceneqa.geometry import OrientedBox3
from sceneqa.graph import build_graph
from sceneqa.metadata import (FrameMetadata, ObjectInstance, SceneMetadata, load_frame_metadata,
                              load_scene_metadata)
from sceneqa.ply_io import parse_ply, write_ply
from sceneqa.qa_records import TASKS, GenConfig, make_qid, validate_record
from sceneqa.route_plan import load_trajectories


@pytest.fixture()
def scene_dir(tmp_path):
    scene, frames = make_scene(seed=2024, scene_id="cli000")
    rng = np.random.default_rng(9)
    trajectories = [make_single_turn_waypoints(rng)[0] for _ in range(4)]
    trajectories.append(np.array([[1.0, 1.0, 0.0], [3.5, 1.0, 0.0]]))
    cloud = make_rect_cloud(7, 6.0, 5.0)
    return write_scene_dir(tmp_path / "scenes", scene, frames,
                           cloud=cloud, trajectories=trajectories)


# --- ingest -------------------------------------------------------------------------

def test_ingest_two_instances(tmp_path, capsys):
    cloud = make_cluster_cloud(11, [(1, 4, [0, 0, 0.5], [1, 1, 1], 200),
                                    (2, 7, [4, 4, 0.5], [1, 1, 1], 200)])
    ply = tmp_path / "scan.ply"
    write_ply(ply, cloud, binary=True)
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"4": "chair", "7": "table"}))
    out = tmp_path / "scene_metadata.json"

    code = main(["ingest", "--ply", str(ply), "--label-map", str(labels),
                 "--scene-id", "scan0", "--out", str(out)])
    assert code == 0
    assert "2 instance(s)" in capsys.readouterr().out
    meta = load_scene_metadata(out)
    assert len(meta.objects) == 2
    assert meta.category_counts == {"chair": 1, "table": 1}

    # rerun: byte-identical output
    first = out.read_bytes()
    assert main(["ingest", "--ply", str(ply), "--label-map", str(labels),
                 "--scene-id", "scan0", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_ingest_malformed_ply_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ply"
    bad.write_text("not a ply file\n")
    labels = tmp_path / "labels.json"
    labels.write_text("{}")
    code = main(["ingest", "--ply", str(bad), "--label-map", str(labels),
                 "--scene-id", "x", "--out", str(tmp_path / "o.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err and "bad.ply" in err  # file context in the message


def test_ingest_empty_scene_id_is_input_error(tmp_path, capsys):
    cloud = make_cluster_cloud(11, [(1, 4, [0, 0, 0.5], [1, 1, 1], 200)])
    ply = tmp_path / "scan.ply"
    write_ply(ply, cloud, binary=True)
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"4": "chair"}))
    out = tmp_path / "scene_metadata.json"
    assert main(["ingest", "--ply", str(ply), "--label-map", str(labels),
                 "--scene-id", "", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --scene-id: expected a nonempty string\n"
    assert not out.exists()


def _ingest_inputs(tmp_path):
    ply = tmp_path / "scan.ply"
    write_ply(ply, make_cluster_cloud(11, [(1, 4, [0, 0, 0.5], [1, 1, 1], 200)]), binary=True)
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"4": "chair"}))
    return ["ingest", "--ply", str(ply), "--label-map", str(labels), "--scene-id", "scan0"]


def test_ingest_failed_write_leaves_the_old_out(tmp_path, capsys, monkeypatch):
    # The disk fills after the first bytes of the metadata are written.
    argv = _ingest_inputs(tmp_path)
    out = tmp_path / "out" / "scene_metadata.json"
    out.parent.mkdir()
    out.write_text("old\n")

    def torn_dump(doc, fh, **kwargs):
        fh.write('{"partial": ')
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(json, "dump", torn_dump)
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert out.read_bytes() == b"old\n"
    assert os.listdir(out.parent) == ["scene_metadata.json"]


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
def test_ingest_replaces_a_symlinked_out(tmp_path):
    argv = _ingest_inputs(tmp_path)
    target = tmp_path / "target.json"
    target.write_text("old\n")
    out = tmp_path / "out" / "scene_metadata.json"
    out.parent.mkdir()
    out.symlink_to(target)
    assert main([*argv, "--out", str(out)]) == 0
    assert not out.is_symlink()
    assert load_scene_metadata(out).scene_id == "scan0"
    assert target.read_text() == "old\n"
    assert os.listdir(out.parent) == ["scene_metadata.json"]


# --- gen ----------------------------------------------------------------------------

def test_gen_records_verified_by_oracles(scene_dir, tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    code = main(["gen", "--input-root", str(scene_dir.parent),
                 "--out", str(out), "--seed", "5"])
    assert code == 0

    header, records = read_records_jsonl(out)
    assert header["config"]["seed"] == 5
    assert records, "generator emitted nothing"

    scene = load_scene_metadata(scene_dir / "scene_metadata.json")
    frames = load_frame_metadata(scene_dir / "frame_metadata.json")
    cloud = parse_ply(scene_dir / "cloud.ply")
    cfg = GenConfig(seed=5)

    tasks_seen = set()
    for rec in records:
        validate_record(rec)
        tasks_seen.add(rec.task)
        if rec.task == "route_plan":
            continue  # covered by its own module tests
        problem = verify_record(rec, scene, frames, cfg, cloud=cloud)
        assert problem is None, f"{rec.qid}: {problem}"
    assert {"room_size", "cam_displacement", "abs_dist"} <= tasks_seen
    assert len(tasks_seen) >= 6


def test_gen_task_filter_is_exact_subset(scene_dir, tmp_path):
    full = tmp_path / "full.jsonl"
    only = tmp_path / "subset.jsonl"
    assert main(["gen", "--input-root", str(scene_dir.parent),
                 "--out", str(full), "--seed", "5"]) == 0
    assert main(["gen", "--input-root", str(scene_dir.parent),
                 "--out", str(only), "--seed", "5", "--tasks", "obj_count"]) == 0
    _, full_records = read_records_jsonl(full)
    _, subset_records = read_records_jsonl(only)
    want = [r.qid for r in full_records if r.task == "obj_count"]
    assert [r.qid for r in subset_records] == want
    assert all(r.task == "obj_count" for r in subset_records)


def test_gen_header_lists_a_task_set_once_in_task_order(scene_dir, tmp_path):
    outs = []
    for i, tasks in enumerate(["abs_dist,obj_count", "obj_count,abs_dist,obj_count"]):
        outs.append(tmp_path / f"r{i}.jsonl")
        assert main(["gen", "--input-root", str(scene_dir.parent), "--out", str(outs[-1]),
                     "--seed", "5", "--tasks", tasks]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    header, _ = read_records_jsonl(outs[0])
    assert header["tasks"] == ["obj_count", "abs_dist"]


@pytest.mark.parametrize("source", ["--tasks ,", "--tasks ''", "config"])
def test_gen_empty_task_list_is_input_error(scene_dir, tmp_path, capsys, source):
    out = tmp_path / "r.jsonl"
    argv = ["gen", "--input-root", str(scene_dir.parent), "--out", str(out)]
    if source == "config":
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"tasks": []}))
        argv += ["--config", str(cfg_file)]
    else:
        argv += ["--tasks", source.split()[1].strip("'")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    named = str(cfg_file) if source == "config" else "--tasks"
    assert err == f"error: {named}: expected at least one task name\n"
    assert not out.exists()


def test_gen_worker_count_does_not_change_bytes(tmp_path):
    root = tmp_path / "scenes"
    for i in range(4):
        scene, frames = make_scene(seed=3000 + i, scene_id=f"w{i:02d}")
        write_scene_dir(root, scene, frames)
    one = tmp_path / "one.jsonl"
    four = tmp_path / "four.jsonl"
    assert main(["gen", "--input-root", str(root), "--out", str(one),
                 "--seed", "9", "--workers", "1"]) == 0
    assert main(["gen", "--input-root", str(root), "--out", str(four),
                 "--seed", "9", "--workers", "4"]) == 0
    assert one.read_bytes() == four.read_bytes()


def test_records_file_equals_the_former_write_path(tmp_path):
    # Directory order differs from scene_id order.
    root = tmp_path / "scenes"
    root.mkdir()
    rng = np.random.default_rng(12)
    for dirname, scene_id, seed in (("a", "zeta", 5101), ("b", "alpha", 5102),
                                    ("c", "omega", 5103), ("d", "mid", 5104)):
        scene, frames = make_scene(seed=seed, scene_id=scene_id)
        cloud = make_rect_cloud(seed, 6.0, 5.0) if dirname == "b" else None
        trajectories = [make_single_turn_waypoints(rng)[0] + [3.0, 3.0, 0.0] for _ in range(6)]
        staged = write_scene_dir(tmp_path / dirname, scene, frames, cloud, trajectories)
        staged.rename(root / dirname)
    want = tmp_path / "want.jsonl"
    reference_write_records(want, discover_scenes(root), GenConfig(seed=9), list(TASKS))
    scene_ids = [json.loads(line).get("scene_id") for line in want.read_text().splitlines()]
    assert list(dict.fromkeys(scene_ids[1:])) == ["alpha", "mid", "omega", "zeta"]
    for workers in ("1", "2", "4"):
        out = tmp_path / f"records{workers}.jsonl"
        assert main(["gen", "--input-root", str(root), "--out", str(out), "--seed", "9",
                     "--workers", workers]) == 0
        assert out.read_bytes() == want.read_bytes(), workers


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_gen_shared_scene_id_is_input_error(tmp_path, capsys, workers):
    root = tmp_path / "scenes"
    root.mkdir()
    for dirname, scene_id, seed in (("a", "zeta", 5101), ("b", "alpha", 5102),
                                    ("c", "zeta", 5103)):
        staged = write_scene_dir(tmp_path / dirname, *make_scene(seed=seed, scene_id=scene_id))
        staged.rename(root / dirname)
    out = tmp_path / "records.jsonl"
    out.write_text("kept\n")
    assert main(["gen", "--input-root", str(root), "--out", str(out), "--seed", "9",
                 "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert "'zeta'" in err, err
    assert str(root / "a" / "scene_metadata.json") in err, err
    assert str(root / "c" / "scene_metadata.json") in err, err
    assert out.read_text() == "kept\n"
    # the staging directories, the scenes and --out: no spool is left
    assert sorted(os.listdir(tmp_path)) == ["a", "b", "c", "records.jsonl", "scenes"]


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_gen_leaves_nothing_beside_out(tmp_path, workers):
    root = _small_corpus(tmp_path / "scenes", n=3)
    out = tmp_path / "out" / "records.jsonl"
    out.parent.mkdir()
    assert main(["gen", "--input-root", str(root), "--out", str(out), "--seed", "4",
                 "--workers", workers, "--tasks", "obj_count,abs_dist"]) == 0
    assert os.listdir(out.parent) == ["records.jsonl"]


def test_gen_failed_write_leaves_the_old_out(tmp_path, capsys, monkeypatch):
    # The disk fills while the third scene's spool file is copied.
    root = _small_corpus(tmp_path / "scenes", n=4)
    out = tmp_path / "out" / "records.jsonl"
    out.parent.mkdir()
    out.write_text("old\n")
    copy, calls = cli.shutil.copyfileobj, []

    def copy_until_full(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return copy(*args, **kwargs)

    monkeypatch.setattr(cli.shutil, "copyfileobj", copy_until_full)
    assert main(["gen", "--input-root", str(root), "--out", str(out), "--seed", "4"]) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert len(calls) == 3
    assert out.read_text() == "old\n"
    assert os.listdir(out.parent) == ["records.jsonl"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_gen_shared_scene_id_leaves_no_graph_dump(tmp_path, capsys, workers):
    root = tmp_path / "scenes"
    root.mkdir()
    for dirname, seed in (("a", 5101), ("b", 5103)):
        staged = write_scene_dir(tmp_path / dirname, *make_scene(seed=seed, scene_id="same"))
        staged.rename(root / dirname)
    dumps = tmp_path / "dumps"
    out = tmp_path / "records.jsonl"
    assert main(["gen", "--input-root", str(root), "--out", str(out), "--tasks", "obj_count",
                 "--workers", workers, "--dump-graphs", str(dumps)]) == 2
    assert "'same'" in capsys.readouterr().err
    assert os.listdir(dumps) == []
    assert sorted(os.listdir(tmp_path)) == ["a", "b", "dumps", "scenes"]


def test_gen_memory_does_not_grow_with_the_corpus(tmp_path):
    # Copies of one scene, so that every scene block has the same size and
    # only the number of blocks grows. Holding every block until the write
    # would add about the extra records bytes to the peak.
    def corpus(n):
        root = tmp_path / f"scenes{n}"
        for i in range(n):
            write_scene_dir(root, *make_scene(seed=3300, scene_id=f"c{i:03d}"))
        return root

    def peak(root):
        out = tmp_path / f"{root.name}.jsonl"
        tracemalloc.start()
        try:
            assert main(["gen", "--input-root", str(root), "--out", str(out),
                         "--workers", "1"]) == 0
            return tracemalloc.get_traced_memory()[1], out.stat().st_size
        finally:
            tracemalloc.stop()

    n = 3
    small, large = corpus(n), corpus(4 * n)
    peak(small)  # loads what the first generation imports
    (peak_small, size_small), (peak_large, size_large) = peak(small), peak(large)
    assert peak_large - peak_small < (size_large - size_small) / 4, \
        (peak_small, peak_large, size_small, size_large)


def _run_python(code, *args):
    src = str(Path(sceneqa.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, timeout=120, env=env)


# Appended to a script that has run main(): prints whether a child process
# of it is left, running or unreaped.
_NO_CHILD_LEFT = (
    "try:\n"
    "    os.waitpid(-1, os.WNOHANG)\n"
    "    print('child left')\n"
    "except ChildProcessError:\n"
    "    print('no child left')\n")


def _small_corpus(root, n=4):
    for i in range(n):
        write_scene_dir(root, *make_scene(seed=3200 + i, scene_id=f"m{i:02d}"))
    return root


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_gen_fan_out_under_start_method(tmp_path, method):
    root = _small_corpus(tmp_path / "scenes")
    want = tmp_path / "one.jsonl"
    assert main(["gen", "--input-root", str(root), "--out", str(want), "--seed", "4",
                 "--workers", "1"]) == 0
    code = (
        "import multiprocessing, sys\n"
        "multiprocessing.set_start_method(sys.argv[1])\n"
        "from sceneqa.cli import main\n"
        "for workers in ('2', '3'):\n"
        "    out = f'{sys.argv[3]}/w{workers}.jsonl'\n"
        "    argv = ['gen', '--input-root', sys.argv[2], '--out', out, '--seed', '4',\n"
        "            '--workers', workers]\n"
        "    assert main(argv) == 0, workers\n")
    run = _run_python(code, method, root, tmp_path)
    assert run.returncode == 0, run.stderr
    for workers in ("2", "3"):
        assert (tmp_path / f"w{workers}.jsonl").read_bytes() == want.read_bytes(), workers


def test_gen_claims_each_scene_once_with_more_workers_than_cores(tmp_path):
    # A lost update of the claim counter would generate a scene twice (a
    # shared scene_id error) or skip one (different bytes).
    root = _small_corpus(tmp_path / "scenes", n=8)
    want = tmp_path / "one.jsonl"
    argv = ["gen", "--input-root", str(root), "--seed", "6", "--tasks", "obj_count,abs_dist"]
    assert main([*argv, "--out", str(want), "--workers", "1"]) == 0
    workers = "8"  # one scene each, more processes than a small host has cores
    code = (
        "import sys\n"
        "from sceneqa.cli import main\n"
        "for k in range(3):\n"
        "    assert main([*sys.argv[3:], '--out', f'{sys.argv[2]}/many{k}.jsonl',\n"
        "                 '--workers', sys.argv[1]]) == 0\n")
    run = _run_python(code, workers, tmp_path, *argv)
    assert run.returncode == 0, run.stderr
    for k in range(3):
        assert (tmp_path / f"many{k}.jsonl").read_bytes() == want.read_bytes(), k


def test_gen_helper_error_is_one_line_and_stops_the_parent(tmp_path):
    # A forked helper inherits the patched module globals. A scene fails only
    # where a helper generates it, and the parent holds its own first scene
    # until the helper's drain has ended, so the failing scene is certainly a
    # helper's and the parent may claim no scene after it. The helper then
    # waits before it reports, so that what stops the parent is the claims
    # the failed drain took, not a poll that found the helper gone.
    root = _small_corpus(tmp_path / "scenes")
    log = tmp_path / "calls.txt"
    code = (
        "import os, sys, time\n"
        "from pathlib import Path\n"
        "from sceneqa import cli\n"
        "from sceneqa.errors import InputError\n"
        "parent, marker, log = os.getpid(), Path(sys.argv[1]), Path(sys.argv[2])\n"
        "generate, drain = cli.generate_scene_records, cli._drain\n"
        "def generate_logged(inputs, *rest):\n"
        "    who = 'parent' if os.getpid() == parent else 'helper'\n"
        "    with open(log, 'a') as fh:\n"
        "        fh.write(f'{who} {inputs.scene_path}\\n')\n"
        "    if who == 'helper':\n"
        "        raise InputError(f'{inputs.scene_path}: failed in a helper')\n"
        "    deadline = time.monotonic() + 60\n"
        "    while not marker.exists() and time.monotonic() < deadline:\n"
        "        time.sleep(0.01)\n"
        "    return generate(inputs, *rest)\n"
        "def drain_marked(*args):\n"
        "    try:\n"
        "        return drain(*args)\n"
        "    finally:\n"
        "        if os.getpid() != parent:\n"
        "            marker.touch()\n"
        "            time.sleep(0.2)\n"
        "cli.generate_scene_records, cli._drain = generate_logged, drain_marked\n"
        "code = cli.main(['gen', '--input-root', sys.argv[3], '--out', sys.argv[4],\n"
        "                 '--workers', '2'])\n"
        + _NO_CHILD_LEFT +
        "sys.exit(code)\n")
    out = tmp_path / "r.jsonl"
    run = _run_python(code, tmp_path / "helper-done", log, root, out)
    assert run.returncode == 2, run.stderr
    (line,) = run.stderr.splitlines()
    assert line.startswith("error: ") and line.endswith(": failed in a helper"), line
    assert run.stdout.splitlines() == ["no child left"], run.stdout
    calls = log.read_text().splitlines()
    helper = [c for c in calls if c.startswith("helper ")]
    assert len(helper) == 1 and helper[0].split(" ", 1)[1] in line, calls
    assert len(calls) - len(helper) <= 1, calls
    assert sorted(os.listdir(tmp_path)) == ["calls.txt", "helper-done", "scenes"]


def test_gen_dead_helper_fails_the_run(tmp_path):
    # The helper ends abruptly on the first scene it claims; the parent holds
    # its own first scene until the helper has ended (waitid's WNOWAIT leaves
    # it to be reaped), so a helper certainly claims one and the parent's
    # next poll certainly finds it dead.
    root = _small_corpus(tmp_path / "scenes")
    code = (
        "import os, sys, time\n"
        "from pathlib import Path\n"
        "from sceneqa import cli\n"
        "parent, marker, generated = os.getpid(), Path(sys.argv[1]), []\n"
        "generate = cli.generate_scene_records\n"
        "def generate_or_die(inputs, *rest):\n"
        "    if os.getpid() != parent:\n"
        "        marker.touch()\n"
        "        os._exit(1)\n"
        "    generated.append(inputs.scene_path)\n"
        "    deadline = time.monotonic() + 60\n"
        "    while not marker.exists() and time.monotonic() < deadline:\n"
        "        time.sleep(0.01)\n"
        "    flags = os.WEXITED | os.WNOHANG | os.WNOWAIT\n"
        "    while os.waitid(os.P_ALL, 0, flags) is None and time.monotonic() < deadline:\n"
        "        time.sleep(0.01)\n"
        "    return generate(inputs, *rest)\n"
        "cli.generate_scene_records = generate_or_die\n"
        "code = cli.main(['gen', '--input-root', sys.argv[2], '--out', sys.argv[3],\n"
        "                 '--workers', '2'])\n"
        "print(len(generated))\n"
        + _NO_CHILD_LEFT +
        "sys.exit(code)\n")
    run = _run_python(code, tmp_path / "helper-died", root, tmp_path / "r.jsonl")
    assert run.returncode == 4, run.stderr
    (line,) = run.stderr.splitlines()
    assert line == "error: a gen worker process ended abruptly (killed, or out of memory)", line
    # the parent's first scene, claimed before the helper died, and no other
    assert run.stdout.splitlines() == ["1", "no child left"], run.stdout
    assert sorted(os.listdir(tmp_path)) == ["helper-died", "scenes"]


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_gen_does_not_load_multiprocessing(tmp_path, workers):
    # The helpers are forked with os.fork, with no pool machinery in any process.
    root = _small_corpus(tmp_path / "scenes", n=3)
    code = (
        "import sys\n"
        "from sceneqa.cli import main\n"
        "code = main(['gen', '--input-root', sys.argv[1], '--out', sys.argv[2],\n"
        "             '--workers', sys.argv[3], '--tasks', 'obj_count'])\n"
        "print(code, [m for m in ('multiprocessing', 'concurrent.futures')\n"
        "             if m in sys.modules])\n")
    run = _run_python(code, root, tmp_path / "r.jsonl", workers)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 []", run.stdout


def test_gen_forks_a_single_threaded_parent_and_reaps_every_helper(tmp_path):
    # A fork copies only the thread that calls it, so a lock another thread
    # held would stay held in the helper for good.
    root = _small_corpus(tmp_path / "scenes", n=3)
    code = (
        "import os, sys, threading\n"
        "from sceneqa.cli import main\n"
        "fork, threads = os.fork, []\n"
        "def fork_counted():\n"
        "    threads.append(threading.active_count())\n"
        "    return fork()\n"
        "os.fork = fork_counted\n"
        "code = main(['gen', '--input-root', sys.argv[1], '--out', sys.argv[2],\n"
        "             '--workers', '3', '--tasks', 'obj_count'])\n"
        "print(code, threads)\n"
        + _NO_CHILD_LEFT)
    run = _run_python(code, root, tmp_path / "r.jsonl")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-2:] == ["0 [1, 1]", "no child left"], run.stdout


def test_gen_workers_without_fork_is_input_error(scene_dir, tmp_path, capsys, monkeypatch):
    generated = []
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(cli, "generate_scene_records", lambda *args: generated.append(args))
    argv = ["gen", "--input-root", str(scene_dir.parent), "--out", str(tmp_path / "r.jsonl")]
    assert main([*argv, "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --workers: ") and "os.fork" in err and err.count("\n") == 1
    assert generated == [] and os.listdir(tmp_path) == ["scenes"]


# The modules each command must leave unloaded: ingest needs no graph, record,
# route, scoring or generator code; eval and stats read records but build no
# graph; only gen imports the generator modules, and only fusion-check fusion.
GENERATOR_MODULES = ("sceneqa.qa_spatial", "sceneqa.qa_temporal")
NOT_GEN = ("sceneqa.graph", "sceneqa.route_plan", *GENERATOR_MODULES, "sceneqa.fusion")
UNLOADED = {
    "ingest": (*NOT_GEN, "sceneqa.qa_records", "sceneqa.evaluate", "dataclasses"),
    "eval": NOT_GEN,
    "stats": (*NOT_GEN, "sceneqa.evaluate"),
    "gen": ("sceneqa.evaluate", "sceneqa.fusion"),
}


@pytest.mark.parametrize("command", sorted(UNLOADED))
def test_only_gen_loads_the_generator_modules(tmp_path, command):
    scenes, records, preds = tmp_path / "scenes", tmp_path / "r.jsonl", tmp_path / "p.jsonl"
    gen = ["gen", "--input-root", str(_small_corpus(scenes, n=1)), "--out", str(records),
           "--tasks", "obj_count"]
    if command != "gen":
        assert main(gen) == 0
        _, recs = read_records_jsonl(records)
        preds.write_text("".join(json.dumps({"qid": r.qid, "raw_text": "3"}) + "\n"
                                 for r in recs))
    argv = {"ingest": [*_ingest_inputs(tmp_path), "--out", str(tmp_path / "meta.json")],
            "eval": ["eval", "--records", str(records), "--predictions", str(preds)],
            "stats": ["stats", "--records", str(records)],
            "gen": gen}[command]
    code = (
        "import json, sys\n"
        "from sceneqa.cli import main\n"
        "code = main(json.loads(sys.argv[1]))\n"
        f"print(code, [m for m in {UNLOADED[command]!r} if m in sys.modules])\n")
    run = _run_python(code, json.dumps(argv))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 []", run.stdout


def test_gen_loads_the_generator_modules_before_the_fan_out(tmp_path):
    # Loaded before the helpers fork, the modules' pages are shared with them.
    root = _small_corpus(tmp_path / "scenes", n=2)
    gen_modules = ("sceneqa.graph", "sceneqa.qa_records", "sceneqa.route_plan",
                   *GENERATOR_MODULES)
    code = (
        "import sys\n"
        "from sceneqa import cli\n"
        "fan_out, seen = cli._fan_out, []\n"
        "def fan_out_logged(*args):\n"
        f"    seen.append([m for m in {gen_modules!r} if m not in sys.modules])\n"
        "    return fan_out(*args)\n"
        "cli._fan_out = fan_out_logged\n"
        "code = cli.main(['gen', '--input-root', sys.argv[1], '--out', sys.argv[2],\n"
        "                 '--workers', '2', '--tasks', 'obj_count'])\n"
        "print(code, seen)\n")
    run = _run_python(code, root, tmp_path / "r.jsonl")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 [[]]", run.stdout


# The functions that tests and the benchmark's tracer replace as cli
# attributes, by defining module; cli binds them on first use.
DEFERRED = {"load_trajectories": "route_plan", "gen_route_plan": "route_plan",
            "score_run": "evaluate", "record_to_dict": "qa_records",
            "record_from_dict": "qa_records"}


def test_deferred_names_read_from_cli_are_the_defining_functions():
    code = (
        "import importlib\n"
        "from sceneqa import cli\n"
        f"deferred = {DEFERRED!r}\n"
        "print(sorted(n for n, m in deferred.items()\n"
        "             if getattr(cli, n) is not getattr(importlib.import_module(\n"
        "                 'sceneqa.' + m), n)))\n")
    run = _run_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]", run.stdout
    assert cli._DEFERRED == DEFERRED


def test_a_replacement_set_on_cli_before_main_is_what_the_commands_call(scene_dir, tmp_path):
    preds = tmp_path / "p.jsonl"
    preds.write_text("")
    code = (
        "import importlib, sys\n"
        "from sceneqa import cli\n"
        "calls = set()\n"
        "def counted(name, fn):\n"
        "    def call(*args, **kwargs):\n"
        "        calls.add(name)\n"
        "        return fn(*args, **kwargs)\n"
        "    return call\n"
        f"fakes = {{n: counted(n, getattr(importlib.import_module('sceneqa.' + m), n))\n"
        f"         for n, m in {DEFERRED!r}.items()}}\n"
        "for name, fake in fakes.items():\n"
        "    setattr(cli, name, fake)\n"
        "root, records, preds = sys.argv[1:]\n"
        "codes = [cli.main(['gen', '--input-root', root, '--out', records]),\n"
        "         cli.main(['eval', '--records', records, '--predictions', preds]),\n"
        "         cli.main(['stats', '--records', records])]\n"
        "cli._bind(*fakes)\n"
        "print(codes, sorted(calls), all(getattr(cli, n) is f for n, f in fakes.items()))\n")
    run = _run_python(code, scene_dir.parent, tmp_path / "r.jsonl", preds)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == f"[0, 0, 0] {sorted(DEFERRED)} True", run.stdout


@pytest.mark.parametrize("module", [cli, sceneqa], ids=["cli", "sceneqa"])
def test_an_unknown_name_is_attribute_error(module):
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


def test_every_package_export_is_the_defining_modules_object():
    code = (
        "import sys\n"
        "import sceneqa\n"
        "exports = [n for n in sceneqa.__all__ if n != '__version__']\n"
        "loaded = [m for m in ('sceneqa.graph', 'sceneqa.qa_records') if m in sys.modules]\n"
        "wrong = [n for n in exports if getattr(sceneqa, n) is not getattr(\n"
        "    sys.modules[getattr(sceneqa, n).__module__], n)]\n"
        "print(loaded, wrong, sorted(set(sceneqa.__all__) - set(dir(sceneqa))),\n"
        "      len(exports), sceneqa.__version__)\n")
    run = _run_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[] [] [] 21 0.1.0", run.stdout


def test_main_adds_one_exit_hook_and_freezes_nothing_while_running(tmp_path):
    argv = [*_ingest_inputs(tmp_path), "--out", str(tmp_path / "meta.json")]
    code = (
        "import atexit, gc, json, sys\n"
        "from sceneqa.cli import main\n"
        "hooks = atexit._ncallbacks()\n"
        "codes = [main(json.loads(sys.argv[1])) for _ in range(2)]\n"
        "print(codes, atexit._ncallbacks() - hooks, gc.get_freeze_count())\n")
    run = _run_python(code, json.dumps(argv))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[0, 0] 1 0", run.stdout


def test_gen_reads_the_cloud_only_for_room_size(scene_dir, tmp_path, capsys):
    (scene_dir / "cloud.ply").write_bytes(b"ply\nformat ascii 1.0\ncorrupt\n")
    out = tmp_path / "records.jsonl"
    assert main(["gen", "--input-root", str(scene_dir.parent), "--out", str(out),
                 "--seed", "5", "--tasks", "obj_count,obj_size"]) == 0
    _, records = read_records_jsonl(out)
    assert records and {r.task for r in records} <= {"obj_count", "obj_size"}

    assert main(["gen", "--input-root", str(scene_dir.parent), "--out", str(out),
                 "--seed", "5", "--tasks", "obj_count,obj_size,room_size"]) == 2
    assert str(scene_dir / "cloud.ply") in capsys.readouterr().err


def test_gen_config_file_with_flag_overrides(scene_dir, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seed": 1, "max_per_task": 5,
                                    "tasks": ["obj_count", "abs_dist"]}))
    out = tmp_path / "r.jsonl"
    assert main(["gen", "--input-root", str(scene_dir.parent), "--out", str(out),
                 "--config", str(cfg_file), "--seed", "2"]) == 0
    header, records = read_records_jsonl(out)
    assert header["config"]["seed"] == 2  # flag wins
    assert header["config"]["max_per_task"] == 5
    assert {r.task for r in records} <= {"obj_count", "abs_dist"}


def test_gen_unknown_task_is_input_error(scene_dir, tmp_path, capsys):
    code = main(["gen", "--input-root", str(scene_dir.parent),
                 "--out", str(tmp_path / "r.jsonl"), "--tasks", "bogus"])
    assert code == 2
    assert capsys.readouterr().err == "error: --tasks: unknown task(s): bogus\n"


def test_gen_missing_inputs_is_input_error(tmp_path):
    code = main(["gen", "--input-root", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "r.jsonl")])
    assert code == 2


@pytest.mark.parametrize("missing", ["scene_metadata.json", "frame_metadata.json"])
def test_gen_half_written_scene_dir_is_input_error(tmp_path, capsys, missing):
    root = _small_corpus(tmp_path / "scenes", n=2)
    (root / "m01" / missing).unlink()
    out = tmp_path / "r.jsonl"
    assert main(["gen", "--input-root", str(root), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {root / 'm01' / missing}: missing"), err
    assert not out.exists()


@pytest.mark.parametrize("name, edit, message", [
    ("scene_metadata.json", lambda doc: doc["objects"][0].update(rotation=[1e308, 0, 0, 0]),
     "objects[0]: rotation quaternion is not unit norm"),
    ("frame_metadata.json", lambda doc: doc["frames"][1]["pose_c2w"].__setitem__(0, 1e155),
     "frames[1].pose.rotation: rotation is not orthonormal"),
], ids=["quaternion", "pose"])
def test_gen_overflowing_value_is_input_error_with_warnings_as_errors(tmp_path, capsys, name,
                                                                       edit, message):
    """A value whose square overflows fails its check as an input error; no
    RuntimeWarning is raised on the way, as CI runs with warnings as errors."""
    root = _small_corpus(tmp_path / "scenes", n=1)
    path = root / "m00" / name
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["gen", "--input-root", str(root), "--out", str(tmp_path / "r.jsonl"),
                     "--workers", "1"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_gen_skips_a_subdirectory_without_metadata(tmp_path, capsys):
    root = _small_corpus(tmp_path / "scenes", n=1)
    (root / "notes").mkdir()
    (root / "notes" / "readme.txt").write_text("not a scene\n")
    assert [Path(s.scene_path).parent.name for s in discover_scenes(root)] == ["m00"]
    assert main(["gen", "--input-root", str(root), "--out", str(tmp_path / "r.jsonl")]) == 0
    header, records = read_records_jsonl(tmp_path / "r.jsonl")
    assert records and {r.scene_id for r in records} == {"m00"}


def test_gen_graph_dump(scene_dir, tmp_path):
    write_scene_dir(scene_dir.parent, *make_scene(seed=2025, scene_id="cli001"))
    runs = {}
    for workers in ("1", "2"):
        dumps = tmp_path / f"graphs{workers}"
        assert main(["gen", "--input-root", str(scene_dir.parent),
                     "--out", str(tmp_path / "r.jsonl"), "--tasks", "obj_count",
                     "--workers", workers, "--dump-graphs", str(dumps)]) == 0
        runs[workers] = {p.name: p.read_bytes() for p in sorted(dumps.iterdir())}
    assert sorted(runs["1"]) == ["cli000.json", "cli001.json"]
    assert runs["2"] == runs["1"]
    doc = json.loads(runs["1"]["cli000.json"])
    assert doc["scene_id"] == "cli000"
    assert "first_seen" in doc


@pytest.mark.parametrize("scene_id", ["../escaped", "sub/dir", "a\u0000b"])
def test_gen_graph_dump_needs_a_file_name_scene_id(tmp_path, capsys, scene_id):
    scene_dir = write_scene_dir(tmp_path / "scenes", *make_scene(seed=2028, scene_id="ok"))
    for name in ("scene_metadata.json", "frame_metadata.json"):
        doc = json.loads((scene_dir / name).read_text())
        doc["scene_id"] = scene_id
        (scene_dir / name).write_text(json.dumps(doc))
    dumps = tmp_path / "dumps" / "inner"
    out = tmp_path / "r.jsonl"
    assert main(["gen", "--input-root", str(scene_dir.parent),
                 "--out", str(out), "--tasks", "obj_count",
                 "--dump-graphs", str(dumps)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {scene_dir / 'scene_metadata.json'}: scene_id "), line
    assert os.listdir(tmp_path / "dumps") == ["inner"] and not os.listdir(dumps)
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_gen_frame_file_of_another_scene_is_input_error(tmp_path, capsys, workers):
    root = _small_corpus(tmp_path / "scenes", n=2)
    # m01's frames copied from m00: the instance ids overlap, the scene_id does not
    frames = root / "m01" / "frame_metadata.json"
    frames.write_bytes((root / "m00" / "frame_metadata.json").read_bytes())
    out = tmp_path / "out" / "records.jsonl"
    out.parent.mkdir()
    assert main(["gen", "--input-root", str(root), "--out", str(out),
                 "--workers", workers]) == 2
    assert capsys.readouterr().err == (
        f"error: {frames}: scene_id 'm00' is not 'm01', the scene_id of "
        f"{root / 'm01' / 'scene_metadata.json'}\n")
    assert os.listdir(out.parent) == []


def test_gen_needs_an_input_root(tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["gen", "--out", str(tmp_path / "r.jsonl")])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: sceneqa gen ") and "--input-root" in err, err
    assert os.listdir(tmp_path) == []


def test_gen_single_frame_capture_skips_temporal_tasks(tmp_path):
    scene, frames = make_scene(seed=2026, scene_id="oneframe")
    frames = FrameMetadata(frames.scene_id, frames.intrinsics, frames.frames[:1])
    root = tmp_path / "scenes"
    write_scene_dir(root, scene, frames)
    out = tmp_path / "r.jsonl"
    assert main(["gen", "--input-root", str(root), "--out", str(out)]) == 0
    _, records = read_records_jsonl(out)
    tasks = {r.task for r in records}
    assert tasks & set(qa_spatial.SPATIAL_GENERATORS)
    assert not tasks & set(qa_temporal.TEMPORAL_GENERATORS)


def test_gen_never_writes_zero_truth(tmp_path, capsys):
    # Zero-width extents (no cloud) give a 0 m^2 room; a 4 x 3 x 2 mm object
    # has a longest side that rounds to 0 cm. Neither may become a record.
    scene, frames = make_scene(seed=2027, scene_id="flat")
    lo, hi = scene.scene_extents
    tiny = ObjectInstance(999, "button",
                          OrientedBox3([1.0, 1.0, 0.5], [0.004, 0.003, 0.002], [1, 0, 0, 0]))
    scene = SceneMetadata(
        scene.scene_id, scene_extents=(lo, np.array([lo[0], hi[1], hi[2]])),
        room_center=scene.room_center, objects=scene.objects + (tiny,),
        category_counts={**scene.category_counts, "button": 1})
    root = tmp_path / "scenes"
    write_scene_dir(root, scene, frames)
    records = tmp_path / "r.jsonl"
    assert main(["gen", "--input-root", str(root), "--out", str(records)]) == 0
    _, recs = read_records_jsonl(records)
    assert all(float(r.ground_truth) > 0 for r in recs if r.answer_type == "NA")
    assert not any(r.task == "room_size" for r in recs)
    assert not any(r.task == "obj_size" and r.meta["instance"] == 999 for r in recs)
    assert any(r.task == "obj_size" for r in recs)

    preds = tmp_path / "preds.jsonl"
    write_jsonl(preds, [{"qid": r.qid, "raw_text": "0"} for r in recs])
    assert main(["eval", "--records", str(records), "--predictions", str(preds)]) == 0


@pytest.mark.parametrize("settings,field", [
    ({"sample_frames": 0}, "sample_frames"),
    ({"sample_frames": 1}, "sample_frames"),
    ({"no_such_setting": 3}, "no_such_setting"),
    ({"workers": "2"}, "workers"),
    ({"workers": 0}, "workers"),
    ({"workers": True}, "workers"),
    ({"tasks": "obj_count"}, "tasks"),
    ({"tasks": ["obj_count", 3]}, "tasks"),
    ({"max_per_task": 2.5}, "max_per_task"),
    ({"max_per_task": True}, "max_per_task"),
    ({"sample_frames": 3.5}, "sample_frames"),
    ({"min_bbox_area_px": "400"}, "min_bbox_area_px"),
    ({"seed": "1"}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"route_alternative_mode": "yes"}, "route_alternative_mode"),
    ({"dominance_ratio": True}, "dominance_ratio"),
    ({"max_anchor_dist_m": 10 ** 400}, "max_anchor_dist_m"),
    pytest.param('{"dominance_ratio": 1e400}', "dominance_ratio", id="float_overflows_to_inf"),
])
def test_gen_bad_config_is_input_error(scene_dir, tmp_path, capsys, settings, field):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(settings if isinstance(settings, str) else json.dumps(settings))
    code = main(["gen", "--input-root", str(scene_dir.parent),
                 "--out", str(tmp_path / "r.jsonl"), "--config", str(cfg_file)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(cfg_file) in err and field in err


def test_gen_config_keeps_valid_values_as_written(scene_dir, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"dominance_ratio": 2, "min_bbox_area_px": 400,
                                    "route_alternative_mode": True, "seed": -3}))
    out = tmp_path / "r.jsonl"
    assert main(["gen", "--input-root", str(scene_dir.parent), "--out", str(out),
                 "--config", str(cfg_file), "--tasks", "obj_count"]) == 0
    header = out.read_text().splitlines()[0]
    assert '"dominance_ratio":2,' in header and '"min_bbox_area_px":400,' in header
    assert '"route_alternative_mode":true,' in header and '"seed":-3' in header


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_gen_bad_workers_flag_is_input_error(scene_dir, tmp_path, capsys, workers):
    code = main(["gen", "--input-root", str(scene_dir.parent),
                 "--out", str(tmp_path / "r.jsonl"), "--workers", workers])
    assert code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("command,target,content", [
    ("gen", "frame_metadata.json", b'{"scene_id": '),
    ("gen", "scene_metadata.json", b'{"scene_id": "caf\xe9"}'),
    ("gen", "config.json", b"{workers: 2}"),
    ("ingest", "labels.json", b'{"4": '),
], ids=["frames_truncated", "scene_not_utf8", "config_not_json", "label_map_truncated"])
def test_unreadable_json_names_the_file(scene_dir, tmp_path, capsys, command, target, content):
    labels, config = tmp_path / "labels.json", tmp_path / "config.json"
    labels.write_text(json.dumps({"4": "chair"}))
    config.write_text("{}")
    bad = (tmp_path if target in ("labels.json", "config.json") else scene_dir) / target
    bad.write_bytes(content)
    if command == "gen":
        argv = ["gen", "--input-root", str(scene_dir.parent), "--config", str(config),
                "--out", str(tmp_path / "r.jsonl")]
    else:
        ply = tmp_path / "scan.ply"
        write_ply(ply, make_cluster_cloud(11, [(1, 4, [0, 0, 0.5], [1, 1, 1], 200)]))
        argv = ["ingest", "--ply", str(ply), "--label-map", str(labels),
                "--scene-id", "x", "--out", str(tmp_path / "o.json")]
    assert main(argv) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [
    ("gen", "--out"), ("gen", "--config"), ("gen", "--input-root"),
    ("ingest", "--ply"), ("ingest", "--label-map"), ("stats", "--records"),
])
def test_unopenable_path_is_input_error(scene_dir, tmp_path, capsys, command, flag):
    # a directory where a file is expected; a file where a directory is
    ply, labels, config = tmp_path / "scan.ply", tmp_path / "labels.json", tmp_path / "c.json"
    write_ply(ply, make_cluster_cloud(11, [(1, 4, [0, 0, 0.5], [1, 1, 1], 200)]))
    labels.write_text(json.dumps({"4": "chair"}))
    config.write_text("{}")
    argv = {
        "gen": ["gen", "--input-root", str(scene_dir.parent), "--config", str(config),
                "--out", str(tmp_path / "r.jsonl")],
        "ingest": ["ingest", "--ply", str(ply), "--label-map", str(labels),
                   "--scene-id", "x", "--out", str(tmp_path / "o.json")],
        "stats": ["stats", "--records", ""],
    }[command]
    bad = tmp_path / "bad"
    if flag == "--input-root":
        bad.write_text("{}")
    else:
        bad.mkdir()
    argv[argv.index(flag) + 1] = str(bad)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err


@pytest.mark.parametrize("out", ["dir", "missing/r.jsonl", "old.jsonl"])
def test_bad_out_fails_before_generating(scene_dir, tmp_path, capsys, out):
    # the only scene is malformed: an error naming --out shows that no scene was read
    (scene_dir / "frame_metadata.json").write_bytes(b'{"scene_id": ')
    (tmp_path / "dir").mkdir()
    (tmp_path / "old.jsonl").write_text("old\n")
    out = tmp_path / out
    assert main(["gen", "--input-root", str(scene_dir.parent), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if out.name == "old.jsonl":  # a writable --out is left alone until the records are ready
        assert str(scene_dir) in err and out.read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["dir", "old.jsonl", "scenes"]
        return
    with pytest.raises(OSError) as opened:
        open(out, "w")
    assert err == f"error: {opened.value}\n"
    assert not (tmp_path / "missing").exists() and not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("out", ["dir", "missing/o.json"])
@pytest.mark.parametrize("command", ["ingest", "eval", "stats"])
def test_bad_out_fails_before_reading_input(tmp_path, capsys, monkeypatch, command, out):
    records, preds = tmp_path / "r.jsonl", tmp_path / "p.jsonl"
    assert main(["gen", "--input-root", str(_small_corpus(tmp_path / "scenes", n=1)),
                 "--out", str(records), "--tasks", "obj_count"]) == 0
    preds.write_text("")
    argv = {"ingest": _ingest_inputs(tmp_path),
            "eval": ["eval", "--records", str(records), "--predictions", str(preds)],
            "stats": ["stats", "--records", str(records)]}[command]
    (tmp_path / "dir").mkdir()
    out = tmp_path / out
    calls = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return call

    for name in ("parse_ply", "score_run", "read_jsonl", "iter_jsonl"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    with pytest.raises(OSError) as opened:
        open(out, "w")
    assert capsys.readouterr() == ("", f"error: {opened.value}\n")
    assert calls == []
    assert not (tmp_path / "missing").exists() and not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", ["cloud.ply", "trajectories.jsonl"])
def test_scene_file_that_is_a_directory_is_input_error(tmp_path, capsys, name, workers):
    root = tmp_path / "scenes"
    for i in range(2):
        write_scene_dir(root, *make_scene(seed=3200 + i, scene_id=f"o{i:02d}"))
    bad = root / "o01" / name
    bad.mkdir()
    assert main(["gen", "--input-root", str(root), "--out", str(tmp_path / "r.jsonl"),
                 "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err
    assert os.listdir(tmp_path) == ["scenes"]


@pytest.mark.parametrize("target,field,edit", [
    ("scene_metadata.json", "objects[0].center[0]",
     lambda doc: doc["objects"][0]["center"].__setitem__(0, 10 ** 400)),
    ("frame_metadata.json", "intrinsics.fx",
     lambda doc: doc["intrinsics"].__setitem__("fx", 10 ** 400)),
    ("frame_metadata.json", "intrinsics.width",
     lambda doc: doc["intrinsics"].__setitem__("width", 10 ** 400)),
    ("frame_metadata.json", "intrinsics.height",
     lambda doc: doc["intrinsics"].__setitem__("height", 10 ** 400)),
], ids=["scene", "frames", "frames_width", "frames_height"])
def test_huge_json_integer_is_schema_violation(scene_dir, tmp_path, capsys, target, field, edit):
    path = scene_dir / target
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert main(["gen", "--input-root", str(scene_dir.parent),
                 "--out", str(tmp_path / "r.jsonl")]) == 2
    assert field in capsys.readouterr().err


SAMPLE_ERROR_ARGS = {
    errors.PlyError: ("bad header", 12),
    errors.SchemaViolation: ("frames[0].frame_id", "expected an integer"),
    errors.DanglingInstanceRef: (2, 999),
}


ERROR_CLASSES = sorted((c for c in vars(errors).values()
                        if isinstance(c, type) and issubclass(c, errors.SceneQaError)),
                       key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_survives_pickling(cls):
    # gen workers hand their errors back to the parent process pickled
    args = next((a for base, a in SAMPLE_ERROR_ARGS.items() if issubclass(cls, base)),
                ("something broke",))
    exc = cls(*args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls and str(back) == str(exc) and vars(back) == vars(exc)


@pytest.mark.parametrize("workers,inputs", [
    pytest.param(workers, inputs, id=f"{inputs}-{workers}" if inputs else workers)
    for inputs in ("", "cloud_and_trajectories", "bad_cloud") for workers in ("1", "2")])
def test_gen_dangling_instance_names_the_frame_file(tmp_path, workers, inputs):
    # the graph is built after the scene's cloud and trajectories are read,
    # so only a malformed cloud is reported before the dangling instance
    root = tmp_path / "scenes"
    rng = np.random.default_rng(31)
    for i in range(2):
        scene, frames = make_scene(seed=3100 + i, scene_id=f"d{i:02d}")
        extras = {}
        if inputs:  # "" is the metadata pair alone
            extras = {"cloud": make_rect_cloud(3100 + i, 6.0, 5.0),
                      "trajectories": [make_single_turn_waypoints(rng)[0] for _ in range(3)]}
        write_scene_dir(root, scene, frames, **extras)
    path = root / "d01" / "frame_metadata.json"
    doc = json.loads(path.read_text())
    doc["frames"][2]["visible_objects"].append({"instance_id": 999, "bbox_2d": [1, 1, 50, 50]})
    path.write_text(json.dumps(doc))
    cloud = root / "d01" / "cloud.ply"
    if inputs == "bad_cloud":
        cloud.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 2\nend_header\n")
    src = str(Path(sceneqa.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-m", "sceneqa.cli", "gen", "--input-root", str(root),
                          "--out", str(tmp_path / "r.jsonl"), "--workers", workers],
                         capture_output=True, text=True, timeout=120, env=env)
    assert run.returncode == 2, run.stderr
    lines = run.stderr.splitlines()
    if inputs == "bad_cloud":
        assert len(lines) == 1 and lines[0].startswith(f"error: {cloud}: "), run.stderr
    else:
        assert lines == [f"error: {path}: frame 2 references unknown instance 999"], run.stderr
    assert os.listdir(tmp_path) == ["scenes"]


@pytest.mark.parametrize("category", [5, "", None, ["x"]], ids=["int", "empty", "null", "list"])
def test_label_map_bad_category_is_input_error(tmp_path, capsys, category):
    ply = tmp_path / "scan.ply"
    write_ply(ply, make_cluster_cloud(11, [(1, 4, [0, 0, 0.5], [1, 1, 1], 200)]))
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"7": "table", "4": category}))
    assert main(["ingest", "--ply", str(ply), "--label-map", str(labels),
                 "--scene-id", "x", "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert str(labels) in err and "label 4" in err, err


@pytest.mark.parametrize("other", ["04", "+4", " 4"])
def test_label_map_duplicate_label_is_input_error(tmp_path, capsys, other):
    ply = tmp_path / "scan.ply"
    write_ply(ply, make_cluster_cloud(11, [(1, 4, [0, 0, 0.5], [1, 1, 1], 200)]))
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"4": "chair", other: "table"}))
    out = tmp_path / "o.json"
    assert main(["ingest", "--ply", str(ply), "--label-map", str(labels),
                 "--scene-id", "x", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(labels) in err and "'4'" in err and repr(other) in err, err
    assert not out.exists()


@pytest.mark.parametrize("key,canonical", [("4_0", "40"), ("\u0664", "4"), ("04", "4")],
                         ids=["underscore", "arabic_indic_digit", "leading_zero"])
def test_label_map_non_canonical_key_is_input_error(tmp_path, capsys, key, canonical):
    ply = tmp_path / "scan.ply"
    write_ply(ply, make_cluster_cloud(11, [(1, 4, [0, 0, 0.5], [1, 1, 1], 200)]))
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({key: "chair"}))
    out = tmp_path / "o.json"
    assert main(["ingest", "--ply", str(ply), "--label-map", str(labels),
                 "--scene-id", "x", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(labels) in err and repr(key) in err and f"(write '{canonical}')" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "gen"])
def test_json_object_that_repeats_a_key_is_input_error(scene_dir, tmp_path, capsys, command):
    # json.load would keep the last value: {"4": "table"} here, {"seed": 2} there
    if command == "ingest":
        bad = tmp_path / "repeated.json"
        bad.write_text('{"4": "chair", "4": "table", "7": "lamp"}')
        argv = _ingest_inputs(tmp_path)
        argv[argv.index("--label-map") + 1] = str(bad)
        key = "4"
    else:
        bad = tmp_path / "config.json"
        bad.write_text('{"seed": 1, "tasks": ["obj_count"], "seed": 2}')
        argv = ["gen", "--input-root", str(scene_dir.parent), "--config", str(bad)]
        key = "seed"
    out = tmp_path / "out" / "o.json"
    out.parent.mkdir()
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: key {key!r} appears twice in one object\n")
    assert os.listdir(out.parent) == []


@pytest.mark.parametrize("min_points", ["0", "-5"])
def test_ingest_min_points_below_one_is_input_error(tmp_path, capsys, min_points):
    out = tmp_path / "out" / "scene_metadata.json"
    out.parent.mkdir()
    assert main([*_ingest_inputs(tmp_path), "--out", str(out),
                 "--min-points", min_points]) == 2
    assert capsys.readouterr().err == (
        f"error: --min-points: expected an integer >= 1, got {min_points}\n")
    assert os.listdir(out.parent) == []


def test_ingest_stdout_counts_instances_and_dropped(tmp_path, capsys):
    cloud = make_cluster_cloud(11, [(3, 4, [0, 0, 0.5], [1, 1, 1], 120),
                                    (0, 7, [4, 4, 0.5], [1, 1, 1], 49),
                                    (9, 7, [4, 0, 0.5], [1, 1, 1], 50),
                                    (5, 4, [0, 4, 0.5], [1, 1, 1], 3)])
    perm = np.random.default_rng(11).permutation(len(cloud))
    cloud = type(cloud)(cloud.positions[perm], cloud.colors[perm],
                        cloud.semantic_labels[perm], cloud.instance_labels[perm])
    ply = tmp_path / "scan.ply"
    write_ply(ply, cloud, binary=True)
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"4": "chair", "7": "table"}))
    assert main(["ingest", "--ply", str(ply), "--label-map", str(labels),
                 "--scene-id", "scan0", "--out", str(tmp_path / "o.json")]) == 0
    assert capsys.readouterr().out == "scene scan0: 2 instance(s), 2 dropped (< 50 points)\n"
    meta = load_scene_metadata(tmp_path / "o.json")
    assert [o.instance_id for o in meta.objects] == [3, 9]


def test_ingest_min_points_drops_a_smaller_instance(tmp_path, capsys):
    cloud = make_cluster_cloud(11, [(3, 4, [0, 0, 0.5], [1, 1, 1], 120),
                                    (9, 7, [4, 0, 0.5], [1, 1, 1], 80)])
    ply = tmp_path / "scan.ply"
    write_ply(ply, cloud, binary=True)
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"4": "chair", "7": "table"}))
    argv = ["ingest", "--ply", str(ply), "--label-map", str(labels), "--scene-id", "scan0",
            "--out", str(tmp_path / "o.json")]
    assert main(argv) == 0  # both clear the default of 50 points
    assert capsys.readouterr().out == "scene scan0: 2 instance(s), 0 dropped (< 50 points)\n"
    assert main([*argv, "--min-points", "100"]) == 0
    assert capsys.readouterr().out == "scene scan0: 1 instance(s), 1 dropped (< 100 points)\n"
    assert [o.instance_id for o in load_scene_metadata(tmp_path / "o.json").objects] == [3]


def test_ingest_with_no_instance_left_names_the_ply_and_the_flag(tmp_path, capsys):
    cloud = make_cluster_cloud(11, [(3, 4, [0, 0, 0.5], [1, 1, 1], 120),
                                    (9, 7, [4, 0, 0.5], [1, 1, 1], 80)])
    ply = tmp_path / "scan.ply"
    write_ply(ply, cloud, binary=True)
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"4": "chair", "7": "table"}))
    out = tmp_path / "out" / "scene_metadata.json"
    out.parent.mkdir()
    assert main(["ingest", "--ply", str(ply), "--label-map", str(labels), "--scene-id", "scan0",
                 "--out", str(out), "--min-points", "121"]) == 2
    assert capsys.readouterr().err == (
        f"error: {ply}: --min-points: no instance has at least 121 points\n")
    assert os.listdir(out.parent) == []


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("coord", [1e160, 1e300])
def test_gen_overflowing_truth_names_the_scene_file(tmp_path, workers, coord):
    root = tmp_path / "scenes"
    write_scene_dir(root, *make_scene(seed=2024, scene_id="h00"))
    write_scene_dir(root, *make_scene(seed=3100, scene_id="h01"))
    path = root / "h00" / "scene_metadata.json"
    doc = json.loads(path.read_text())
    doc["objects"][0]["center"] = [coord, coord, 1.0]  # finite, but its distances would overflow
    path.write_text(json.dumps(doc))
    src = str(Path(sceneqa.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-m", "sceneqa.cli", "gen", "--input-root", str(root),
                          "--out", str(tmp_path / "r.jsonl"), "--workers", workers],
                         capture_output=True, text=True, timeout=120, env=env)
    assert run.returncode == 2, run.stderr
    # rejected where it is loaded, before numpy can warn of an overflow
    assert run.stderr.startswith(f"error: {path}: objects[0]: ") and \
        run.stderr.count("\n") == 1, run.stderr
    assert os.listdir(tmp_path) == ["scenes"]


def test_huge_waypoint_is_input_error(scene_dir, tmp_path, capsys):
    path = scene_dir / "trajectories.jsonl"
    path.write_text(json.dumps({"scene_id": "cli000",
                                "waypoints": [[0, 0, 0], [10 ** 400, 0, 0]]}) + "\n")
    assert main(["gen", "--input-root", str(scene_dir.parent),
                 "--out", str(tmp_path / "r.jsonl")]) == 2
    assert f"{path}:1" in capsys.readouterr().err


@pytest.mark.parametrize("coord", [1e160, 1e300])
def test_gen_far_camera_names_the_frame_file(tmp_path, coord):
    root = tmp_path / "scenes"
    write_scene_dir(root, *make_scene(seed=2024, scene_id="h00"))
    path = root / "h00" / "frame_metadata.json"
    doc = json.loads(path.read_text())
    for fr in doc["frames"]:
        fr["pose_c2w"][3] = coord  # finite, but camera-object distances would overflow
    path.write_text(json.dumps(doc))
    src = str(Path(sceneqa.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-m", "sceneqa.cli", "gen", "--input-root", str(root),
                          "--out", str(tmp_path / "r.jsonl")],
                         capture_output=True, text=True, timeout=120, env=env)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith(f"error: {path}: frames[0].pose_c2w: ") and \
        run.stderr.count("\n") == 1, run.stderr
    assert os.listdir(tmp_path) == ["scenes"]


def test_waypoints_whose_steps_overflow_are_input_error(scene_dir, tmp_path, capsys):
    path = scene_dir / "trajectories.jsonl"
    path.write_text(json.dumps({"scene_id": "cli000",
                                "waypoints": [[-1e308, 0], [1e308, 0], [1e308, 5]]}) + "\n")
    assert main(["gen", "--input-root", str(scene_dir.parent), "--tasks", "route_plan",
                 "--out", str(tmp_path / "r.jsonl")]) == 2
    assert f"{path}:1: waypoints must be finite and within 1e+150 m" in capsys.readouterr().err


def test_task_registry_resolves_every_task_once(scene_dir):
    sources = (set(qa_spatial.SPATIAL_GENERATORS), set(qa_temporal.TEMPORAL_GENERATORS),
               {"route_plan"})
    for task in TASKS:
        assert sum(task in names for names in sources) == 1, task
    generators = task_generators()
    assert set(generators) == set(TASKS)

    scene = load_scene_metadata(scene_dir / "scene_metadata.json")
    frames = load_frame_metadata(scene_dir / "frame_metadata.json")
    trajectories = [t for _, t in load_trajectories(scene_dir / "trajectories.jsonl")]
    cfg = GenConfig(seed=5)
    ctx = build_graph(scene, frames, cfg.min_bbox_area_px, cfg.sample_frames,
                      parse_ply(scene_dir / "cloud.ply"), trajectories)
    emitted = set()
    for task in TASKS:
        records = generators[task](ctx, cfg)
        assert all(rec.task == task for rec in records), task
        assert [rec.qid for rec in records] == [make_qid(ctx.scene_id, task, k)
                                               for k in range(len(records))], task
        emitted.update(rec.task for rec in records)
    assert len(emitted) >= 6


# --- eval ----------------------------------------------------------------------------

def write_jsonl(path, docs):
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))


def eval_fixture(tmp_path, scene_dir):
    records = tmp_path / "records.jsonl"
    assert main(["gen", "--input-root", str(scene_dir.parent),
                 "--out", str(records), "--seed", "5",
                 "--tasks", "obj_count,rel_dir"]) == 0
    _, recs = read_records_jsonl(records)
    return records, recs


def test_eval_perfect_predictions(scene_dir, tmp_path, capsys):
    records, recs = eval_fixture(tmp_path, scene_dir)
    preds = tmp_path / "preds.jsonl"
    write_jsonl(preds, [{"qid": r.qid, "raw_text": r.ground_truth} for r in recs])
    report_path = tmp_path / "report.json"
    code = main(["eval", "--records", str(records), "--predictions", str(preds),
                 "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["overall"] == 1.0
    assert all(v["score"] == 1.0 for v in report["per_task"].values())
    assert "overall" in capsys.readouterr().out


def test_eval_weight_by_question_averages_over_questions(scene_dir, tmp_path):
    records = tmp_path / "records.jsonl"
    assert main(["gen", "--input-root", str(scene_dir.parent), "--out", str(records),
                 "--seed", "5", "--tasks", "obj_size,rel_dir"]) == 0
    _, recs = read_records_jsonl(records)
    # right on obj_size, wrong on rel_dir, so the two weightings differ
    answers = {r.qid: r.ground_truth if r.task == "obj_size" else
               next(o for o in r.options if o != r.ground_truth) for r in recs}
    preds = tmp_path / "preds.jsonl"
    write_jsonl(preds, [{"qid": q, "raw_text": a} for q, a in answers.items()])
    report_path = tmp_path / "report.json"
    assert main(["eval", "--records", str(records), "--predictions", str(preds),
                 "--out", str(report_path), "--weight-by-question"]) == 0
    report = json.loads(report_path.read_text())
    scores = [j["score"] for j in report["per_question"]]
    assert len(scores) == len(recs) and set(scores) == {0.0, 1.0}
    assert report["overall_weighting"] == "per_question"
    assert report["overall"] == sum(scores) / len(scores)
    per_task = report["per_task"]
    assert report["overall"] != sum(v["score"] for v in per_task.values()) / len(per_task)


def test_eval_report_is_strict_json(scene_dir, tmp_path):
    # a numeral beyond the float range would be parsed as inf
    records = tmp_path / "records.jsonl"
    assert main(["gen", "--input-root", str(scene_dir.parent), "--out", str(records),
                 "--seed", "5", "--tasks", "abs_dist,obj_size"]) == 0
    _, recs = read_records_jsonl(records)
    preds = tmp_path / "preds.jsonl"
    write_jsonl(preds, [{"qid": r.qid, "raw_text": "9" * 400} for r in recs])
    report_path = tmp_path / "report.json"
    assert main(["eval", "--records", str(records), "--predictions", str(preds),
                 "--out", str(report_path)]) == 0

    def refuse(constant):
        raise ValueError(f"non-finite constant {constant} in the report")

    report = json.loads(report_path.read_text(), parse_constant=refuse)
    assert len(report["per_question"]) == len(recs) > 0
    assert {j["status"] for j in report["per_question"]} == {"no_number"}


GOOD_RECORD = {"qid": "s:obj_count:0000", "scene_id": "s", "task": "obj_count",
               "answer_type": "NA", "question": "q", "ground_truth": "2",
               "frame_refs": [], "meta": {}}


@pytest.mark.parametrize("case,want", [
    ("record_missing_field", ("records.jsonl:3", "'task'")),
    ("record_invalid", ("records.jsonl:3", "ground truth must be positive")),
    ("prediction_missing_field", ("preds.jsonl:2", "'raw_text'")),
    ("label_map_bad_key", ("labels.json", "'chair'")),
    ("record_not_utf8", ("records.jsonl:3", "utf-8")),
])
def test_malformed_input_is_input_error(tmp_path, capsys, case, want):
    records = tmp_path / "records.jsonl"
    preds = tmp_path / "preds.jsonl"
    bad = dict(GOOD_RECORD, qid="s:obj_count:0001")
    if case == "record_missing_field":
        del bad["task"]
    elif case == "record_invalid":
        bad["ground_truth"] = "0"
    else:
        bad = None
    write_jsonl(records, [{"_header": {}}, GOOD_RECORD] + ([bad] if bad else []))
    pred_docs = [{"qid": GOOD_RECORD["qid"], "raw_text": "2"}]
    if case == "prediction_missing_field":
        pred_docs.append({"qid": "s:obj_count:0001"})
    write_jsonl(preds, pred_docs)
    if case == "record_not_utf8":
        with open(records, "ab") as fh:
            fh.write(b'{"qid": "caf\xe9"}\n')  # latin-1, not UTF-8
    argv = ["eval", "--records", str(records), "--predictions", str(preds)]

    if case == "label_map_bad_key":
        ply = tmp_path / "scan.ply"
        write_ply(ply, make_cluster_cloud(11, [(1, 4, [0, 0, 0.5], [1, 1, 1], 200)]))
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"4": "table", "chair": "chair"}))
        argv = ["ingest", "--ply", str(ply), "--label-map", str(labels),
                "--scene-id", "x", "--out", str(tmp_path / "o.json")]

    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(fragment in err for fragment in want), err


@pytest.mark.parametrize("pred,fragment", [
    ({"qid": GOOD_RECORD["qid"], "raw_text": 5}, "raw_text"),
    ({"qid": GOOD_RECORD["qid"], "raw_text": None}, "raw_text"),
    ({"qid": GOOD_RECORD["qid"], "raw_text": ["A"]}, "raw_text"),
    ({"qid": 7, "raw_text": "2"}, "qid"),
    ({"qid": "", "raw_text": "2"}, "qid"),
    ({"qid": None, "raw_text": "2"}, "qid"),
    ({"qid": ["s:obj_count:0000"], "raw_text": "2"}, "qid"),
], ids=["raw_text_int", "raw_text_null", "raw_text_list", "qid_int", "qid_empty",
        "qid_null", "qid_list"])
def test_malformed_prediction_is_input_error(tmp_path, capsys, pred, fragment):
    records = tmp_path / "records.jsonl"
    preds = tmp_path / "preds.jsonl"
    write_jsonl(records, [{"_header": {}}, GOOD_RECORD])
    write_jsonl(preds, [{"qid": "s:obj_count:0009", "raw_text": "1"}, pred])
    assert main(["eval", "--records", str(records), "--predictions", str(preds)]) == 2
    err = capsys.readouterr().err
    assert f"{preds}:2" in err and fragment in err, err


@pytest.mark.parametrize("line,kind", [
    ("[1, 2]", "array"), ("null", "null"), ('"no _header here"', "string"),
    ("5", "number"), ("true", "boolean"),
], ids=["array", "null", "string_with_header", "number", "boolean"])
@pytest.mark.parametrize("target", ["eval_records", "stats_records", "predictions",
                                    "trajectories"])
def test_jsonl_line_that_is_not_an_object_is_input_error(tmp_path, capsys, target, line,
                                                         kind):
    records, preds = tmp_path / "records.jsonl", tmp_path / "preds.jsonl"
    write_jsonl(records, [{"_header": {}}])
    write_jsonl(preds, [{"qid": GOOD_RECORD["qid"], "raw_text": "2"}])
    argv = ["eval", "--records", str(records), "--predictions", str(preds)]
    if target == "stats_records":
        argv = ["stats", "--records", str(records)]
    elif target == "trajectories":
        write_scene_dir(tmp_path / "scenes", *make_scene(seed=3200, scene_id="m00"))
        records = tmp_path / "scenes" / "m00" / "trajectories.jsonl"
        write_jsonl(records, [{"scene_id": "m00", "waypoints": [[0, 0], [2, 0]]}])
        argv = ["gen", "--input-root", str(tmp_path / "scenes"), "--out",
                str(tmp_path / "r.jsonl"), "--tasks", "route_plan"]
    bad = preds if target == "predictions" else records
    with open(bad, "a") as fh:
        fh.write(line + "\n")  # line 2
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: {bad}:2: expected a JSON object, "
                                       f"got {kind}\n")


@pytest.mark.parametrize("edit,fragment", [
    ({"answer_type": "MCA", "options": [1, 2, 3], "ground_truth": "1"}, "options"),
    ({"task": "rel_dir", "answer_type": "MCA", "options": ["left", None, "back"],
      "ground_truth": "left"}, "options"),
    ({"options": "abc"}, "options"),
    ({"qid": 7}, "qid"),
    ({"question": None}, "question"),
    ({"ground_truth": 2}, "ground_truth"),
    ({"frame_refs": "12"}, "frame_refs"),
    ({"frame_refs": [1, True]}, "frame_refs"),
    ({"meta": []}, "meta"),
    ({"ground_truth": "inf"}, "finite"),
], ids=["options_ints", "options_null", "options_string", "qid_int", "question_null",
        "truth_int", "frame_refs_string", "frame_refs_bool", "meta_list", "truth_inf"])
def test_malformed_record_field_is_input_error(tmp_path, capsys, edit, fragment):
    records = tmp_path / "records.jsonl"
    preds = tmp_path / "preds.jsonl"
    write_jsonl(records, [{"_header": {}}, dict(GOOD_RECORD, **edit)])
    write_jsonl(preds, [{"qid": GOOD_RECORD["qid"], "raw_text": "left"}])
    assert main(["eval", "--records", str(records), "--predictions", str(preds)]) == 2
    err = capsys.readouterr().err
    assert f"{records}:2" in err and fragment in err, err


def test_eval_duplicate_qid_exit_3(scene_dir, tmp_path, capsys):
    records, recs = eval_fixture(tmp_path, scene_dir)
    preds = tmp_path / "preds.jsonl"
    write_jsonl(preds, [{"qid": recs[0].qid, "raw_text": "1"},
                        {"qid": recs[0].qid, "raw_text": "2"}])
    code = main(["eval", "--records", str(records), "--predictions", str(preds)])
    assert code == 3


def test_eval_duplicate_record_qid_exit_3(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    preds = tmp_path / "preds.jsonl"
    report = tmp_path / "report.json"
    write_jsonl(records, [{"_header": {}}, GOOD_RECORD, GOOD_RECORD])
    write_jsonl(preds, [{"qid": GOOD_RECORD["qid"], "raw_text": "2"}])
    assert main(["eval", "--records", str(records), "--predictions", str(preds),
                 "--out", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and GOOD_RECORD["qid"] in err, err
    assert not report.exists()


# --- stats ---------------------------------------------------------------------------

def test_stats_counts(tmp_path, capsys):
    docs = [{"_header": {"config": {}}}]
    for task, n in (("obj_count", 4), ("abs_dist", 3), ("room_size", 3)):
        for i in range(n):
            docs.append({"qid": f"s:{task}:{i:04d}", "scene_id": "s", "task": task,
                         "answer_type": "NA", "question": "q", "ground_truth": "1.0",
                         "frame_refs": [], "meta": {}})
    records = tmp_path / "r.jsonl"
    write_jsonl(records, docs)
    out = tmp_path / "stats.json"
    assert main(["stats", "--records", str(records), "--out", str(out)]) == 0
    stats = json.loads(out.read_text())
    assert stats["per_task"] == {"obj_count": 4, "abs_dist": 3, "room_size": 3}
    assert stats["total"] == 10


@pytest.mark.parametrize("command", ["eval", "stats"])
def test_failed_report_write_leaves_the_old_out(tmp_path, capsys, monkeypatch, command):
    # The disk fills after the first bytes of the report are written.
    records, preds = tmp_path / "records.jsonl", tmp_path / "preds.jsonl"
    write_jsonl(records, [{"_header": {}}, GOOD_RECORD])
    write_jsonl(preds, [{"qid": GOOD_RECORD["qid"], "raw_text": "2"}])
    out = tmp_path / "out" / "report.json"
    out.parent.mkdir()
    out.write_text("old\n")
    argv = {"eval": ["eval", "--records", str(records), "--predictions", str(preds)],
            "stats": ["stats", "--records", str(records)]}[command]

    def torn_dump(doc, fh, **kwargs):
        fh.write('{"partial": ')
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(json, "dump", torn_dump)
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert out.read_bytes() == b"old\n"
    assert os.listdir(out.parent) == ["report.json"]


def test_stats_memory_does_not_grow_with_the_file(tmp_path, capsys):
    docs = [{"_header": {"config": {}}}]
    docs += [dict(GOOD_RECORD, qid=f"s:obj_count:{i:05d}") for i in range(20_000)]
    records = tmp_path / "r.jsonl"
    write_jsonl(records, docs)
    out = tmp_path / "stats.json"
    tracemalloc.start()
    try:
        assert main(["stats", "--records", str(records), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(out.read_text()) == {"per_task": {"obj_count": 20_000}, "total": 20_000}
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "20000"]
    assert peak < records.stat().st_size / 4, (peak, records.stat().st_size)


@pytest.mark.parametrize("command", ["stats", "eval"])
def test_truncated_records_file_is_input_error(scene_dir, tmp_path, capsys, command):
    records = tmp_path / "records.jsonl"
    assert main(["gen", "--input-root", str(scene_dir.parent), "--out", str(records),
                 "--seed", "5"]) == 0
    lines = records.read_text().splitlines(keepends=True)
    count = json.loads(lines[0])["_header"]["record_count"]
    assert count == len(lines) - 1 > 20
    records.write_text("".join(lines[:21]))  # the header and 20 records
    preds = tmp_path / "preds.jsonl"
    write_jsonl(preds, [])
    argv = {"stats": ["stats", "--records", str(records)],
            "eval": ["eval", "--records", str(records), "--predictions", str(preds)]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {records}: the header's record_count is {count}, "
                            f"but the file holds 20 record(s)\n")
    assert captured.out == ""


@pytest.mark.parametrize("header", [{}, {"record_count": 1}, [], 5])
def test_records_header_without_a_count_or_matching_it_is_read(tmp_path, capsys, header):
    records = tmp_path / "r.jsonl"
    write_jsonl(records, [{"_header": header}, GOOD_RECORD])
    assert main(["stats", "--records", str(records)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "1"]


@pytest.mark.parametrize("command", ["stats", "eval"])
@pytest.mark.parametrize("count", [True, 1.0, None, "1", -1],
                         ids=["true", "float", "null", "string", "negative"])
def test_records_header_count_must_be_a_non_negative_int(tmp_path, capsys, command, count):
    records = tmp_path / "r.jsonl"
    write_jsonl(records, [{"_header": {"record_count": count}}, GOOD_RECORD])
    preds = tmp_path / "preds.jsonl"
    write_jsonl(preds, [])
    argv = {"stats": ["stats", "--records", str(records)],
            "eval": ["eval", "--records", str(records), "--predictions", str(preds)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {records}:1: the header's record_count is {count!r}, "
                            f"not a non-negative integer\n")
    assert captured.out == ""


def test_stats_empty_file(tmp_path, capsys):
    records = tmp_path / "empty.jsonl"
    write_jsonl(records, [{"_header": {}}])
    assert main(["stats", "--records", str(records)]) == 0
    assert "total" in capsys.readouterr().out


# --- fusion-check ----------------------------------------------------------------------

def test_fusion_check_command(capsys):
    assert main(["fusion-check"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] attention rows sum to 1" in out
    assert "[FAIL]" not in out
