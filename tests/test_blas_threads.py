"""sceneqa loads numpy's OpenBLAS single-threaded unless the user set
OPENBLAS_NUM_THREADS, leaves the environment as it found it, and writes the
same bytes whatever the BLAS thread count.

OpenBLAS reads the variable once, when numpy loads it, so every check runs in
a child process started with the environment under test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from synth import make_cluster_cloud, make_rect_cloud, make_scene, make_single_turn_waypoints, write_scene_dir
import sceneqa
from sceneqa.ply_io import write_ply

SRC = str(Path(sceneqa.__file__).parents[1])


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return ""


openblas_on_linux = pytest.mark.skipif(
    not sys.platform.startswith("linux") or "openblas" not in _blas_name().lower(),
    reason="needs Linux /proc and numpy built against OpenBLAS")


def _env(blas_threads=None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def _python(code, blas_threads=None) -> dict:
    """Run ``code`` in a child process; it prints one JSON object last."""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=_env(blas_threads))
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


PROBE = """
import json, os, re

def threads():
    with open("/proc/self/status") as fh:
        return int(re.search(r"^Threads:\\s*(\\d+)", fh.read(), re.M).group(1))

{first}
before = list(os.environ.items())
threads_before = threads()
import sceneqa
print(json.dumps({{"threads_before": threads_before, "threads": threads(),
                  "env_kept": list(os.environ.items()) == before,
                  "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}}))
"""


@openblas_on_linux
def test_import_loads_openblas_single_threaded():
    got = _python(PROBE.format(first=""))
    assert got == {"threads_before": 1, "threads": 1, "env_kept": True, "blas_threads": None}


@openblas_on_linux
def test_a_users_thread_count_is_kept():
    got = _python(PROBE.format(first=""), blas_threads="2")
    assert got["env_kept"] and got["blas_threads"] == "2"
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps its pool at the usable cores, fewer than 2 here")
    assert got["threads"] == 2


@openblas_on_linux
@pytest.mark.parametrize("blas_threads", [None, "1", "2"], ids=["unset", "one", "two"])
def test_a_process_that_loaded_numpy_first_is_left_alone(blas_threads):
    got = _python(PROBE.format(first="import numpy"), blas_threads)
    assert got["env_kept"] and got["blas_threads"] == blas_threads
    assert got["threads"] == got["threads_before"]


def _cli(argv, blas_threads) -> str:
    run = subprocess.run([sys.executable, "-m", "sceneqa.cli", *argv], capture_output=True,
                         text=True, timeout=300, env=_env(blas_threads))
    assert run.returncode == 0, run.stderr
    return run.stdout


@openblas_on_linux
def test_ingest_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 300k points in one instance put its covariance product above the size at
    # which OpenBLAS splits a product across threads.
    cloud = make_cluster_cloud(17, [(1, 4, [1.0, 2.0, 0.5], [3.0, 1.0, 1.0], 300_000),
                                    (2, 7, [5.0, 5.0, 0.4], [1.0, 2.0, 0.8], 2_000)])
    ply = tmp_path / "scan.ply"
    write_ply(ply, cloud, binary=True)
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"4": "sofa", "7": "table"}))
    outputs = []
    for blas_threads in (None, "2"):
        out = tmp_path / f"meta_{blas_threads}.json"
        stdout = _cli(["ingest", "--ply", str(ply), "--label-map", str(labels),
                       "--scene-id", "big0", "--out", str(out), "--oriented"], blas_threads)
        outputs.append((stdout, out.read_bytes()))
    assert outputs[0] == outputs[1]


@openblas_on_linux
def test_gen_bytes_do_not_depend_on_blas_threads(tmp_path):
    root = tmp_path / "scenes"
    rng = np.random.default_rng(5)
    for i in range(3):
        scene, frames = make_scene(seed=3300 + i, scene_id=f"b{i:02d}")
        write_scene_dir(root, scene, frames, cloud=make_rect_cloud(40 + i, 6.0, 5.0),
                        trajectories=[make_single_turn_waypoints(rng)[0] for _ in range(4)])
    outputs = set()
    for blas_threads in (None, "2"):
        for workers in ("1", "2"):
            out = tmp_path / f"r_{blas_threads}_{workers}.jsonl"
            _cli(["gen", "--input-root", str(root), "--out", str(out), "--seed", "3",
                  "--workers", workers], blas_threads)
            outputs.add(out.read_bytes())
    assert len(outputs) == 1
