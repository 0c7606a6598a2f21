import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from synth import make_scene  # noqa: E402


@pytest.fixture(scope="session")
def synthetic_scenes():
    """The randomized 20-scene corpus shared by consistency and CLI tests."""
    return [make_scene(seed=1000 + i, scene_id=f"synth{i:03d}") for i in range(20)]


@pytest.fixture(scope="session")
def gen_geom_corpus(tmp_path_factory):
    """The scenes root of the gen_geom benchmark corpus at seed 1: 60 scenes
    with 20 trajectories each and no cloud, written by ``bench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
    root = tmp_path_factory.mktemp("gen_geom") / "scenes"
    workloads.build_scene_corpus(root, 1, workloads.TAG_GEN_GEOM, 60)
    return root
