"""Golden bytes: the scene metadata ``ingest`` writes for one synthetic
cloud, stored once as ASCII and once as binary PLY, is pinned by its
sha256, so a change to the PLY readers or the box fit cannot move a byte
unnoticed. Both encodings hold the same float32 values, so they pin the
same bytes.

Only the axis-aligned fit is pinned. ``ingest --oriented`` takes each
instance's yaw from ``xy.T @ xy`` and ``np.linalg.eigh``, whose last bits
(and eigenvector signs) depend on the BLAS kernel: on this cloud it wrote
four different files under the OpenBLAS kernels Prescott, Nehalem, Haswell,
SkylakeX and the default one. A pin of it would hold on some hosts only, so
it is left out until the oriented fit uses fixed-order arithmetic. The
axis-aligned fit wrote the same bytes under all five, and CI runs this
file under several kernels.
"""

import hashlib
import json

import pytest

from synth import CATEGORIES, make_cluster_cloud
from sceneqa.cli import main
from sceneqa.ply_io import write_ply

# sha256 of the scene metadata file, for either PLY encoding
GOLDEN_SHA256 = "99458044ae2bbfaabd56e672a02da9dfc87877e1899f96fcfb176478745dc641"


def golden_cloud(seed):
    """Twelve box-shaped clusters on a 3 x 4 grid, 150 to 400 points each."""
    clusters = []
    for k in range(12):
        gx, gy = divmod(k, 4)
        clusters.append((k + 1, k % len(CATEGORIES), [2.0 * gx + 0.3 * (k % 3), 2.0 * gy, 0.5],
                         [0.4 + 0.1 * k, 1.3 - 0.05 * k, 0.2 + 0.07 * k], 150 + 25 * k))
    return make_cluster_cloud(seed, clusters)


@pytest.mark.parametrize("encoding", ["ascii", "binary"])
def test_ingest_output_matches_the_golden_hash(tmp_path, capsys, encoding):
    ply = tmp_path / "scan.ply"
    write_ply(ply, golden_cloud(7300), binary=encoding == "binary")
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({str(i): cat for i, cat in enumerate(CATEGORIES)}))
    out = tmp_path / "scene_metadata.json"
    assert main(["ingest", "--ply", str(ply), "--label-map", str(labels),
                 "--scene-id", "golden", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "scene golden: 12 instance(s), 0 dropped (< 50 points)\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256
