"""A fixed reference job that gauges how fast the host runs right now.

    python3 bench/reference.py OUT_PATH

run.py times this script in a child process next to every pass and every
set-up, and scales their times by it (see README.md). It does the kinds of
work a `sceneqa` pass does, in about the same proportions: interpreter
start-up and the numpy import, a pure-Python monotone-chain scan over 20k
points, text rows split and parsed into numbers, and records serialised to a
JSONL file. It imports nothing from sceneqa, so no change to the program
changes its time.
"""

import json
import sys

import numpy as np

POINTS = 20_000
SCANS = 2
ROWS = 40_000
RECORDS = 15_000


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def main(out_path: str) -> int:
    rng = np.random.default_rng(7)
    points = sorted(map(tuple, rng.random((POINTS, 2)).tolist()))
    for _ in range(SCANS):
        chain = []
        for p in points:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    text = "".join(f"{x!r} {y!r} 0.5 {i % 256} 7 9 {i % 40} {i}\n"
                   for i, (x, y) in enumerate(points[:ROWS // 2] * 2)).encode("ascii")
    rows = [line.split() for line in text.splitlines()]
    columns = [np.array([float(row[c]) for row in rows]) for c in range(3)]
    columns += [np.array([int(row[c]) for row in rows]) for c in range(3, 8)]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"hull": len(chain), "sums": [float(c.sum()) for c in columns]}) + "\n")
        for i in range(RECORDS):
            record = {"qid": f"q{i:05d}", "value": i * 0.5, "options": ["a", "b", "c"]}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
