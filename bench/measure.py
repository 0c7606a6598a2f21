"""Run one `sceneqa` CLI invocation, or reference.py, in a child process and
measure it.

Wall time is taken around the child's whole life (interpreter start, imports,
the command itself), because that is what a user of the CLI waits for. CPU
time comes from `wait4`, which includes every descendant the child reaped
(the `gen --workers N` pool). Peak RSS is sampled from /proc every 20 ms:
the larger of the largest VmHWM of one process and the largest sum of VmRSS
over the live process tree. (`ru_maxrss` would not do: it keeps the
high-water mark of the forked benchmark process from before `exec`.) At 5 ms
the sampler took 6% of a CPU, which a pass with as many workers as cores had
to share.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ENTRY = "import sys; from sceneqa.cli import main; sys.exit(main(sys.argv[1:]))"
SAMPLE_INTERVAL_S = 0.02
REFERENCE = Path(__file__).resolve().parent / "reference.py"


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


def _tree_rss_kb(pid: int) -> tuple:
    """(sum of VmRSS, largest VmHWM) over a process and its live descendants."""
    total = hwm = 0
    pending = [pid]
    while pending:
        p = pending.pop()
        try:
            with open(f"/proc/{p}/status", encoding="ascii", errors="replace") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        hwm = max(hwm, int(line.split()[1]))
                    elif line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children", encoding="ascii") as fh:
                    pending.extend(int(c) for c in fh.read().split())
        except OSError:  # the process or thread ended while we read it
            continue
    return total, hwm


class _RssSampler(threading.Thread):
    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self._done = threading.Event()

    def run(self):
        while not self._done.wait(SAMPLE_INTERVAL_S):
            self.peak_kb = max(self.peak_kb, *_tree_rss_kb(self.pid))

    def stop(self):
        self._done.set()
        self.join()


def run_child(cmd, stderr_path, env=None) -> Invocation:
    """Run one child process to its end and measure it."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        sampler = _RssSampler(proc.pid)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            sampler.stop()
            raise
        wall = time.perf_counter() - start
        sampler.stop()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Invocation(wall, usage.ru_utime + usage.ru_stime, sampler.peak_kb / 1024.0,
                      proc.returncode, stderr)


def run_cli(argv, src_dir, stderr_path) -> Invocation:
    """Run `sceneqa <argv>` from the given source tree and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    return run_child([sys.executable, "-c", ENTRY, *map(str, argv)], stderr_path, env)


def run_reference(out_path, stderr_path) -> Invocation:
    """Run reference.py once; raises if it fails."""
    result = run_child([sys.executable, str(REFERENCE), str(out_path)], stderr_path)
    if result.returncode != 0:
        raise RuntimeError(f"reference.py exited {result.returncode}: {result.stderr.strip()}")
    return result
