"""sceneqa benchmark: ingest and gen on seeded synthetic corpora, eval traced.

    python3 bench/run.py --workload gen_hull --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30            # every workload in turn

Run from the repository root. With --trace 0 each pass is one or more
`sceneqa` CLI invocations in a child process (see measure.py), and each
metric is the median over the passes (or set-ups) made; pass times are
scaled by the host's speed, gauged with reference.py next to every pass.
With --trace 1 the passes run in this process at one worker under the span
tracer (see tracing.py), followed by a small traced ingest -> gen -> eval
chain, and the per-layer metrics are printed instead. Either way
every pass goes through the output checks in workloads.py, and the last line
of standard output is one JSON object; the exit code is 1 if any check
failed, 2 if the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# About the fastest reference.py ran on a 2-core sandbox; pass times are
# scaled to a host on which it takes this long (see end_to_end).
REF_NOMINAL_S = 0.5
WORKLOAD_NAMES = ("gen_hull", "gen_geom", "ingest_mixed")
END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def add(self, check, invocation_failures=(), per_invocation=0):
        failed = max(check.failed, per_invocation * len(invocation_failures))
        self.attempted += check.attempted
        self.failed += min(failed, check.attempted)
        self.problems.extend(invocation_failures)
        self.problems.extend(check.problems)


def setup(wl, work: Path, seed: int, run_cli) -> float:
    """Build the workload's inputs once; returns the time it took."""
    corpus = fresh_dir(work / "corpus")
    start = time.perf_counter()
    wl.build(corpus, seed, run_cli)
    return time.perf_counter() - start


def end_to_end(wl, work: Path, seed: int, seconds: float, run_cli, run_ref):
    # Set-up runs in this process and its time does not follow the reference
    # job's (see README.md), so it is reported unscaled.
    setup_times = [setup(wl, work, seed, run_cli) for _ in range(SETUP_REPEATS)]
    # A shared host's speed swings by up to half within seconds and drifts
    # over minutes. The fixed reference job therefore runs before the first
    # pass and after every pass, and a pass's wall (CPU) time is scaled by
    # REF_NOMINAL_S over the mean wall (CPU) time of the reference runs just
    # before and just after it.
    refs = [run_ref()]

    def speed_factors():
        refs.append(run_ref())
        before, after = refs[-2:]
        return (2 * REF_NOMINAL_S / (before.wall_s + after.wall_s),
                2 * REF_NOMINAL_S / (before.cpu_s + after.cpu_s))

    tally, walls, cpus, raw_walls, peaks, items, shas = Tally(), [], [], [], [], [], set()
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        out = fresh_dir(work / "out")
        invocations = wl.invocations(out)
        runs = [run_cli(argv) for argv in invocations]
        raw_walls.append(sum(r.wall_s for r in runs))
        wall_factor, cpu_factor = speed_factors()
        walls.append(raw_walls[-1] * wall_factor)
        cpus.append(sum(r.cpu_s for r in runs) * cpu_factor)
        peaks.append(max(r.peak_rss_mb for r in runs))
        check = wl.check(out)
        errors = [f"{argv[0]} exited {r.returncode}: {r.stderr.strip()[-300:]}"
                  for argv, r in zip(invocations, runs) if r.returncode != 0]
        tally.add(check, errors, check.attempted // len(invocations))
        items.append(check.items)
        if check.sha256:
            shas.add(check.sha256)
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(peaks),
    }
    # Throughput is wall_s over a seed-dependent amount of work, so it is
    # printed but not gated: it adds no signal beyond wall_s.
    notes = [f"{len(walls)} passes in {seconds:g} s, {len(setup_times)} set-ups; "
             f"{statistics.median(items)} {wl.unit} per pass",
             f"records_per_s {statistics.median(items) / wall:.6g} 1/s",
             f"unscaled median pass wall {statistics.median(raw_walls):.6g} s; reference job "
             f"{statistics.median(r.wall_s for r in refs):.6g} s (nominal {REF_NOMINAL_S:g} s)"]
    if wl.points_per_pass:
        notes.append(f"mpoints_per_s {wl.points_per_pass / 1e6 / wall:.6g} 1/s "
                     f"({wl.points_per_pass} points per pass)")
    notes += ["pass walls " + " ".join(f"{w:.3f}" for w in raw_walls),
              "set-ups " + " ".join(f"{t:.3f}" for t in setup_times),
              "reference " + " ".join(f"{r.wall_s:.3f}" for r in refs)]
    if shas:
        notes.append("records_sha256 " + " ".join(sorted(shas)))
    units = dict(END_TO_END)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, tally, notes


def in_process(invocations) -> tuple:
    """Run CLI argv lists through sceneqa.cli.main here; (wall, failures)."""
    from sceneqa import cli

    wall, failures = 0.0, []
    for argv in invocations:
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            wall += time.perf_counter() - start
        if code != 0:
            failures.append(f"{argv[0]} exited {code}")
    return wall, failures


def run_tail(work: Path, seed: int, tracer):
    """A small fixed ingest -> gen -> eval chain, traced under run id "tail".

    It gives every per-layer metric a measured value on every workload: a
    metric whose layer the workload's own pass never calls reads from here.
    Its report goes through the eval output checks.
    """
    import workloads
    from sceneqa import cli
    from tracing import instrumented

    root = fresh_dir(work / "tail")
    clouds = workloads.write_clouds(root, seed, workloads.TAG_TAIL, ("ascii", "binary"),
                                    n_instances=20, points=1000)
    workloads.build_scene_corpus(root / "scenes", seed, workloads.TAG_TAIL, 3,
                                 workloads.HULL_CLOUD_POINTS)
    out = fresh_dir(root / "out")
    tracer.run = "tail"
    with instrumented(tracer):
        _, failures = in_process(workloads.ingest_invocations(root, clouds, out))
        _, more = in_process([["gen", "--input-root", root / "scenes", "--out",
                               out / "records.jsonl", "--seed", seed, "--workers", 1]])
        failures += more
        _, records = cli.read_records_jsonl(out / "records.jsonl")
        expected, unknown = workloads.plant_predictions(records, seed, out / "predictions.jsonl")
        _, more = in_process([["eval", "--records", out / "records.jsonl", "--predictions",
                               out / "predictions.jsonl", "--out", out / "report.json"]])
        failures += more
    if failures:
        raise RuntimeError("tail chain failed: " + "; ".join(failures))
    check = workloads.check_report(out / "report.json", expected, unknown)
    return [root / "scenes" / d for d in sorted(os.listdir(root / "scenes"))], check


def traced(wl, work: Path, seed: int, seconds: float, run_cli):
    import tracing

    setup(wl, work, seed, run_cli)
    tracer = tracing.Tracer()
    tally, plain_walls, traced_walls, per_pass = Tally(), [], [], []
    measured = 0.0
    while not per_pass or measured < seconds:
        for trace_on in (False, True):
            out = fresh_dir(work / "out")
            invocations = wl.invocations(out, workers=1)
            if trace_on:
                tracer.run = f"pass{len(per_pass)}"
                with tracing.instrumented(tracer):
                    wall, failures = in_process(invocations)
                traced_walls.append(wall)
            else:
                wall, failures = in_process(invocations)
                plain_walls.append(wall)
            measured += wall
            check = wl.check(out)
            tally.add(check, failures, check.attempted // len(invocations))
        per_pass.append(tracing.layer_metrics(tracer, tracer.run))

    tail_scenes, tail_check = run_tail(work, seed, tracer)
    tally.add(tail_check)
    tail = tracing.layer_metrics(tracer, "tail")
    probes = tracing.probe_geometry(wl.scene_dirs() or tail_scenes)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write(spans_path)

    plain, with_trace = statistics.median(plain_walls), statistics.median(traced_walls)
    values = dict(probes)
    values["trace.untraced_wall_s"] = plain
    values["trace.traced_wall_s"] = with_trace
    values["trace.overhead_frac"] = with_trace / plain - 1.0
    fallback = []
    for name in per_pass[0]:
        taken = [m[name] for m in per_pass if m[name] is not None]
        if taken:
            values[name] = statistics.median_low(taken)
        else:
            values[name] = tail[name]
            fallback.append(name)
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        if values.get(name) is None:
            raise RuntimeError(f"per-layer metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": unit}
    notes = [f"{len(per_pass)} traced and {len(plain_walls)} untraced in-process passes "
             f"at 1 worker; spans in {spans_path.relative_to(ROOT)}",
             f"{len(fallback)} metrics read from the tail chain: {', '.join(fallback) or '-'}"]
    return metrics, tally, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import measure
    import workloads

    wl = workloads.all_workloads()[name]
    work = fresh_dir(WORK / f"{name}-seed{seed}-{os.getpid()}")
    try:
        def run_cli(argv):
            return measure.run_cli(argv, SRC, work / "stderr.txt")

        # Compile the package once so no pass pays for it.
        warm = run_cli(["--help"])
        if warm.returncode != 0:
            raise RuntimeError(f"sceneqa does not start: {warm.stderr.strip()}")
        if trace:
            return traced(wl, work, seed, seconds, run_cli)

        def run_ref():
            return measure.run_reference(work / "reference.jsonl", work / "stderr.txt")

        return end_to_end(wl, work, seed, seconds, run_cli, run_ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def report(name, metrics, tally, notes):
    print(f"== {name}")
    for note in notes:
        print(f"   {note}")
    for key, m in metrics.items():
        print(f"   {key:<44} {m['value']:>14.6g} {m['unit']}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"   {'failed_frac':<44} {frac:>14.6g} ({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems[:10]:
        print(f"   FAILED: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind as on an error: the running CLI child is killed and
    # waited for, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    needed = [SRC / "sceneqa" / "cli.py", ROOT / "tests" / "synth.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: run from a sceneqa checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import numpy

    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}; seed {args.seed}, {args.seconds:g} s per workload, "
          f"trace {args.trace}")
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results, attempted, failed = {}, 0, 0
    for name in names:
        metrics, tally, notes = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, metrics, tally, notes)
        results[name] = metrics
        attempted += tally.attempted
        failed += tally.failed
    summary = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
               "failed": failed}
    if args.workload == "all":
        summary["workloads"] = results
    else:
        summary["metrics"] = results[args.workload]
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
