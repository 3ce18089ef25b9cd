"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload run_weekly --seed 1 --seconds 5 --trace 0

Run from the root of a source tree; the program is imported from
``src/`` of that tree and nowhere else.  The workload's inputs come from
``--seed`` alone.  The set-up is repeated ``SETUP_REPEATS`` times and
timed each time; the checks' expectations are then worked out, untimed.
With ``--trace 0`` the timed phase then repeats until ``--seconds``
(default: ``run_seconds`` of BENCHMARK.json) have passed, at least once,
and the result carries the end-to-end metrics of BENCHMARK.json.  The
speed probe (``probe.py``) runs during every timed set-up and phase, and
the gated times are scaled to the host's nominal speed.  With
``--trace 1`` the set-up runs once under the tracer, the timed phase runs
once untraced and once traced, and the result carries the per-layer
metrics.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is
the full record: machine facts, load average, sample counts, release
digest and the informational figures.  ``--record FILE`` also appends
that record to FILE.  The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The workload runs on one thread.  numpy's BLAS would otherwise start a
# worker pool that competes with it for the machine's few cores.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

# The seed used while writing a change.  Seed 9001 is held out: a claim
# made on this one is re-checked there.
DEFAULT_SEED = 1
SETUP_REPEATS = 2


def parse_args(argv: list[str] | None, run_seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the full record to this file")
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this tree's ``src`` first on the path and import fedsum from it."""
    if not (SRC / "fedsum" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'fedsum'}")
    sys.path.insert(0, str(SRC))
    import fedsum

    if Path(fedsum.__file__).resolve().parent != SRC / "fedsum":
        raise SystemExit(f"error: fedsum imported from {fedsum.__file__}, not {SRC}")


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def machine_facts() -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def timed(fn, *args):
    """(result, wall seconds, CPU seconds) of one call, after a full collection."""
    gc.collect()
    cpu_started = time.process_time()
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started, time.process_time() - cpu_started


def run_untraced(workload, seed: int, seconds: float, workdir: Path) -> dict:
    from probe import SpeedProbe
    from workloads import single_shard_updates_per_s

    inputs = None
    setup_times: list[float] = []
    setup_slowdowns: list[float] = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous copy before the next is built
        with SpeedProbe() as probe:
            inputs, elapsed, _ = timed(workload.setup, seed)
        setup_times.append(elapsed - probe.spent)
        setup_slowdowns.append(probe.slowdown())
    workload.prepare(inputs)
    walls: list[float] = []
    cpus: list[float] = []
    slowdowns: list[float] = []
    probe_samples = 0
    outcomes = []
    while not walls or sum(walls) < seconds:
        # The probe's own time is taken out of the phase's wall and CPU time.
        with SpeedProbe() as probe:
            raw, elapsed, cpu = timed(workload.run, inputs, seed, workdir)
        walls.append(elapsed - probe.spent)
        cpus.append(cpu - probe.spent)
        slowdowns.append(probe.slowdown())
        probe_samples += len(probe.samples)
        outcome = workload.check(inputs, raw)
        outcome.servers = []
        outcomes.append(outcome)
        del raw
    wall_s = statistics.median(walls)
    # The gated times are at the host's nominal speed; the raw ones go to info.
    metrics = {
        "setup_s": statistics.median(t / k for t, k in zip(setup_times, setup_slowdowns)),
        "wall_norm_s": statistics.median(w / k for w, k in zip(walls, slowdowns)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    last = outcomes[-1]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    info = dict(last.info)
    info["wall_s"] = wall_s
    info["setup_raw_s"] = statistics.median(setup_times)
    info["host_slowdown"] = statistics.median(slowdowns)
    info["cpu_s"] = statistics.median(cpus)
    info["failed_share"] = failed / attempted if attempted else 0.0
    if "uploads" in info:
        info["uploads_per_s"] = info["uploads"] / wall_s
    latency_samples = sum(o.info.get("upload_latency_samples", 0) for o in outcomes)
    if latency_samples:
        # Per timed phase: nearest-rank percentiles; across phases: median.
        for name in ("upload_p50_us", "upload_p99_us"):
            info[name] = statistics.median(o.info[name] for o in outcomes)
        del info["upload_latency_samples"]
        info["single_shard_updates_per_s"] = single_shard_updates_per_s()
    return {
        "metrics": metrics,
        "info": info,
        "samples": {
            "setup_s": len(setup_times),
            "wall_s": len(walls),
            "probe": probe_samples,
            "upload_latency": latency_samples,
        },
        "setup_times_s": setup_times,
        "wall_times_s": walls,
        "host_slowdowns": slowdowns,
        "setup_host_slowdowns": setup_slowdowns,
        "outcomes": outcomes,
    }


def run_traced(workload, seed: int, workdir: Path) -> dict:
    import layers
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        layers.install(tracer)
        inputs = workload.setup(seed)
    workload.prepare(inputs)
    raw, untraced_wall, _ = timed(workload.run, inputs, seed, workdir)
    untraced = workload.check(inputs, raw)
    untraced.servers = []
    del raw
    with tracer:
        layers.install(tracer)
        raw, traced_wall, _ = timed(workload.run, inputs, seed, workdir)
    traced = workload.check(inputs, raw)
    metrics = layers.layer_metrics(tracer, traced.servers, traced.bytes_written)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    problems = []
    if traced.release_digest != untraced.release_digest:
        problems.append("traced and untraced runs released different outputs")
    return {
        "metrics": metrics,
        "info": {"missing_hooks": tracer.missing},
        "samples": {"wall_s": 1},
        "outcomes": [untraced, traced],
        "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    args = parse_args(argv, declared["run_seconds"])
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    loadavg_before = os.getloadavg()
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            run = run_traced(workload, args.seed, workdir)
        else:
            run = run_untraced(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    outcomes = run.pop("outcomes")
    problems = run.pop("problems", []) + [p for o in outcomes for p in o.problems]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    computed = run.pop("metrics")
    for spec in declared[kind]:
        value = computed[spec["name"]]
        if not math.isfinite(value):
            problems.append(f"metric {spec['name']} is not finite")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    correct = not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "release_digest": outcomes[-1].release_digest,
        "machine": machine_facts(),
        "loadavg_before": loadavg_before,
        "loadavg_after": os.getloadavg(),
        **run,
    }
    line = json.dumps(record, sort_keys=True)
    print(line)
    if args.record is not None:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
