"""Pipeline benchmark: one workload through the program's public entry points.

Usage, from the repository root::

    python3 perfbench/run.py --workload vertex_track --seed 1 --seconds 10 --trace 0

The run sets up (imports, Spark session with the jobs' settings, one
warm-up query), then repeats passes of the workload for about ``--seconds``,
checking every pass's outputs. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics. The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` (cells) and
``metrics``. A record of the run, with its config and, when traced, every
span, is written under ``perfbench/.work/runs/``. See README.md.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOAD_NAMES = ("edge_track", "vertex_track", "batch_sweep", "cut_quality")
#: Heap cap (-Xmx) of the Spark driver JVM. A 1g cap slowed ``vertex_track``.
DRIVER_MEMORY = "2g"
#: The JVM's GC settings. Under the default G1 collector the heap grew by
#: timing-dependent steps, and the JVM's peak RSS varied by over 20% between
#: runs. The serial collector with a fixed young generation and little free
#: old generation sizes the heap from the data it holds, so the peak RSS
#: follows the memory the run uses and varies by a few percent.
JVM_GC_OPTIONS = "-XX:+UseSerialGC -Xmn192m -XX:MinHeapFreeRatio=10 -XX:MaxHeapFreeRatio=30"
#: Cores for local Spark: at most nproc, and at most the 4 the figures in
#: README.md were measured on, so runs on larger machines stay comparable.
CORES = min(4, len(os.sched_getaffinity(0)))



def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare_environment() -> dict:
    """Point imports at this checkout's sources and keep all files inside it."""
    src, jobs = ROOT / "src", ROOT / "jobs"
    if not (src / "repro").is_dir() or not (jobs / "_common.py").is_file():
        sys.exit(f"perfbench: no program sources under {ROOT} (need src/repro and jobs/)")
    sys.path[:0] = [str(src), str(jobs)]
    tmp, local = WORK / "tmp", WORK / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    master = f"local[{CORES}]"
    java_opts = f"{JVM_GC_OPTIONS} -Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {master}",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf {shlex.quote(f'spark.local.dir={local}')}",
            "pyspark-shell",
        ]
    )
    return {
        "master": master, "driver_memory": DRIVER_MEMORY,
        "jvm_gc_options": JVM_GC_OPTIONS, "git_sha": git_sha(),
    }


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


# -- Spark lifetime -----------------------------------------------------------


def jvm_process():
    from pyspark import SparkContext

    return SparkContext._gateway.proc


def peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stop_spark(spark) -> None:
    """Stop the session, shut the gateway JVM down and wait for it to exit."""
    from pyspark import SparkContext

    proc = jvm_process()
    spark.stop()
    SparkContext._gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    proc.stdin.close()  # the gateway exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


# -- passes -------------------------------------------------------------------


def one_pass(wl, spark, seed: int, probe, traced: bool, n: int) -> dict:
    import workloads

    probe.reset()
    probe.tracing = traced
    group = f"pass{n}"
    if spark is not None:
        spark.sparkContext.setJobGroup(group, group)
    t = time.perf_counter()
    try:
        out = wl.run(spark, seed, wl.scale)
    except Exception:  # fails every cell of the pass; the run goes on
        out = workloads.Outputs(errors=[((None,) * 5, traceback.format_exc())])
    wall = time.perf_counter() - t - probe.check_s
    failures = workloads.check(out, wl.cells) + probe.failures
    rec = {
        "traced": traced,
        "wall_s": wall,
        "failed": workloads.failed_cells(list(wl.cells), failures),
        "failures": [f"{pat}: {msg}" for pat, msg in failures],
        "digest": workloads.digest(out),
    }
    if traced:
        rec["layers"] = probe.layer_metrics()
        rec["layers"]["spark.jobs"] = (
            len(spark.sparkContext.statusTracker().getJobIdsForGroup(group))
            if spark is not None else 0
        )
        rec["spans"] = [
            {"name": s.name, "start": s.start - T0, "end": s.end - T0, "parent": s.parent}
            for s in probe.spans
        ]
    return rec


def measure(wl, spark, seed: int, seconds: float, trace: bool, probe) -> list[dict]:
    """Passes for about ``seconds``: another starts only if, at the pace so
    far, it ends in time. At least one pass; with tracing, untraced and
    traced passes alternate and there are at least two."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(one_pass(wl, spark, seed, probe, traced, len(passes)))
        n = len(passes)
        if trace and n < 2:
            continue
        if (time.perf_counter() - start) * (n + 1) / n > seconds:
            return passes


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    config = prepare_environment()

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    spark = None
    if wl.spark:
        from _common import make_session  # the jobs' session settings

        spark = make_session("perfbench")
    try:
        if spark is not None:
            workloads.warm_up(spark)
        setup_s = time.perf_counter() - T0
        probe = tracing.Probe(scale=wl.scale)
        probe.install()
        try:
            passes = measure(wl, spark, args.seed, args.seconds, bool(args.trace), probe)
        finally:
            probe.uninstall()
        driver_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        jvm_mb = peak_rss_mb(jvm_process().pid) if spark is not None else 0.0
        shuffle = int(spark.conf.get("spark.sql.shuffle.partitions")) if spark is not None else None
    finally:
        if spark is not None:
            stop_spark(spark)

    config.update(
        workload=args.workload, seed=args.seed, scale=wl.scale,
        seconds=args.seconds, trace=args.trace, cores=CORES,
        shuffle_partitions=shuffle,
    )
    attempted = len(wl.cells) * len(passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        names = traced[0]["layers"].keys()
        metrics = {n: statistics.median(p["layers"][n] for p in traced) for n in names}
        metrics["spark.jvm_rss_mb"] = jvm_mb
        metrics["driver.rss_mb"] = driver_mb
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p["wall_s"] for p in passes if not p["traced"]),
            "peak_rss_mb": driver_mb + jvm_mb,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    metrics = {n: metrics[n] for n in units}

    print("config " + json.dumps(config, sort_keys=True))
    for i, p in enumerate(passes):
        print(
            f"pass {i}: {'traced' if p['traced'] else 'untraced'} wall_s={p['wall_s']:.3f} "
            f"failed={p['failed']}/{len(wl.cells)} digest={p['digest']}"
        )
        for msg in p["failures"]:
            print(f"  FAILED {msg}", file=sys.stderr)
    for n, v in metrics.items():
        print(f"{n:32s} {v:14.4f} {units[n]}")
    print(f"{'failed_frac':32s} {failed / attempted:14.4f} ratio ({failed} of {attempted} cells)")

    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"config": config, "metrics": metrics, "passes": passes}, default=str
    ))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
