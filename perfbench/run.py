"""synspec benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload library --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a child process (``worker.py``) with one BLAS
thread.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run; ``all`` runs every workload both ways.
Every pass of a workload runs the same tasks; a task's latency in a run is
its upper quartile over the passes, and the end-to-end timings are taken
over these per-task latencies.
Set-up is timed in ``SETUP_SAMPLES`` fresh processes and reported as their
median.  The last line of standard output is one JSON object; a fuller
record (machine, sample counts, failures) goes to ``perfbench/out/``.
The run fails if it changed any file of the checkout outside
``perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
REFERENCE = os.path.join(BENCH, "reference.json")
WORKLOADS = ("library", "cli")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
# A task's latency in a run is this quantile of its latencies over the
# passes.  On a shared 2-vCPU VM the host ran at two speeds about 1.7x
# apart, switching every few seconds to minutes.  A median reads whichever
# speed held more than half of a run, and so moved by 20-30% between runs;
# the upper quartile reads the slow speed unless that held for less than a
# quarter of the run, and moved about half as much.
TASK_QUANTILE = 0.75
BLAS_THREADS = "1"
# exact-count fields; every other per-layer field is a time or derived from one
TIME_FIELDS = ("busy_s", "ns_per_grid_point", "ms_per_sweep")
DERIVED = {
    "hit_ratio": ("centers", "grid_points", 1.0),
    "ns_per_grid_point": ("busy_s", "grid_points", 1e9),
    "ms_per_sweep": ("busy_s", "sweeps", 1e3),
}
ALIASES = {"io_json.bytes_written": ("io_json.dump_canonical", "bytes")}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # keep src/ free of __pycache__
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(workload, seed, seconds, trace, tmp, *extra) -> dict:
    """Run one worker process to completion and parse its JSON line."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tmp", tmp,
           *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out after %d s" % CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d:\n%s"
                         % (proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tree_snapshot() -> dict:
    """(size, mtime) of every checkout file outside the benchmark's own."""
    snap = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        if dirpath == ROOT:
            dirnames[:] = [d for d in dirnames
                           if d not in (".git", ".bench_build")
                           and os.path.join(ROOT, d) != BENCH]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.lstat(path)
            snap[os.path.relpath(path, ROOT)] = (st.st_size, st.st_mtime_ns)
    return snap


def quantile(xs, q: float) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def task_latencies(passes) -> list:
    """Latency of each task of a pass: its TASK_QUANTILE over the passes.

    Taken per task, the quantile drops a rare slow file write or collection
    pause of that task; a quantile of whole-pass times would keep every
    pass's share of them.
    """
    return [quantile(col, TASK_QUANTILE)
            for col in zip(*(p["latencies"] for p in passes))]


def end_to_end(passes, setups, peak_rss_mb) -> tuple:
    """run_s sums the per-task latencies: the time of a typical pass."""
    lat = task_latencies(passes)
    p95 = quantile(lat, 0.95)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "run_s": (sum(lat), "s"),
        "task_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "task_p95_ms": (p95 * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
    }
    samples = {"passes": len(passes), "tasks_per_pass": len(lat),
               "task_samples": attempted,
               "beyond_p95": sum(x > p95 for x in lat),
               "setups": len(setups), "failed_ratio": failed / attempted}
    return metrics, samples


def layer_value(name: str, per_pass: list):
    """Value of one per-layer metric from the traced passes' totals.

    Returns (value, exact) where exact counters must agree across passes.
    """
    if name in ALIASES:
        span, field = ALIASES[name]
    else:
        span, field = name.rsplit(".", 1)
    values = []
    for layers in per_pass:
        agg = layers.get(span, {})
        if field in DERIVED:
            num, den, scale = DERIVED[field]
            values.append(agg[num] * scale / agg[den] if agg.get(den) else 0.0)
        else:
            values.append(agg.get(field, 0))
    if field in TIME_FIELDS:
        return statistics.median(values), True
    return values[0], all(v == values[0] for v in values)


def per_layer(passes, spec) -> tuple:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [p["layers"] for p in traced]
    metrics, inexact = {}, []
    for m in spec["per_layer"]:
        if m["name"] == "trace.overhead_pct":
            value = 100.0 * (statistics.median(p["run_s"] for p in traced)
                             / statistics.median(p["run_s"] for p in plain) - 1)
        else:
            value, exact = layer_value(m["name"], per_pass)
            if not exact:
                inexact.append(m["name"])
        metrics[m["name"]] = (value, m["unit"])
    samples = {"passes": len(passes), "traced_passes": len(traced)}
    return metrics, samples, inexact


def run_one(workload: str, seed: int, seconds: float, trace: int, spec) -> dict:
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    before = tree_snapshot()
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        # set-up probes before and after the measuring worker, so their
        # median spans the run rather than one moment of host load
        probes = [run_worker(workload, seed, 0, 0, tmp, "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES // 2)]
        res = run_worker(workload, seed, seconds, trace, tmp,
                         "--reference", REFERENCE,
                         "--spans", os.path.join(OUT, "spans-%s.json" % tag))
        probes += [run_worker(workload, seed, 0, 0, tmp, "--setup-only")["setup_s"]
                   for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups = probes + [res["setup_s"]]
    passes = res["passes"]
    problems = ["warm-up pass: " + f for f in res["warmup_failures"]]
    problems += [f for p in passes for f in p["failures"]]
    if len({len(p["latencies"]) for p in passes}) > 1:
        problems.append("passes ran different numbers of tasks")
    if trace:
        metrics, samples, inexact = per_layer(passes, spec)
        problems += ["counter differs between traced passes: " + n
                     for n in inexact]
    else:
        metrics, samples = end_to_end(passes, setups, res["peak_rss_mb"])
    if any(p["observed"] != passes[0]["observed"] for p in passes):
        problems.append("outputs differ between passes")
    after = tree_snapshot()
    changed = sorted(k for k in before.keys() | after.keys()
                     if before.get(k) != after.get(k))
    if changed:
        problems.append("run changed files outside perfbench/: %s" % changed[:10])
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, samples=samples, setup_samples=setups,
                  machine=res["machine"], problems=problems,
                  pass_run_s=[p["run_s"] for p in passes],
                  task_names=passes[0]["names"],
                  pass_latencies=[p["latencies"] for p in passes])
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print_summary(record)
    return result


def print_summary(record):
    print("== %s seed=%d trace=%d: %s"
          % (record["workload"], record["seed"], record["trace"],
             "correct" if record["correct"] else "INCORRECT"))
    print("   samples: %s" % json.dumps(record["samples"]))
    print("   machine: %s" % json.dumps(record["machine"]))
    for name, m in record["metrics"].items():
        print("   %-50s %14.6g %s" % (name, m["value"], m["unit"]))
    for problem in record["problems"][:20]:
        print("   FAIL: %s" % problem.strip().replace("\n", " | "))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="measuring time per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "synspec", "__init__.py")):
        print("error: synspec sources not found under %s" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        if args.workload == "all":
            results = {"%s/trace%d" % (w, t): run_one(w, args.seed, args.seconds,
                                                      t, spec)
                       for w in WORKLOADS for t in (0, 1)}
        else:
            results = run_one(args.workload, args.seed, args.seconds,
                              args.trace, spec)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
