"""One workload process: set up, run timed passes, print one JSON result.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and the BLAS thread
count fixed in the environment.  Set-up (importing synspec, generating the
seeded inputs, warming up) is timed on its own.  Passes then repeat until
``--seconds`` of measuring would be exceeded (at least ``MIN_PASSES``).  With
``--trace 1`` every other pass, starting with the first, is traced, so the
traced and untraced pass times of one process give the tracing overhead.
The checks that cost more than their tasks run on the first pass only.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

MIN_PASSES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", required=True, help="scratch directory for outputs")
    p.add_argument("--spans", help="where a traced run writes its spans")
    p.add_argument("--reference", help="seed-0 reference outputs (JSON)")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_passes(args, run_pass, inp, tracer, reference):
    """Timed passes; returns per-pass records and the spans of traced ones."""
    from workloads import Runner
    from tracing import layer_totals

    passes, spans, walls = [], [], []
    start = time.perf_counter()
    with open(os.devnull, "w") as sink:
        # start another pass only if it should end within --seconds
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - start + statistics.median(walls)
               <= args.seconds):
            wall0 = time.perf_counter()
            traced = bool(args.trace) and len(passes) % 2 == 0
            run = Runner(tracer if traced else None, thorough=not passes)
            if traced:
                tracer.spans = []
                tracer.install()
            error = None
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    run_pass(run, inp)
            except Exception:
                error = traceback.format_exc(limit=3)
            finally:
                if traced:
                    tracer.uninstall()
            if reference is not None:
                run.compare(reference)
            rec = {
                "traced": traced,
                "run_s": sum(run.latencies),
                "latencies": run.latencies,
                "attempted": run.attempted,
                "failed": len(run.failed_tasks) + (error is not None),
                "failures": sorted(run.failed_tasks.values())
                + ([error] if error else []),
                "observed": {k: v for k, (v, _) in run.observed.items()},
            }
            if not passes:
                rec["names"] = run.names
            if traced:
                rec["layers"] = layer_totals(tracer.spans)
                spans.extend(dict(s, **{"pass": len(passes)})
                             for s in tracer.spans)
            passes.append(rec)
            walls.append(time.perf_counter() - wall0)
    return passes, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import synspec  # noqa: F401  (import time is part of set-up)
    import workloads
    from tracing import Tracer

    make_inputs, run_pass = workloads.WORKLOADS[args.workload]
    inp = make_inputs(args.seed, args.tmp)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        warmup_failures = workloads.warm_up(run_pass, inp)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "warmup_failures": warmup_failures}
    if not args.setup_only:
        reference = None
        if args.reference and args.seed == workloads.DEFAULT_SEED:
            with open(args.reference) as fh:
                reference = json.load(fh).get(args.workload)
        passes, spans = run_passes(args, run_pass, inp, Tracer(), reference)
        if args.spans and spans:
            with open(args.spans, "w") as fh:
                json.dump(spans, fh)
        out.update(passes=passes, machine=machine_block(),
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   / 1024.0)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def machine_block() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


if __name__ == "__main__":
    sys.exit(main())
