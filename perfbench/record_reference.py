"""Rewrite ``reference.json``: the seed-0 outputs every later run must match.

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter results (it should not be
needed for speed-ups): the reference holds exact center-set digests, Bott
values, topology counts with hole representatives, verify-artifact
digests and CLI exit codes for the default seed.
"""
import json
import os
import shutil
import sys
import tempfile

from run import OUT, REFERENCE, WORKLOADS, run_worker


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    reference = {}
    for workload in WORKLOADS:
        tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
        try:
            passes = run_worker(workload, 0, 0, 0, tmp)["passes"]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        failures = [f for p in passes for f in p["failures"]]
        if failures or passes[0]["observed"] != passes[1]["observed"]:
            print("not recorded, %s failed: %s" % (workload, failures[:5]),
                  file=sys.stderr)
            return 1
        reference[workload] = passes[0]["observed"]
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
