#!/usr/bin/env python3
"""Check that the benchmark's output checks have teeth.

    python3 perfbench/selftest.py [--seed N]

Runs every workload in its shortest mode (one iteration) three ways, from
the root of a checkout: unmodified, where nothing may fail; with every
expected digest or reply perturbed; and, for serve_mix, with one frame
rewritten to an unknown op.  Both corrupted runs must report failed
operations.  Exits non-zero when any expectation does not hold.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["sched_large", "paper_campaign", "fault_campaign", "serve_mix"]


def failed_frac(workload, seed, *switches):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", *switches]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} {switches}: exit {out.returncode}\n{out.stderr}")
    r = json.loads(lines[-1])
    return r["failed"] / r["attempted"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    seed = p.parse_args().seed
    cases = [(w, (), False) for w in WORKLOADS]
    cases += [(w, ("--perturb",), True) for w in WORKLOADS]
    cases += [("serve_mix", ("--unknown-op",), True)]
    bad = 0
    for workload, switches, must_fail in cases:
        frac = failed_frac(workload, seed, *switches)
        ok = (frac > 0) == must_fail
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload:15s} {' '.join(switches) or '(unmodified)':14s}"
              f" failed_frac {frac:.4f}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
