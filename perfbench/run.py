#!/usr/bin/env python3
"""Build ftsched and its benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build); scratch files and traces go to .bench_out.  The
last line of standard output is the benchmark's JSON result; the exit
code is non-zero, with no result printed, when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["sched_large", "paper_campaign", "fault_campaign", "serve_mix"]
TARGETS = ["perfbench/main.exe", "bin/ftsched_cli.exe"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    # self-test switches: corrupt the expected outputs / one serve frame
    p.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--unknown-op", action="store_true", help=argparse.SUPPRESS)
    a = p.parse_args()

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # the dune cache would write outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", build,
           "--profile", "release", *TARGETS]
    try:
        built = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(build, "default", *TARGETS[0].split("/"))
    ftsched = os.path.join(build, "default", *TARGETS[1].split("/"))
    run = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--ftsched", ftsched, "--pins", "perfbench/expected.json",
           "--out", ".bench_out"]
    if a.perturb:
        run.append("--perturb")
    if a.unknown_op:
        run.append("--unknown-op")
    if a.workload == "serve_mix":
        # Client and daemon share one core, inherited from here.  The closed
        # loop keeps one of them busy at a time, so this costs no work; a
        # round trip then needs no wake-up of an idle core, and the daemon's
        # analyze (Resilience.certify on the recommended domain count) runs
        # on one domain instead of spawning one per wide level, whose
        # stop-the-world minor collections wait for a core the host may
        # have taken.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # own process group, so a timeout also stops the serve daemon it started
    proc = subprocess.Popen(run, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: the benchmark did not finish in time", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
