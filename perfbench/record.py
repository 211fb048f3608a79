#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/record.py [--workloads W,W] [--seeds 1-10] [--seconds S]
                                [--trace 0|1] [--out FILE] [--pin FILE]

Runs perfbench/run.py once per workload and seed, from the root of a
checkout, and prints per metric the median, the quartiles, the sample
count and the spread (interquartile distance over the median, the figure
the benchmark's bounds are set against).  --out writes the same as a JSON
run record, with the commit, core count and OCaml version, replacing only
the workloads it ran.  --pin merges
each run's output digests into the table the benchmark checks against
(perfbench/expected.json): only for a commit whose outputs are known good.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    digests = [l for l in lines if l.startswith("digests: ")]
    result["digests"] = json.loads(digests[-1][len("digests: "):]) if digests else {}
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def tool(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--out")
    p.add_argument("--pin", help="merge the output digests of every run into this file")
    a = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    seeds = seeds_of(a.seeds)
    record = {}
    pins = json.load(open(a.pin)) if a.pin and os.path.exists(a.pin) else {}
    for w in a.workloads.split(","):
        runs = []
        for s in seeds:
            r = run_once(w, s, a.seconds, a.trace)
            runs.append(r)
            print(f"{w:15s} seed {s:<4d} correct {r['correct']!s:5s} failed {r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
        for s, r in zip(seeds, runs):
            if r["digests"]:
                pins.setdefault(w, {})[str(s)] = r["digests"]
        metrics = {}
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = s
            bound = bounds.get(name) if a.trace == "0" else None
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- over bound/3"
            print(f"{w:15s} {name:42s} median {s['median']:12.6g} {s['unit']:6s}"
                  f" spread {s['spread']:.3f}{flag}", flush=True)
        record[w] = {
            "why": whys[w],
            "seeds": seeds,
            "seconds": a.seconds,
            "trace": a.trace == "1",
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "runs": {str(s): {k: v["value"] for k, v in r["metrics"].items()}
                     for s, r in zip(seeds, runs)},
        }
    if a.pin:
        with open(a.pin, "w") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")
    if a.out:
        # a record keeps the workloads this invocation did not rerun
        old = json.load(open(a.out)) if os.path.exists(a.out) else {}
        doc = {
            "commit": tool(["git", "rev-parse", "HEAD"]),
            "nproc": os.cpu_count(),
            "ocaml": tool(["ocamlfind", "ocamlopt", "-version"]) or tool(["ocaml", "-vnum"]),
            "workloads": {**old.get("workloads", {}), **record},
        }
        with open(a.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
