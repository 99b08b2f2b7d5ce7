#!/usr/bin/env python3
"""Record one point of the performance trajectory as BENCH_<n>_<label>.json.

Usage: python3 scripts/bench_snapshot.py N LABEL [--root CHECKOUT]

It runs ``perfbench/run.py`` in CHECKOUT (default: this repository) with
``--trace 0`` on every workload for seeds 1 and 2, then with ``--trace 1``
on every workload for seed 1, one run at a time, each for ``run_seconds``
from BENCHMARK.json, and writes what they recorded to
``BENCH_<N>_<LABEL>.json`` at the root of this repository. To record the
parent of a change, point ``--root`` at a clean export of that commit.

Each run's entry holds its result line (``correct``, ``attempted``,
``failed``, ``metrics``) and ``cpu_share``; an untraced run adds the
``unscaled`` block and the host-speed factor, as a median and per round.
The Python and ``cryptography`` versions, ``nproc`` and the source digest
are the same for every run and are kept once.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)
TRACED_SEED = 1
SHARED = ("python", "cryptography", "nproc", "source_sha256")


def plan(workloads: list[str]) -> list[tuple[str, int, int]]:
    """(workload, seed, trace) for every run, in the order they are made."""
    runs = [(w, seed, 0) for seed in SEEDS for w in workloads]
    return runs + [(w, TRACED_SEED, 1) for w in workloads]


def run_perfbench(root: str, workload: str, seed: int, trace: int,
                  seconds: float) -> tuple[dict, dict]:
    """Run perfbench once; returns its result line and the record it wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(root, "perfbench", "out",
                        f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as f:
        return result, json.load(f)


def entry(workload: str, seed: int, trace: int, result: dict, record: dict) -> dict:
    """One run's part of the snapshot."""
    env = record["env"]
    out = {"workload": workload, "seed": seed, "trace": trace,
           "result": result, "cpu_share": env["cpu_share"]}
    if not trace:
        out["unscaled"] = record["unscaled"]
        out["host_factor"] = env["host_factor"]
        out["host_factor_per_round"] = [r[3] for r in record["round_s"]]
    return out


def assemble(number: int, label: str, runs: list[tuple]) -> dict:
    """The snapshot document from ``(workload, seed, trace, result, record)``
    tuples. The shared environment must agree across runs."""
    shared = {key: runs[0][4]["env"][key] for key in SHARED}
    for *_, record in runs:
        for key in SHARED:
            if record["env"][key] != shared[key]:
                raise ValueError(f"{key} differs between runs")
    return {"bench": number, "label": label, **shared,
            "runs": [entry(*run) for run in runs]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int)
    parser.add_argument("label")
    parser.add_argument("--root", default=REPO)
    args = parser.parse_args(argv)
    with open(os.path.join(args.root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    runs = []
    for workload, seed, trace in plan(workloads):
        print(f"# {workload} seed={seed} trace={trace}", file=sys.stderr, flush=True)
        result, record = run_perfbench(args.root, workload, seed, trace,
                                       bench["run_seconds"])
        runs.append((workload, seed, trace, result, record))
    path = os.path.join(REPO, f"BENCH_{args.number}_{args.label}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(assemble(args.number, args.label, runs), f, indent=1, sort_keys=True)
        f.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
