#!/usr/bin/env python3
"""Run all four benchmark scenarios across the three link profiles and write
JSON (plus CSV series where meaningful) into an output directory.

Usage: python scripts/run_benches.py [outdir] [--seed N] [--quick]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from quicmq.bench import (  # noqa: E402
    bench_conn_overhead,
    bench_half_open,
    bench_hol,
    bench_migrate,
    bench_stream_isolation,
)
from quicmq.netsim import PROFILES  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("outdir", nargs="?", default="bench-results")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smaller iteration counts for a fast pass")
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    iterations = 3 if args.quick else 10
    experiments = 1 if args.quick else 10
    messages = 100 if args.quick else 200

    def save(result, name, csv=False):
        result.write_json(os.path.join(args.outdir, f"{name}.json"))
        if csv:
            result.write_csv(os.path.join(args.outdir, f"{name}.csv"))
        print(f"wrote {name}.json")

    for profile in PROFILES:
        res = bench_conn_overhead(profile, mode=None, iterations=iterations,
                                  seed=args.seed, experiments=experiments)
        save(res, f"conn_overhead_{profile}")
        print(f"  {profile} reductions: {res.data['reductions_pct']}")
        for rate in (10, 20, 50):
            res = bench_hol(profile, drop_rate=rate, streams=2,
                            messages=messages, seed=args.seed)
            save(res, f"hol_{profile}_{rate}pct")
            print(f"  {profile} {rate}%: improvement "
                  f"{res.data['improvement_pct']}%")

    save(bench_stream_isolation("wired", drop_rate=10, messages=messages,
                                seed=args.seed), "stream_isolation_wired")
    save(bench_half_open("wired", publishers=10, conns=100, restart_at=30.0,
                         horizon=120.0, seed=args.seed), "half_open", csv=True)
    save(bench_migrate("wired", changes=3, interval=300.0, duration=960.0,
                       seed=args.seed), "migrate", csv=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
