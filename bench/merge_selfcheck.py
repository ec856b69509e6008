#!/usr/bin/env python3
"""Merge N perf_selfcheck JSON runs into a conservative committed baseline.

Usage: merge_selfcheck.py OUT.json RUN1.json RUN2.json [RUN3.json ...]

Writes OUT.json: the last run verbatim, except every benchmark's row is
replaced by the WHOLE row of the run with the MINIMUM items_per_second
for that benchmark across all input runs (benchmarks missing from some
runs take the slowest of the runs that have them). Keeping the row whole
keeps real_time, cpu_time, iterations and items_per_second from one and
the same run, so they agree with each other.

Why the minimum: on the shared 1-core VMs this repo builds on,
back-to-back runs of the *same binary* can disagree by more than the
compare gate's 15% threshold (host steal), so a single-run baseline
makes CI a coin flip. The gate exists to catch step-function
regressions — an accidental O(n) lookup, a reintroduced per-packet
allocation — and those drop throughput by far more than run-to-run
noise. Anchoring the gate at the slowest same-code run keeps it
meaningful: a fresh run must fall >15% below the *worst* day the
committed code ever showed before CI fails.

All inputs must carry context.binary_build_type == "release" (the same
provenance rule compare_selfcheck.py enforces); a debug or unstamped
run would drag the floor down with meaningless numbers.
"""

import json
import sys


def main(argv):
    if len(argv) < 4:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out_path, run_paths = argv[1], argv[2:]

    runs = []
    for p in run_paths:
        with open(p) as f:
            data = json.load(f)
        build_type = data.get("context", {}).get("binary_build_type")
        if build_type != "release":
            print(f"error: {p}: binary_build_type is {build_type!r}, "
                  f"not \"release\" — refusing to merge", file=sys.stderr)
            return 1
        runs.append(data)

    # name -> the slowest run's row, kept whole.
    floor = {}
    for data in runs:
        for bm in data.get("benchmarks", []):
            if bm.get("run_type") == "aggregate":
                continue
            ips = bm.get("items_per_second")
            if ips:
                name = bm["name"]
                if name not in floor or float(ips) < float(
                        floor[name]["items_per_second"]):
                    floor[name] = bm

    merged = runs[-1]
    merged["benchmarks"] = [floor.get(bm.get("name"), bm)
                            for bm in merged.get("benchmarks", [])]
    merged.setdefault("context", {})["selfcheck_merge"] = (
        f"each row = the min-items_per_second run's row over {len(runs)} runs")

    with open(out_path, "w") as f:
        json.dump(merged, f, indent=1)
        f.write("\n")
    print(f"wrote {out_path} (floor of {len(runs)} runs, "
          f"{len(floor)} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
