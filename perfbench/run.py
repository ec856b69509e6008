#!/usr/bin/env python3
"""End-to-end open-loop YCSB benchmark of the HyperLoop simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv-a --seed 1 --seconds 40 --trace 0

Builds perfbench/ (which compiles ../src) in Release under .bench_build/,
runs one workload and prints its metrics. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Each run also leaves a result file with the host fingerprint,
build type, source revision and seed in .bench_out/, and traced runs a
Chrome trace-event file beside it.

Exits non-zero without a result line when the simulator sources are
missing or the build fails, and non-zero after the result line when a
correctness check fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 175
REQUIRED_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found; cannot build")
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cfg = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        return None
    binary = os.path.join(out, "ycsb_bench")
    return binary if os.access(binary, os.X_OK) else None


def host_fingerprint():
    model, mhz = "unknown", None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = val.strip()
                elif key == "cpu MHz" and mhz is None:
                    mhz = float(val)
    except OSError:
        pass
    return {"cpu_model": model, "cpu_mhz": mhz, "nproc": os.cpu_count()}


def source_revision():
    """The git commit when there is one, plus a digest of the sources."""
    commit = None
    # Stop git at the checkout root so an enclosing repository is not
    # mistaken for this one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {"commit": commit, "source_sha256": h.hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 3
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != REQUIRED_KEYS:
        sys.stdout.write(run.stdout)
        log("perfbench: no result line (exit code %d)" % run.returncode)
        return run.returncode or 4

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "build_type": "Release", "host": host_fingerprint(),
        **source_revision(),
    }
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
