#!/usr/bin/env python3
"""Sample a program with the SIGPROF sampler and print where time goes.

Usage:

    python3 tools/sigprof/profile.py [--out DIR] [--lines] \\
        -- PROGRAM [ARGS...]

Compiles tools/sigprof/sampler.cc into DIR, runs PROGRAM with it in
LD_PRELOAD, then symbolizes every sample with nm (function ranges) and
prints tables of self time (the function the tick landed in), inclusive
time (every distinct function on the sampled stack) and library leaf time
(memcpy and the like) split by the calling function. With
--lines, the hottest self addresses are also resolved to source lines
with addr2line (needs -g).

PROGRAM should be built with -fno-omit-frame-pointer; without it the
inclusive table sees only the leaf and whatever frames happen to chain.
For example, the end-to-end benchmark:

    cmake -S perfbench -B /tmp/pb-fp -DCMAKE_BUILD_TYPE=Release \\
        -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer -g"
    cmake --build /tmp/pb-fp -j4
    python3 tools/sigprof/profile.py --out /tmp/prof -- \\
        /tmp/pb-fp/ycsb_bench --workload doc-f-tenants --seed 1 \\
        --seconds 20 --trace 0 --out-dir /tmp/prof

When the tick lands outside the main executable (a libc memcpy, say), the
word at the stack pointer stands in for the missing frame and names the
caller. Only the process PROGRAM itself is profiled: the sampler records
per pid, and the table is built from PROGRAM's pid.
"""
import argparse
import bisect
import collections
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TOP = 25  # rows printed per table


def build_sampler(out_dir):
    so = os.path.join(out_dir, "libsigprof.so")
    src = os.path.join(HERE, "sampler.cc")
    cmd = ["g++", "-O2", "-shared", "-fPIC", "-o", so, src]
    subprocess.run(cmd, check=True)
    return so


class Symbols:
    """Function ranges of one ELF file, from nm."""

    def __init__(self, path):
        self.starts, self.ends, self.names = [], [], []
        self.exec_type = False
        try:
            with open(path, "rb") as f:
                hdr = f.read(18)
            # e_type == ET_EXEC (2): absolute addresses, no load bias.
            self.exec_type = len(hdr) == 18 and hdr[16] == 2
        except OSError:
            return
        rows = self._nm(["nm", "-C", "--defined-only", "-S", "-n", path])
        if not rows:
            rows = self._nm(["nm", "-C", "-D", "--defined-only", "-S", "-n", path])
        for addr, size, name in rows:
            self.starts.append(addr)
            self.ends.append(addr + size)
            self.names.append(name)

    @staticmethod
    def _nm(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True).stdout
        except OSError:
            return []
        rows = []
        for line in out.splitlines():
            parts = line.split(None, 3)
            if len(parts) < 4 or parts[2] not in "tTwWiI":
                continue
            rows.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
        rows.sort()
        return rows

    def lookup(self, vaddr):
        i = bisect.bisect_right(self.starts, vaddr) - 1
        if i >= 0 and vaddr < self.ends[i]:
            return self.names[i]
        return None


class AddressSpace:
    """Maps runtime addresses to (object, symbol) using a maps snapshot."""

    def __init__(self, maps_path):
        self.ranges = []  # (lo, hi, path, bias)
        first_map = {}
        rows = []
        with open(maps_path) as f:
            for line in f:
                parts = line.split()
                if len(parts) < 6 or not parts[5].startswith("/"):
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                off = int(parts[2], 16)
                rows.append((lo, hi, parts[1], off, parts[5]))
                if off == 0 and parts[5] not in first_map:
                    first_map[parts[5]] = lo
        self.syms = {}
        for lo, hi, perms, off, path in rows:
            if "x" not in perms:
                continue
            if path not in self.syms:
                self.syms[path] = Symbols(path)
            bias = 0 if self.syms[path].exec_type else first_map.get(path, lo - off)
            self.ranges.append((lo, hi, path, bias))
        self.ranges.sort()
        self.los = [r[0] for r in self.ranges]

    def resolve(self, addr):
        """Returns (path, vaddr, name) or None for unmapped addresses."""
        i = bisect.bisect_right(self.los, addr) - 1
        if i < 0 or addr >= self.ranges[i][1]:
            return None
        lo, hi, path, bias = self.ranges[i]
        vaddr = addr - bias
        name = self.syms[path].lookup(vaddr)
        if name is None:
            name = "?? (%s+0x%x)" % (os.path.basename(path), vaddr)
        return path, vaddr, name


def read_samples(path):
    samples = []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            words = [int(w, 16) for w in line.split()]
            if words:
                samples.append(words)
    return samples


def attribute(samples, space, main_path):
    self_c = collections.Counter()
    incl_c = collections.Counter()
    self_addr = collections.Counter()
    lib_c = collections.Counter()  # library leaf time by calling function
    for words in samples:
        rip = space.resolve(words[0])
        if rip is None:
            self_c["[unknown]"] += 1
            incl_c["[unknown]"] += 1
            continue
        self_c[rip[2]] += 1
        self_addr[(rip[0], rip[1])] += 1
        stack = [rip[2]]
        # Outside the main executable the library code keeps no frame
        # pointer, so the word at RSP is the best guess at the caller.
        if rip[0] != main_path and len(words) > 1:
            caller = space.resolve(words[1])
            if caller is not None and caller[0] == main_path:
                stack.append(caller[2])
                lib_c["%s <- %s" % (rip[2], caller[2])] += 1
        for ret in words[2:]:
            # A return address points just past the call instruction.
            r = space.resolve(ret - 1)
            if r is not None:
                stack.append(r[2])
        for name in set(stack):
            incl_c[name] += 1
    return self_c, incl_c, self_addr, lib_c


def print_table(title, counter, total, top):
    print("\n%s (%d samples)" % (title, total))
    print("%8s  %s" % ("share", "function"))
    for name, n in counter.most_common(top):
        print("%7.2f%%  %s" % (100.0 * n / total, name[:150]))


def print_lines(self_addr, total, top):
    print("\nhottest self addresses (addr2line)")
    for (path, vaddr), n in self_addr.most_common(top):
        try:
            out = subprocess.run(
                ["addr2line", "-C", "-f", "-i", "-e", path, hex(vaddr)],
                capture_output=True, text=True).stdout.split("\n")
        except OSError:
            out = []
        where = " <- ".join(
            "%s %s" % (out[i + 1].strip(), out[i].strip()[:60])
            for i in range(0, len(out) - 1, 2))
        print("%7.2f%%  %s+0x%x  %s" % (100.0 * n / total,
                                        os.path.basename(path), vaddr, where))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="sigprof-out")
    ap.add_argument("--lines", action="store_true",
                    help="resolve the hottest self addresses to source lines")
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no program given")
    os.makedirs(args.out, exist_ok=True)
    so = build_sampler(args.out)
    prefix = os.path.join(os.path.abspath(args.out), "sigprof")
    env = dict(os.environ, LD_PRELOAD=so, SIGPROF_OUT=prefix)
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    rc = proc.wait()
    base = "%s.%d" % (prefix, proc.pid)
    if not os.path.exists(base + ".samples"):
        print("profile: no samples written (exit code %d)" % rc, file=sys.stderr)
        return 1
    space = AddressSpace(base + ".maps")
    main_path = os.path.realpath(cmd[0])
    samples = read_samples(base + ".samples")
    if not samples:
        print("profile: zero samples", file=sys.stderr)
        return 1
    self_c, incl_c, self_addr, lib_c = attribute(samples, space, main_path)
    total = len(samples)
    print("profile of: %s (exit code %d)" % (" ".join(cmd), rc))
    print_table("self", self_c, total, TOP)
    print_table("inclusive", incl_c, total, TOP)
    if lib_c:
        print_table("library leaves by caller", lib_c, total, TOP)
    if args.lines:
        print_lines(self_addr, total, TOP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
