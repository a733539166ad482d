#!/usr/bin/env python3
"""Symbolise a sigprof dump (see prof.c) with binutils' addr2line.

    python3 sym.py sigprof.<pid>.out [--top N] [--file cluster.rs]

Prints the sample count against the process CPU time first - the rate
actually reached, which the kernel's tick can hold far below the one
asked for - then sample totals by outermost (non-inlined) function, by inline
chain, and - with --file - by source line of the named file, charging a
sample to the innermost frame of its chain that lies in that file.
Build the profiled binary with CARGO_PROFILE_RELEASE_DEBUG=line-tables-only
so inlined frames and lines resolve without changing the generated code.
In a shared object, an address outside every sized dynamic symbol (a
stripped libc's memcpy/memmove bodies) is labelled `libc.so.6+0x...`
rather than charged to the nearest export.
"""
import argparse
import bisect
import collections
import os
import subprocess


def load_segments(path):
    """(file offset, vaddr, size) of the ELF's PT_LOAD segments."""
    out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
    segs = []
    for line in out.splitlines():
        f = line.split()
        if len(f) >= 6 and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
    return segs


def sized_ranges(path):
    """Merged [start, end) vaddr ranges of a shared object's sized
    dynamic symbols (`nm -D -S --defined-only`): the code a dynamic
    symbol really covers. A stripped library's unexported bodies (libc's
    ifunc memcpy/memmove variants) lie outside them, and addr2line would
    charge them to whichever export precedes them."""
    out = subprocess.run(
        ["nm", "-D", "-S", "--defined-only", path], capture_output=True, text=True
    ).stdout
    spans = []
    for line in out.splitlines():
        f = line.split()
        if len(f) == 4 and int(f[1], 16) > 0:
            start = int(f[0], 16)
            spans.append((start, start + int(f[1], 16)))
    merged = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [m[0] for m in merged], [m[1] for m in merged]


def inside(ranges, vaddr):
    """Whether `vaddr` lies in one of `sized_ranges`' ranges."""
    starts, ends = ranges
    i = bisect.bisect_right(starts, vaddr) - 1
    return i >= 0 and vaddr < ends[i]


def parse(dump):
    """(samples, maps, requested Hz, process CPU seconds); the last two
    are None in a dump from a sampler that did not record them."""
    samples, maps, hz, cpu_s = [], [], None, None
    for line in open(dump):
        kind, _, rest = line.partition(" ")
        if kind == "s":
            samples.append(int(rest, 16))
        elif kind == "h":
            hz = int(rest)
        elif kind == "c":
            cpu_s = float(rest)
        elif kind == "m":
            f = rest.split()
            start, end = (int(x, 16) for x in f[0].split("-"))
            maps.append((start, end, int(f[2], 16), f[5] if len(f) > 5 else "[anon]"))
    return samples, sorted(maps), hz, cpu_s


def resolve(samples, maps):
    """address -> (binary, vaddr inside it), or (region name, None)."""
    starts = [m[0] for m in maps]
    segs, where = {}, {}
    for addr in set(samples):
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= maps[i][1]:
            where[addr] = ("[unmapped]", None)
            continue
        start, _, offset, path = maps[i]
        if not path.startswith("/"):
            where[addr] = (path, None)
            continue
        if path not in segs:
            segs[path] = load_segments(path)
        off = addr - start + offset
        vaddr = next((off - o + v for o, v, n in segs[path] if o <= off < o + n), None)
        where[addr] = (path, vaddr)
    return where


def symbolise(where):
    """address -> list of (function, file:line), innermost frame first."""
    by_bin = collections.defaultdict(list)
    for addr, (path, vaddr) in where.items():
        if vaddr is not None:
            by_bin[path].append((addr, vaddr))
    frames = {a: [(p, "?")] for a, (p, v) in where.items() if v is None}
    for path, addrs in by_bin.items():
        if ".so" in os.path.basename(path):
            ranges = sized_ranges(path)
            name = os.path.basename(path)
            for addr, vaddr in addrs:
                if not inside(ranges, vaddr):
                    frames[addr] = [(f"{name}+{vaddr:#x}", "?")]
            addrs = [(a, v) for a, v in addrs if a not in frames]
            if not addrs:
                continue
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
            input="".join(f"{v:#x}\n" for _, v in addrs),
            capture_output=True,
            text=True,
        ).stdout.splitlines()
        # Per address: its "0x..." line, then function / file:line pairs.
        chains, func = [], None
        for line in out:
            if line.startswith("0x") and " " not in line:
                chains.append([])
                func = None
            elif func is None:
                func = line
            else:
                chains[-1].append((func, line.split(" (discriminator")[0]))
                func = None
        for (addr, _), chain in zip(addrs, chains):
            frames[addr] = chain or [(path, "?")]
    return frames


def table(title, counts, total, top):
    print(f"\n{title}")
    for key, n in counts.most_common(top):
        print(f"  {n:8d} {100.0 * n / total:6.2f}%  {key}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dump")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--file", help="also total by source line of this file (suffix match)")
    args = ap.parse_args()

    samples, maps, hz, cpu_s = parse(args.dump)
    if not samples:
        raise SystemExit("no samples: was PROF=1 set, and did the program exit normally?")
    frames = symbolise(resolve(samples, maps))
    outer, chain, lines = (collections.Counter() for _ in range(3))
    for addr in samples:
        fr = frames[addr]
        outer[fr[-1][0]] += 1
        chain[" > ".join(fn for fn, _ in reversed(fr))] += 1
        if args.file:
            hit = next((loc for _, loc in fr if loc.split(":")[0].endswith(args.file)), None)
            if hit:
                lines[hit] += 1
    total = len(samples)
    if hz is None or not cpu_s:
        print(f"{total} samples (no rate recorded)")
    else:
        print(
            f"{total} samples over {cpu_s:.2f} CPU-s "
            f"({total / cpu_s:.0f} Hz effective, {hz} requested)"
        )
    table("by outermost function", outer, total, args.top)
    table("by inline chain (outermost > ... > innermost)", chain, total, args.top)
    if args.file:
        table(f"by line of {args.file} (innermost frame in that file)", lines, total, args.top)


if __name__ == "__main__":
    main()
