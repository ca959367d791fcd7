"""Minor page faults, system and wall seconds and peak RSS per benchmark unit.

    python3 tools/unit_faults.py WORKLOAD --seed S --units N

Run from the root of the checkout to measure. It runs that checkout's
``perfbench/run.py`` in this process, through its own ``main``, so the
imports, set-ups and probe come in the order the benchmark's own process
has them: the allocator's state, and with it the page faults, depends on
that history. Only the loop over timed units is replaced: N units,
alternating over the subjects as ``run.rotate`` does, each one bracketed by
``getrusage`` of this process. The benchmark's report comes first, then
each unit's minor page faults, system seconds and wall seconds, the
process's peak resident size after it (``ru_maxrss`` in MB, as the
benchmark reports ``peak_rss_mb``), so a memory change can be traced to
the unit where the peak is reached, and the median over the warm units
(every unit but the first). Last come the bytes each key of
``jointattn.numerics.tensor``'s buffer pool holds after the units, read
off that dict, so a memory change can be traced to an array too. Nothing
under ``perfbench/`` is changed, no allocator option is set and nothing is
gated; the exit code is the benchmark's.
"""

import argparse
import os
import resource
import statistics
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402  perfbench/run.py; pins BLAS threads on import


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=run.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--units", type=int, required=True,
                   help="units to run, the first of them the warm-up")
    args = p.parse_args(argv)
    if args.units < 2:
        p.error("--units must be at least 2: one warm-up and one warm unit")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    rows = []

    def counted_rotate(workload, subjects, seconds, units):
        for k in range(args.units):
            before = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            units.append(workload.run_unit(subjects[k % len(subjects)]))
            wall = time.perf_counter() - t0
            after = resource.getrusage(resource.RUSAGE_SELF)
            rows.append((after.ru_minflt - before.ru_minflt,
                         after.ru_stime - before.ru_stime, wall,
                         after.ru_maxrss / 1024.0))
            if units[-1].problems:
                break

    run.rotate = counted_rotate
    code = run.main(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", "0", "--trace", "0"])
    print(f"\n{args.workload} seed={args.seed} (root {ROOT})")
    print("unit   minflt    sys_s   wall_s  maxrss_mb")
    for k, (faults, sys_s, wall, rss_mb) in enumerate(rows):
        note = "  warm-up" if k == 0 else ""
        print(f"{k:4d} {faults:8d} {sys_s:8.3f} {wall:8.3f} {rss_mb:10.2f}"
              f"{note}")
    warm = rows[1:]
    if warm:
        print(f"warm median: minflt {statistics.median(r[0] for r in warm):g}"
              f"  sys_s {statistics.median(r[1] for r in warm):.3f}"
              f"  wall_s {statistics.median(r[2] for r in warm):.3f}")
    print_buffers(sys.modules.get("jointattn.numerics.tensor"))
    return code


def print_buffers(tensor) -> None:
    """The bytes, dtype and shape of each array the numerics' pool holds;
    the module is the one the benchmark imported, if any."""
    if tensor is None:
        return
    held = sorted((key, entry[0]) for key, entry in tensor._POOL.items())
    print("\npool key                         bytes  dtype    shape")
    for key, arr in held:
        print(f"{key:28s} {arr.nbytes:12d}  {arr.dtype!s:7s}  {arr.shape}")
    print(f"total {sum(arr.nbytes for _, arr in held)} bytes")


if __name__ == "__main__":
    raise SystemExit(main())
