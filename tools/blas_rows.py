"""Where NumPy's BLAS leaves its small-matrix kernel, at the shapes of
``frame_features``' conv product and kernel gradient.

    python3 tools/blas_rows.py [--calls N]

Run from the root of the checkout to measure. It imports that checkout's
``perfbench/run.py``, which pins BLAS to one thread, and prints the machine
facts the benchmark prints. Then it prints the median time of N calls of
the (rows x 28) @ (28 x 64) product, written into the first 64 of 73
columns as ``frame_features`` writes it, at one row less than the row block
of ``numerics/tensor.py``'s bound ``_BLAS_SMALL``, at the block and at one
row more. A jump between the block and one row more means the bound still
marks where the BLAS leaves its small-matrix kernel: check it after a NumPy
or OpenBLAS upgrade. Last, at the row counts of the benchmark's workloads,
it prints the median time of the product and of the kernel gradient (the
columns' transpose times the first 64 of 73 gradient columns) as one call
and in row blocks, the loops ``frame_features`` runs. Nothing is gated.
"""

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import run  # noqa: E402  perfbench/run.py; pins BLAS threads on import
import numpy as np  # noqa: E402

from jointattn.numerics import tensor  # noqa: E402

K, C_OUT, WIDTH = 28, 64, 73    # the agents' kernel rows, filters, channels
# (rows, where frame_features sees them)
WORKLOAD_ROWS = ((1_600, "train_colorgather_wide acting step"),
                 (3_200, "eval_meetup_generalize step"),
                 (4_096, "train_meetup_ref minibatch"),
                 (12_800, "train_colorgather_wide minibatch"))


def product(cols, kd, out, block):
    for lo in range(0, len(cols), block):
        np.matmul(cols[lo:lo + block], kd, out=out[lo:lo + block, :C_OUT])


def kernel_grad(cols, g, block):
    gk = cols[:block].T @ g[:block, :C_OUT]
    for lo in range(block, len(cols), block):
        gk += cols[lo:lo + block].T @ g[lo:lo + block, :C_OUT]
    return gk


def medians_us(fns, calls):
    """Each function's median microseconds over ``calls`` rounds that call
    every function once in turn, so that a drift of the machine's speed
    moves them all alike."""
    times = [[] for _ in fns]
    for k in range(calls + 1):
        for fn, row in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            if k:       # the first round warms up
                row.append(time.perf_counter() - t0)
    return [1e6 * statistics.median(row) for row in times]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--calls", type=int, default=200,
                   help="timed calls per median (default 200)")
    args = p.parse_args(argv)
    if args.calls < 1:
        p.error("--calls must be at least 1")
    print("machine " + json.dumps(run.machine_facts(np)))
    rng = np.random.default_rng(0)
    kd = rng.normal(size=(K, C_OUT))
    block = max(1, tensor._BLAS_SMALL // kd.size)
    print(f"\nbound {tensor._BLAS_SMALL} multiply-adds: blocks of {block} "
          f"rows of the ({K}, {C_OUT}) kernel")
    print(f"{'rows':>6s} {'one call us':>12s}")
    cols, out = rng.normal(size=(block + 1, K)), np.empty((block + 1, WIDTH))
    rows = (block - 1, block, block + 1)
    times = medians_us([lambda n=n: product(cols[:n], kd, out, n)
                        for n in rows], args.calls)
    for n, us in zip(rows, times):
        print(f"{n:6d} {us:12.1f}")

    print(f"\n{'rows':>6s} {'pass':15s} {'one call us':>12s} "
          f"{'blocks us':>10s} {'ratio':>6s}  where")
    for n, where in WORKLOAD_ROWS:
        cols, out = rng.normal(size=(n, K)), np.empty((n, WIDTH))
        g = rng.normal(size=(n, WIDTH))
        for name, fn in (("product", lambda b: product(cols, kd, out, b)),
                         ("kernel grad", lambda b: kernel_grad(cols, g, b))):
            one, blocks = medians_us([lambda: fn(n), lambda: fn(block)],
                                     args.calls)
            print(f"{n:6d} {name:15s} {one:12.1f} {blocks:10.1f} "
                  f"{blocks / one:6.2f}  {where}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
