"""Forward and backward seconds of each tape op over warm benchmark units.

    python3 tools/node_times.py WORKLOAD --seed S --units N

Run from the root of the checkout to measure. As ``tools/unit_faults.py``
does, it runs that checkout's ``perfbench/run.py`` in this process, through
its own ``main``, and replaces only the loop over timed units: N units,
alternating over the subjects as ``run.rotate`` does, without the probe.
Around those units every op the ``jointattn.numerics`` package exports from
``numerics/tensor.py`` is wrapped where the program looks it up, and so is
``tensor._record``, which wraps each backward closure it stores in a timer
under the name of the op that recorded it. So each op gets its forward
calls and seconds (taped or not; the untaped share is printed apart) and
its backward calls and seconds. ``backward`` as a whole is timed too: what
it takes beyond its nodes' closures is the sweep itself.

The environment, the optimiser, the divergence and the checkpoint reload
get rows of their own (calls and seconds), wrapped the same way where the
program looks them up: ``training.step`` and ``training.reset`` (the names the trainer and
the evaluation call), ``EnvSet.step``, ``EnvSet.batch_ids`` and
``training.batch_poses`` (the collect's and the evaluation's poses of every
agent); ``numerics.adam_update``, the name ``ppo_update``
calls; ``training.pairwise_divergence``, the name the collect's bonus
and ``evaluate`` call; and ``cli.build_agents_from_checkpoint``, the
checkpoint reload of every ``jointattn eval`` call. ``EnvSet.step`` calls
``training.step`` and, when an episode ends, ``training.reset``, so its
row contains theirs.

The warm-up unit (the first) is not counted. Shares are of the warm units'
wall seconds; every time includes the wrappers' own overhead, so read the
shares, not the rates. Nothing under ``perfbench/`` is changed and nothing
is gated; the exit code is the benchmark's.
"""

import argparse
import collections
import inspect
import os
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


# (owner, attribute) of each call timed whole: an owner is the module
# ``jointattn.training``, ``jointattn.numerics`` or ``jointattn.cli``, or
# ``training.EnvSet``
CALLS = (("training", "step"), ("training", "reset"), ("EnvSet", "step"),
         ("EnvSet", "batch_ids"), ("training", "batch_poses"),
         ("numerics", "adam_update"), ("training", "pairwise_divergence"),
         ("cli", "build_agents_from_checkpoint"))


class NodeClock:
    """Per-op [calls, seconds] for forward, untaped forward and backward,
    and per call of ``CALLS`` [calls, seconds]."""

    def __init__(self, tensor):
        self.tensor = tensor
        self.fwd = collections.defaultdict(lambda: [0, 0.0])
        self.untaped = collections.defaultdict(lambda: [0, 0.0])
        self.bwd = collections.defaultdict(lambda: [0, 0.0])
        self.calls = collections.defaultdict(lambda: [0, 0.0])
        self.sweep = [0, 0.0]

    def clear(self) -> None:
        # in place: the wrappers hold their rows
        for table in (self.fwd, self.untaped, self.bwd, self.calls):
            for row in table.values():
                row[:] = [0, 0.0]
        self.sweep[:] = [0, 0.0]

    def call(self, name, fn):
        row = self.calls[name]

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[0] += 1
                row[1] += time.perf_counter() - t0

        return timed

    def forward(self, name, fn):
        fwd, untaped, tensor = self.fwd[name], self.untaped[name], self.tensor

        def timed(*args, **kwargs):
            taped = tensor._ACTIVE is not None
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                for row in (fwd,) if taped else (fwd, untaped):
                    row[0] += 1
                    row[1] += dt

        return timed

    def backward_node(self, name, fn):
        row = self.bwd[name]

        def timed(gouts, need):
            t0 = time.perf_counter()
            try:
                return fn(gouts, need)
            finally:
                row[0] += 1
                row[1] += time.perf_counter() - t0

        return timed

    def record(self, record):
        def timed_record(outputs, inputs, fn):
            name = sys._getframe(1).f_code.co_name
            return record(outputs, inputs, self.backward_node(name, fn))

        return timed_record

    def backward(self, fn):
        sweep = self.sweep

        def timed(loss):
            t0 = time.perf_counter()
            try:
                return fn(loss)
            finally:
                sweep[0] += 1
                sweep[1] += time.perf_counter() - t0

        return timed

    def wrapped(self, nm, training, cli):
        """(owner, attribute, wrapper) for every exported op, ``backward``,
        ``tensor._record`` and every call of ``CALLS``."""
        ops = [name for name in nm.__all__
               if inspect.isfunction(getattr(nm, name))
               and getattr(nm, name).__module__ == self.tensor.__name__
               and name != "backward"]
        owners = {"training": training, "numerics": nm, "cli": cli,
                  "EnvSet": training.EnvSet}
        calls = []
        for owner_name, attr in CALLS:
            owner = owners[owner_name]
            calls.append((owner, attr, self.call(f"{owner_name}.{attr}",
                                                 getattr(owner, attr))))
        return ([(nm, op, self.forward(op, getattr(nm, op))) for op in ops]
                + [(nm, "backward", self.backward(nm.backward)),
                   (self.tensor, "_record", self.record(self.tensor._record))]
                + calls)


def main(argv=None) -> int:
    args = parse_args(argv)
    walls = []
    clocks = []

    def timed_rotate(workload, subjects, seconds, units):
        from jointattn import cli, numerics as nm, training
        from jointattn.numerics import tensor
        node_clock = NodeClock(tensor)
        clocks.append(node_clock)
        replacements = node_clock.wrapped(nm, training, cli)
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in replacements]
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        try:
            for k in range(args.units):
                if k == 1:
                    node_clock.clear()      # the warm-up is not counted
                t0 = time.perf_counter()
                units.append(workload.run_unit(subjects[k % len(subjects)],
                                               probing=False))
                if k > 0:
                    walls.append(time.perf_counter() - t0)
                if units[-1].problems:
                    break
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)

    run.rotate = timed_rotate
    code = run.main(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", "0", "--trace", "0"])
    if clocks and walls:
        print_table(args, clocks[0], walls)
    return code


def print_table(args, node_clock, walls) -> None:
    wall = sum(walls)
    print(f"\n{args.workload} seed={args.seed} (root {ROOT}): "
          f"{len(walls)} warm units, {wall:.3f} s")
    print(f"{'op':18s} {'fwd_calls':>9s} {'fwd_s':>8s} {'untaped_s':>9s} "
          f"{'bwd_calls':>9s} {'bwd_s':>8s} {'fwd+bwd':>8s} {'share':>6s}")
    names = set(node_clock.fwd) | set(node_clock.bwd)
    rows = []
    for name in names:
        f_calls, f_s = node_clock.fwd.get(name, (0, 0.0))
        u_s = node_clock.untaped.get(name, (0, 0.0))[1]
        b_calls, b_s = node_clock.bwd.get(name, (0, 0.0))
        rows.append((f_s + b_s, name, f_calls, f_s, u_s, b_calls, b_s))
    total_fwd = total_bwd = 0.0
    for both, name, f_calls, f_s, u_s, b_calls, b_s in sorted(rows,
                                                              reverse=True):
        if f_calls == 0 and b_calls == 0:
            continue
        total_fwd += f_s
        total_bwd += b_s
        print(f"{name:18s} {f_calls:9d} {f_s:8.3f} {u_s:9.3f} {b_calls:9d} "
              f"{b_s:8.3f} {both:8.3f} {both / wall:6.1%}")
    calls, sweep_s = node_clock.sweep
    print(f"{'(all ops)':18s} {'':9s} {total_fwd:8.3f} {'':9s} {'':9s} "
          f"{total_bwd:8.3f} {total_fwd + total_bwd:8.3f} "
          f"{(total_fwd + total_bwd) / wall:6.1%}")
    print(f"backward: {calls} calls, {sweep_s:.3f} s, of which "
          f"{sweep_s - total_bwd:.3f} s outside the nodes' closures")
    print(f"\n{'call':30s} {'calls':>9s} {'s':>8s} {'share':>6s}")
    for owner_name, attr in CALLS:
        name = f"{owner_name}.{attr}"
        calls, seconds = node_clock.calls.get(name, (0, 0.0))
        print(f"{name:30s} {calls:9d} {seconds:8.3f} {seconds / wall:6.1%}")


if __name__ == "__main__":
    raise SystemExit(main())
