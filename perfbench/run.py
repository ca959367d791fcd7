"""Benchmark for jointattn: training segments and checkpoint evaluation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``. Set-up
runs five times; the last two set-ups give two subjects built from the
seed (``Trainer`` objects, or written and loaded checkpoints), and unit k
of one subject must reproduce unit k of the other bit for bit. An untraced
run alternates timed units between the subjects for ``--seconds`` seconds,
at least one unit each, and reports end-to-end metrics from every unit but
the first, which warms the process up. The gated times are scaled to a
reference machine speed, measured by a probe (clock.py).
``--trace 1`` runs a warm-up unit, a traced unit and an untraced one, and
reports per-layer metrics from the traced unit. The process pins its own
BLAS to one thread.

The report comes first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 1
when a correctness check fails and 2 when the program cannot be imported.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
# the keys of workloads.WORKLOADS, named here so that a bad argument fails
# before the program is imported
WORKLOAD_NAMES = ("train_meetup_ref", "train_colorgather_wide",
                  "eval_meetup_generalize")
# set-up runs this many times and its median is reported; each in-process
# set-up builds a subject, and units rotate over the last SUBJECTS of them.
# A traced run uses three: a warm-up, the traced unit and its untraced twin
# each run the first unit of their own subject.
SETUP_REPS = 5
SUBJECTS = 2
TRACE_SUBJECTS = 3

E2E_UNITS = {"setup_s": "s", "env_steps_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads_pinned": BLAS_THREADS}


def fresh_import_seconds(src: str) -> float:
    """Median time, at the probe's reference speed, to start an interpreter
    and import the program."""
    import clock
    env = dict(os.environ, PYTHONPATH=src)
    return statistics.median(
        clock.timed(subprocess.run,
                    [sys.executable, "-c", "import jointattn.cli"],
                    env=env, check=True, timeout=120)[2]
        for _ in range(SETUP_REPS))


def rotate(workload, subjects, seconds, units):
    """Append units, rotating over the subjects, until the next unit would
    end past ``seconds``; at least one unit per subject. Unit 0 warms the
    process up. Stops at a failed check."""
    t0 = time.perf_counter()
    last = 0.0
    while len(units) < len(subjects) or \
            time.perf_counter() - t0 + last <= seconds:
        t = time.perf_counter()
        units.append(workload.run_unit(subjects[len(units) % len(subjects)]))
        last = time.perf_counter() - t
        if units[-1].problems:
            break


def digest_problems(units, n_subjects: int) -> list:
    """Unit k ran on subject k % n; the units with one k // n must agree."""
    first = {}
    problems = []
    for k, u in enumerate(units):
        i = k // n_subjects
        if first.setdefault(i, u.digest) != u.digest:
            problems.append(f"unit {k}: subject {k % n_subjects} differs "
                            f"from subject 0 at its unit {i}")
    return problems


def quantile(values, q: int) -> float:
    """The q-th percentile of ``values``, as ``statistics.quantiles`` cuts."""
    return statistics.quantiles(values, n=100)[q - 1]


def timed_metrics(units, setup_s, training: bool) -> tuple:
    """End-to-end metrics of the untraced units, and the report lines.

    The gated times are at the probe's reference speed (clock.py): each
    unit's time is divided by the machine's slowdown while it ran, and the
    median over units is reported. The report also gives the times as
    measured, under the names each workload defines."""
    rates = [u.env_steps / u.seconds for u in units]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if training:
        segments = [u.seconds for u in units]
        lines = [f"train_env_steps_per_s {statistics.median(rates):.3f} 1/s",
                 f"segment_s_p50 {statistics.median(segments):.4f} s "
                 f"(n={len(segments)} segments)"]
    else:
        episodes = [s * 1e3 for u in units for s in u.episode_s]
        lines = [f"eval_env_steps_per_s {statistics.median(rates):.3f} 1/s",
                 f"eval_episode_ms_p50 {statistics.median(episodes):.3f} ms "
                 f"(n={len(episodes)} episodes)",
                 f"eval_episode_ms_p90 {quantile(episodes, 90):.3f} ms "
                 f"(n={len(episodes)} episodes)"]
    metrics = {
        "setup_s": setup_s,
        "env_steps_per_s": statistics.median(
            r * u.slowdown for r, u in zip(rates, units)),
        "peak_rss_mb": rss_mb,
    }
    lines += [f"peak_rss_mb {rss_mb:.1f} MB",
              "unit seconds " + " ".join(f"{u.seconds:.3f}" for u in units),
              "unit slowdown " + " ".join(f"{u.slowdown:.3f}" for u in units),
              "gated (times at the reference speed): " + ", ".join(
                  f"{k} {v:.4f} {E2E_UNITS[k]}" for k, v in metrics.items())]
    return metrics, lines


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith("_per_minibatch"):
        return "count"
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    os.environ.pop("JA_OUTPUT_DIR", None)  # eval must not write elsewhere
    try:
        import numpy as np
        import jointattn
        import clock
        import tracing
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot import jointattn from {src}: {e}",
              file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(jointattn.__file__)) != src:
        print(f"perfbench: jointattn was imported from {jointattn.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    training = isinstance(workload, workloads.TrainWorkload)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine_facts(np)))

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    units, problems, metrics = [], [], {}
    try:
        setup_times, subjects = [], []
        for _ in range(SETUP_REPS):
            subject, _, seconds = clock.timed(workload.make_subject,
                                              args.seed, workdir)
            subjects.append(subject)
            setup_times.append(seconds)
        subjects = subjects[-(TRACE_SUBJECTS if args.trace else SUBJECTS):]

        if args.trace:
            # the traced unit and the untraced one after it do the same work
            units.append(workload.run_unit(subjects[0], probing=False))
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                units.append(workload.run_unit(subjects[1], probing=False))
            units.append(workload.run_unit(subjects[2], probing=False))
            traced, plain = units[1], units[2]
            metrics = tracing.layer_metrics(tracer, units=1)
            metrics["trace.overhead_ratio"] = traced.seconds / plain.seconds
            spans = os.path.join(
                OUT_DIR, f"trace-{args.workload}-s{args.seed}.tsv")
            tracer.write_tsv(spans)
            print(f"spans {len(tracer.names)} written to {spans}")
            print(f"tracing overhead {metrics['trace.overhead_ratio']:.4f} "
                  f"(traced unit {traced.seconds:.3f} s, untraced "
                  f"{plain.seconds:.3f} s)")
        else:
            rotate(workload, subjects, args.seconds, units)
        problems = [p for u in units for p in u.problems] + \
            digest_problems(units, len(subjects))
        if not args.trace and not problems:
            setup_s = fresh_import_seconds(src) + \
                statistics.median(setup_times)
            metrics, lines = timed_metrics(units[1:], setup_s, training)
            print("\n".join(lines))
    except Exception:
        traceback.print_exc()
        problems.append("the run raised; the traceback is on stderr")
        units.append(workloads.Unit(0.0, 0, 1, 1, ""))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    if problems and failed == 0:
        failed = 1      # the digests differ but every unit passed its checks
    for p in problems:
        print(f"FAILED CHECK: {p}")
    print(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted} "
          f"{'PPO updates' if training else 'episodes'})")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {layer_unit(name)}")
    units_of = layer_unit if args.trace else E2E_UNITS.get
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of(k)}
                    for k, v in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
