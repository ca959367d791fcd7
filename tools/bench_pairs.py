"""Alternating parent/change benchmark pairs, and the rules a gain must pass.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B

For each seed S of the inclusive range A-B, runs

    python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0

once in each checkout (the working directory is the checkout), the side
that runs first alternating from pair to pair. ``--workload`` may be given
more than once; the workloads run one after another over the same seeds.

Writes BENCH_parent.json and BENCH_change.json to the current directory
after every pair: ``what``, ``command``, ``machine`` (the facts the first
run printed) and ``runs``, one entry per run holding its workload, seed,
trace flag, exit code and ``result``, the JSON object on the run's last
line of standard output.

At the end, for each workload and each end-to-end metric of the change's
BENCHMARK.json, prints both sides' medians and quartiles, the pairs the
change won (ties count for neither), the median's relative change against
the metric's bound, and whether a claimed gain would hold: the change wins
at least 9 of 10 pairs and the medians differ, in the better direction, by
more than the distance between the parent's quartiles. It also prints each
side's failed fraction. Imports nothing from either checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SECONDS = 30
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    lo, sep, hi = text.partition("-")
    if not sep or not lo.isdigit() or not hi.isdigit() or int(hi) < int(lo):
        raise argparse.ArgumentTypeError(f"seeds must be A-B with A <= B, "
                                         f"got {text!r}")
    return list(range(int(lo), int(hi) + 1))


def run_one(checkout: str, workload: str, seed: int) -> tuple:
    """(run entry, machine facts or None) of one untraced run."""
    argv = ["python3", "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
        sys.stderr.write(f"{checkout} {workload} seed {seed}: no result "
                         f"line (exit {proc.returncode})\n{proc.stderr}\n")
    return ({"workload": workload, "seed": seed, "trace": 0,
             "exit": proc.returncode, "result": result}, machine)


def write_files(runs: dict, machine, workloads: list, seeds: list) -> None:
    for side in SIDES:
        doc = {
            "what": f"perfbench/run.py result lines (the last stdout line of "
                    f"each run), at the {side}; each untraced run alternates "
                    f"with the other side's run of the same seed, the side "
                    f"that runs first alternating from pair to pair "
                    f"(workloads {', '.join(workloads)}; seeds "
                    f"{seeds[0]}-{seeds[-1]})",
            "command": f"python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {SECONDS} --trace 0",
            "machine": machine,
            "runs": runs[side],
        }
        with open(f"BENCH_{side}.json", "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


def metric(entry: dict, name: str):
    result = entry["result"]
    if not result or name not in result.get("metrics", {}):
        return None
    return result["metrics"][name]["value"]


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: dict, workload: str, end_to_end: list) -> list:
    pairs = list(zip(*([r for r in runs[side] if r["workload"] == workload]
                       for side in SIDES)))
    lines = [f"== {workload}: {len(pairs)} pairs"]
    for side, idx in (("parent", 0), ("change", 1)):
        attempted = sum((p[idx]["result"] or {}).get("attempted", 1)
                        for p in pairs)
        failed = sum((p[idx]["result"] or {"failed": 1}).get("failed", 0)
                     for p in pairs)
        lines.append(f"  {side} failed_frac {failed / max(attempted, 1):.4f} "
                     f"({failed}/{attempted})")
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        got = [(metric(p, name), metric(c, name)) for p, c in pairs]
        got = [(a, b) for a, b in got if a is not None and b is not None]
        if not got:
            lines.append(f"  {name}: no complete pair")
            continue
        par = quartiles([a for a, _ in got])
        chg = quartiles([b for _, b in got])
        wins = sum((b < a) if lower else (b > a) for a, b in got)
        losses = sum((b > a) if lower else (b < a) for a, b in got)
        gain = (par[1] - chg[1]) if lower else (chg[1] - par[1])
        rel = (chg[1] - par[1]) / par[1]
        spread = par[2] - par[0]
        nine_tenths = wins >= 0.9 * len(got)
        beyond_spread = gain > spread
        holds = {True: "holds", False: "fails"}
        lines.append(
            f"  {name} ({spec['better']} is better, bound {spec['bound']:.0%})"
            f": parent {par[1]:.4g} [{par[0]:.4g}, {par[2]:.4g}], change "
            f"{chg[1]:.4g} [{chg[0]:.4g}, {chg[2]:.4g}], median {rel:+.2%} "
            f"(parent spread {spread / par[1]:.2%}); change won "
            f"{wins}/{len(got)}, lost {losses}; 9/10 rule "
            f"{holds[nine_tenths]}, quartile-spread rule "
            f"{holds[beyond_spread]}; a gain "
            f"{holds[nine_tenths and beyond_spread]}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True)
    args = p.parse_args(argv)
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]

    runs = {side: [] for side in SIDES}
    machine = None
    pair = 0
    for workload in args.workload:
        for seed in args.seeds:
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                entry, facts = run_one(dirs[side], workload, seed)
                runs[side].append(entry)
                machine = machine or facts
                print(f"{workload} seed {seed} {side}: exit {entry['exit']} "
                      f"{json.dumps((entry['result'] or {}).get('metrics'))}",
                      flush=True)
            pair += 1
            write_files(runs, machine, args.workload, args.seeds)
    for workload in args.workload:
        print("\n".join(summarize(runs, workload, end_to_end)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
