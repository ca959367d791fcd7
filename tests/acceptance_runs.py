"""Long-running training arms behind the directional acceptance checks.

The desk-scale learning comparison (three variants on a small Meetup) and
the social-learning smoke test (novices with and without a frozen expert on
a reduced TaskList) take hours of CPU, so they run out of band. Each arm is
one ``jointattn train`` or ``jointattn social`` run on a config file of
tests/long_tier/, into its own directory under .acceptance_cache/ at the
repository root. The acceptance test module reads those run directories
when JA_RUN_LONG_ACCEPTANCE=1 is set.

Run directly to produce them:

    python3 tests/acceptance_runs.py meetup    # 3 arms x 3 seeds
    python3 tests/acceptance_runs.py social    # the expert, then 3 seeds
    python3 tests/acceptance_runs.py all

A complete arm is skipped on relaunch; an arm left incomplete is removed
and rerun from step 0. Each arm's directory gets a stamp.json with the
commit and the wall seconds, beside the manifest's config hash.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from jointattn import cli

CACHE_DIR = os.path.join(ROOT, ".acceptance_cache")
MEETUP_CFG = os.path.join(ROOT, "tests", "long_tier", "meetup.cfg")
EXPERT_CFG = os.path.join(ROOT, "tests", "long_tier", "expert.cfg")

MEETUP_ARMS = ("joint_attention", "attention_only", "independent_ppo")
SEEDS = (11, 22, 33)
# Each social run trains its two arms for 146 whole segments of 1024 env
# steps, on the expert's config.
SOCIAL_STEPS = 146 * 1024          # 149_504
# The social arms learn from the expert's checkpoint at its first
# evaluation of this success rate or more.
EXPERT_SUCCESS = 0.9


def run_complete(outdir: str) -> bool:
    """Whether ``outdir`` holds a finished ``train`` run (its
    final_summary.json) or a finished ``social`` run (its manifest's
    ``results``)."""
    if os.path.isfile(os.path.join(outdir, "final_summary.json")):
        return True
    try:
        with open(os.path.join(outdir, "manifest.json")) as f:
            return "results" in json.load(f)
    except (OSError, ValueError):
        return False


def run_arm(name: str, argv: list) -> str:
    """``jointattn ARGV --output-dir CACHE_DIR/NAME``, unless that run is
    complete; an incomplete one is removed first. Returns the run
    directory, stamped with the commit and the wall seconds."""
    outdir = os.path.join(CACHE_DIR, name)
    if run_complete(outdir):
        return outdir
    if os.path.exists(outdir):
        shutil.rmtree(outdir)
    t0 = time.time()
    code = cli.main([*argv, "--output-dir", outdir])
    if code != 0:
        raise SystemExit(f"{name}: jointattn {argv[0]} exited with {code}")
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    cli._write_json(os.path.join(outdir, "stamp.json"),
                    {"commit": commit or None,
                     "wall_seconds": round(time.time() - t0, 1)})
    return outdir


def pick_expert(records: list, final_checkpoint: str, bar: float) -> str:
    """The checkpoint, relative to its run directory, of the first ``eval``
    record whose success rate is ``bar`` or more (where a run stopped at
    that bar ends), else ``final_checkpoint``."""
    for rec in records:
        if rec["event"] == "eval" and rec["success_rate"] >= bar:
            return os.path.join("checkpoints", f"step{rec['global_step']:09d}")
    return final_checkpoint


def run_meetup_suite() -> None:
    for seed in SEEDS:
        for arm in MEETUP_ARMS:
            run_arm(f"meetup_{arm}_s{seed}",
                    ["train", "--config", MEETUP_CFG,
                     "--set", f"population.variants={arm}, {arm}",
                     "--seed", str(seed)])


def run_social_suite() -> None:
    outdir = run_arm("expert", ["train", "--config", EXPERT_CFG])
    with open(os.path.join(outdir, "metrics.jsonl")) as f:
        records = [json.loads(line) for line in f]
    with open(os.path.join(outdir, "manifest.json")) as f:
        final = json.load(f)["final_checkpoint"]
    expert = os.path.join(outdir, pick_expert(records, final, EXPERT_SUCCESS))
    for seed in SEEDS:
        run_arm(f"social_s{seed}",
                ["social", "--expert", expert, "--seed", str(seed),
                 "--max-env-steps", str(SOCIAL_STEPS)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=("meetup", "social", "all"))
    args = parser.parse_args(argv)
    if args.suite in ("meetup", "all"):
        run_meetup_suite()
    if args.suite in ("social", "all"):
        run_social_suite()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
