"""Long-running training arms behind the directional acceptance checks.

The desk-scale learning comparison (three variants on a small Meetup) and
the social-learning smoke test (novices with and without a frozen expert on
a reduced TaskList) take hours of CPU, so they run out of band and cache
their results as JSON under .acceptance_cache/ at the repository root. The
acceptance test module reads the cache and asserts on it when
JA_RUN_LONG_ACCEPTANCE=1 is set.

Run directly to produce the cache:

    python3 tests/acceptance_runs.py meetup    # 3 arms x 3 seeds
    python3 tests/acceptance_runs.py social    # expert arm + paired arms
    python3 tests/acceptance_runs.py all

Each arm is skipped if its cache file already exists, so the command is
safe to re-run after an interruption.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from jointattn.ja_reward import IncentiveConfig
from jointattn.training import (
    AgentRunner,
    AgentSpec,
    PPOConfig,
    PopulationSpec,
    Trainer,
    load_checkpoint,
    save_checkpoint,
    social_learning_run,
)

CACHE_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".acceptance_cache")

MEETUP_ARMS = ("joint_attention", "attention_only", "independent_ppo")
SEEDS = (11, 22, 33)
# Budgets are whole segments (segment_length 128 x 8 envs = 1024 env steps)
# so a finished run never exceeds the stated step ceiling.
MEETUP_STEPS = 195 * 1024          # 199_680 <= 2e5
# Every arm of a suite evaluates at the same env steps, so an arm whose
# episodes get shorter earns no extra draws at criterion 8's best-of
# maximum: 12 evaluations in MEETUP_STEPS.
MEETUP_EVAL_INTERVAL = 16 * 1024
MEETUP_ENV = {"interior": 6, "landmarks": 2, "episode_cap": 100}

# A compact arena keeps the key -> door -> goal chain discoverable by
# undirected exploration, and the cap leaves room for the one shared key
# to serialize three agents through the chain.
SOCIAL_ENV = {"interior": 4, "tasklist_subtasks": 3, "episode_cap": 70}
SOCIAL_STEPS = 146 * 1024          # 149_504
EXPERT_STEPS = 195 * 1024
# Criterion 9's steps to 0.8 and the expert's 0.9 stop read the first
# evaluation past the bar, so they resolve to this interval: 4 segments,
# the same steps in both arms. An evaluation of 20 greedy episodes costs a
# few percent of one segment.
SOCIAL_EVAL_INTERVAL = 4 * 1024

# The incentive weight is stronger than the library default and reaches
# full strength early. Probed alternatives did worse on held alignment: a
# weak weight (0.05) lets pairwise attention divergence drift back up to
# the no-bonus baseline as policies specialize, and a slowly climbing ramp
# (peak 0.3 at 150k) ends even higher because the pressure arrives only
# after behavior has hardened. A moderate flat weight applied while the
# policies are still forming held divergence lowest, and also posted the
# best early coordination success of the flat schedules.
RUN_INCENTIVE = dict(beta_max=0.15, beta_rampup_steps=20_000)

# Optimizer settings picked by staged desk-scale probing (13 configurations,
# each judged by greedy evaluation success): a higher learning rate, a
# shorter credit horizon (gamma 0.95, lambda 0.9), more optimization epochs
# per rollout segment, and a small entropy bonus all helped. The entropy
# coefficient matters most where rewards are sparse: at 5e-3 a lone
# task-list agent never converts partial progress into completed episodes,
# while at 1e-3 it passes 0.8 greedy success within 6e4 steps.
RUN_PPO = dict(learning_rate=1.5e-3, gamma=0.95, gae_lambda=0.9,
               entropy_coef=0.001, epochs=8)


def _path(name: str) -> str:
    return os.path.join(CACHE_DIR, name + ".json")


def _save(name: str, payload: dict) -> None:
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = _path(name) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f)
    os.replace(tmp, _path(name))


def load_result(name: str):
    try:
        with open(_path(name)) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _run(trainer: Trainer, max_steps: int, name: str, eval_interval: int,
         stop_success: float | None = None) -> dict:
    records = []
    t0 = time.time()

    def on_record(rec):
        records.append(rec)
        if rec["event"] != "update" or len(records) % 20 == 0:
            line = {k: rec.get(k) for k in
                    ("event", "global_step", "episodes",
                     "mean_collective_reward", "success_rate")}
            print(f"[{name}] {line} ({time.time() - t0:.0f}s)", flush=True)

    stop = None
    if stop_success is not None:
        stop = lambda ev: ev["success_rate"] >= stop_success
    summary = trainer.run(max_env_steps=max_steps, eval_interval=eval_interval,
                          eval_episodes=20, on_record=on_record,
                          stop_when=stop)
    return {
        "name": name,
        "complete": True,
        "global_step": summary["global_step"],
        "episodes": summary["episodes"],
        "final_eval": summary["final_eval"],
        "records": records,
        "wall_seconds": round(time.time() - t0, 1),
    }


def run_meetup_arm(arm: str, seed: int) -> dict:
    name = f"meetup_{arm}_s{seed}"
    cached = load_result(name)
    if cached is not None and cached.get("complete"):
        print(f"[{name}] cached", flush=True)
        return cached
    pop = PopulationSpec([AgentSpec(arm), AgentSpec(arm)],
                         IncentiveConfig(**RUN_INCENTIVE))
    trainer = Trainer("meetup", "default", pop, PPOConfig(**RUN_PPO),
                      seed=seed, env_overrides=dict(MEETUP_ENV))
    result = _run(trainer, MEETUP_STEPS, name,
                  eval_interval=MEETUP_EVAL_INTERVAL)
    result.update(arm=arm, seed=seed)
    _save(name, result)
    return result


def expert_checkpoint_dir() -> str:
    return os.path.join(CACHE_DIR, "expert_ckpt")


def run_expert() -> dict:
    name = "social_expert"
    cached = load_result(name)
    if cached is not None and cached.get("complete"):
        print(f"[{name}] cached", flush=True)
        return cached
    pop = PopulationSpec([AgentSpec("attention_only")],
                         IncentiveConfig(**RUN_INCENTIVE))
    trainer = Trainer("tasklist", "default", pop, PPOConfig(**RUN_PPO),
                      seed=7, env_overrides=dict(SOCIAL_ENV))
    result = _run(trainer, EXPERT_STEPS, name,
                  eval_interval=SOCIAL_EVAL_INTERVAL, stop_success=0.9)
    save_checkpoint(expert_checkpoint_dir(), trainer.agents,
                    trainer.global_step, trainer.episodes)
    _save(name, result)
    return result


def run_social_arm(with_expert: bool, seed: int) -> dict:
    tag = "expert" if with_expert else "alone"
    name = f"social_{tag}_s{seed}"
    cached = load_result(name)
    if cached is not None and cached.get("complete"):
        print(f"[{name}] cached", flush=True)
        return cached
    params = None
    if with_expert:
        size = SOCIAL_ENV["interior"] + 2
        expert = AgentRunner(AgentSpec("attention_only"), size, size,
                             PPOConfig(), seed=0)
        expert.adam = None      # a frozen expert needs no Adam moments
        load_checkpoint(expert_checkpoint_dir(), [expert])
        params = expert.core.flat
    trainer = social_learning_run(
        n_novices=2, expert_params=params,
        incentive=IncentiveConfig(**RUN_INCENTIVE), ppo=PPOConfig(**RUN_PPO),
        seed=seed, env_overrides=dict(SOCIAL_ENV))
    result = _run(trainer, SOCIAL_STEPS, name,
                  eval_interval=SOCIAL_EVAL_INTERVAL, stop_success=0.9)
    result.update(with_expert=with_expert, seed=seed)
    _save(name, result)
    return result


def steps_to_threshold(result: dict, threshold: float) -> int:
    """First global_step whose evaluation success meets the threshold;
    censored at the arm's final step count if it never does."""
    for rec in result["records"]:
        if rec["event"] in ("eval", "final_eval") \
                and rec.get("success_rate") is not None \
                and rec["success_rate"] >= threshold:
            return rec["global_step"]
    return result["global_step"]


def run_meetup_suite() -> None:
    for seed in SEEDS:
        for arm in MEETUP_ARMS:
            run_meetup_arm(arm, seed)


def run_social_suite() -> None:
    run_expert()
    for seed in SEEDS:
        run_social_arm(True, seed)
        run_social_arm(False, seed)


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
