"""The long-tier runner, tests/acceptance_runs.py, on a miniature suite.

The module's config paths, cache directory, seeds and budgets are swapped
for tiny ones, and its `all` suite is run once. Every arm's records must
equal a direct ``Trainer.run`` on the same settings, the expert it picks
must hold the vector a run stopped at the same bar ends with, a relaunch
must skip complete arms and rerun an incomplete one, and criteria 8's and
9's readers must compute on the run directories.
"""

import json
import os
import shutil

import numpy as np
import pytest

import acceptance_runs
import test_acceptance
from jointattn.cli import load_config_file
from jointattn.ja_reward import IncentiveConfig
from jointattn.training import (
    AgentSpec,
    PPOConfig,
    PopulationSpec,
    Trainer,
    social_learning_run,
)

TINY_PPO = """\
ppo.segment_length = 8
ppo.chunk_length = 4
ppo.batch_size = 8
ppo.n_envs = 2
ppo.epochs = 1
run.eval_interval = 16
run.eval_episodes = 2
"""
TINY_MEETUP = """\
env.kind = meetup
env.interior = 4
env.episode_cap = 10
run.max_env_steps = 32
""" + TINY_PPO
TINY_EXPERT = """\
env.kind = tasklist
env.interior = 4
env.tasklist_subtasks = 3
env.episode_cap = 10
population.variants = attention_only
run.seed = 7
run.max_env_steps = 48
""" + TINY_PPO
SOCIAL_STEPS = 32
SEEDS = (11, 22)


def _patch(mp, root, cache):
    """Point the runner's constants at the miniature suite in ``root``,
    with its cache in ``cache``."""
    mp.setattr(acceptance_runs, "CACHE_DIR", cache)
    mp.setattr(acceptance_runs, "MEETUP_CFG", str(root / "meetup.cfg"))
    mp.setattr(acceptance_runs, "EXPERT_CFG", str(root / "expert.cfg"))
    mp.setattr(acceptance_runs, "SEEDS", SEEDS)
    mp.setattr(acceptance_runs, "SOCIAL_STEPS", SOCIAL_STEPS)
    # every evaluation clears the bar, so the first one is picked
    mp.setattr(acceptance_runs, "EXPERT_SUCCESS", 0.0)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """The miniature suite's directory, after one ``all`` launch into its
    cache/."""
    root = tmp_path_factory.mktemp("long_tier")
    for name, text in (("meetup.cfg", TINY_MEETUP),
                       ("expert.cfg", TINY_EXPERT)):
        (root / name).write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        _patch(mp, root, str(root / "cache"))
        assert acceptance_runs.main(["all"]) == 0
    return root


@pytest.fixture
def tiny(suite, monkeypatch):
    """The miniature suite's cache, with the runner pointed at it."""
    _patch(monkeypatch, suite, str(suite / "cache"))
    return str(suite / "cache")


def _lines(path):
    with open(path) as f:
        return f.read().splitlines()


def _run(trainer, cfg, max_env_steps, stop_when=None):
    """``trainer.run`` on ``cfg``'s schedule: its records as JSON lines,
    and its summary."""
    records = []
    summary = trainer.run(max_env_steps=max_env_steps,
                          eval_interval=cfg.eval_interval,
                          eval_episodes=cfg.eval_episodes,
                          on_record=records.append, stop_when=stop_when)
    return [json.dumps(r) for r in records], summary


def _trainer(cfg, variants, seed):
    pop = PopulationSpec([AgentSpec(v) for v in variants], cfg.incentive)
    return Trainer(cfg.env_kind, cfg.env_variant, pop, cfg.ppo, seed=seed,
                   env_overrides=cfg.env_overrides)


def _meetup_run(arm, seed):
    cfg = load_config_file(acceptance_runs.MEETUP_CFG)
    return _run(_trainer(cfg, (arm, arm), seed), cfg, cfg.max_env_steps)


def _stopped_expert():
    """The expert trained until its first evaluation at the bar."""
    cfg = load_config_file(acceptance_runs.EXPERT_CFG)
    trainer = _trainer(cfg, cfg.population, cfg.seed)
    bar = acceptance_runs.EXPERT_SUCCESS
    _run(trainer, cfg, cfg.max_env_steps,
         stop_when=lambda ev: ev["success_rate"] >= bar)
    return trainer


def test_config_files_hold_the_tuned_values():
    meetup = load_config_file(acceptance_runs.MEETUP_CFG)
    expert = load_config_file(acceptance_runs.EXPERT_CFG)
    ppo = PPOConfig(learning_rate=1.5e-3, gamma=0.95, gae_lambda=0.9,
                    entropy_coef=0.001, epochs=8)
    incentive = IncentiveConfig(beta_max=0.15, beta_rampup_steps=20_000)
    for cfg in (meetup, expert):
        assert (cfg.ppo, cfg.incentive) == (ppo, incentive)
        assert (cfg.eval_episodes, cfg.max_env_steps) == (20, 195 * 1024)
    assert meetup.env_overrides == {"interior": 6, "landmarks": 2,
                                    "episode_cap": 100}
    assert (meetup.env_kind, meetup.eval_interval) == ("meetup", 16 * 1024)
    assert expert.env_overrides == {"interior": 4, "tasklist_subtasks": 3,
                                    "episode_cap": 70}
    assert (expert.env_kind, expert.population) == ("tasklist",
                                                    ("attention_only",))
    assert (expert.seed, expert.eval_interval) == (7, 4 * 1024)


def test_meetup_arms_match_a_direct_run(tiny):
    for seed in SEEDS:
        for arm in acceptance_runs.MEETUP_ARMS:
            outdir = os.path.join(tiny, f"meetup_{arm}_s{seed}")
            lines, summary = _meetup_run(arm, seed)
            # the first line is the CLI's start record
            assert _lines(os.path.join(outdir, "metrics.jsonl"))[1:] == lines
            with open(os.path.join(outdir, "final_summary.json")) as f:
                assert json.load(f) == summary["final_eval"]
            with open(os.path.join(outdir, "stamp.json")) as f:
                assert set(json.load(f)) == {"commit", "wall_seconds"}


def test_expert_pick_and_social_arms_match_a_stopped_run(tiny):
    expert_dir = os.path.join(tiny, "expert")
    with open(os.path.join(expert_dir, "manifest.json")) as f:
        final = json.load(f)["final_checkpoint"]
    stopped = _stopped_expert()
    picked = os.path.join("checkpoints", f"step{stopped.global_step:09d}")
    assert picked != final      # the pick is not the end of the budget
    assert np.array_equal(
        np.load(os.path.join(expert_dir, picked, "agent0.npy")),
        stopped.agents[0].core.flat)

    cfg = load_config_file(acceptance_runs.EXPERT_CFG)
    for seed in SEEDS:
        outdir = os.path.join(tiny, f"social_s{seed}")
        with open(os.path.join(outdir, "manifest.json")) as f:
            assert json.load(f)["expert_checkpoint"] == \
                os.path.join(expert_dir, picked)
        for tag, params in (("with_expert", stopped.agents[0].core.flat),
                            ("alone", None)):
            trainer = social_learning_run(
                cfg.env_kind, 2, params, cfg.incentive, cfg.ppo, seed,
                cfg.env_overrides)
            lines, _ = _run(trainer, cfg, SOCIAL_STEPS)
            want = [json.dumps({**json.loads(line), "arm": tag})
                    for line in lines]
            assert _lines(os.path.join(outdir, f"metrics_{tag}.jsonl"))[1:] \
                == want


def test_pick_expert_takes_the_first_eval_at_the_bar():
    records = [
        {"event": "start", "global_step": 0},
        {"event": "update", "global_step": 1024, "success_rate": None},
        {"event": "eval", "global_step": 4096, "success_rate": 0.85},
        {"event": "eval", "global_step": 8192, "success_rate": 0.9},
        {"event": "eval", "global_step": 12288, "success_rate": 1.0},
        {"event": "final_eval", "global_step": 12288, "success_rate": 1.0},
    ]
    final = os.path.join("checkpoints", "step000012288")
    pick = acceptance_runs.pick_expert
    assert pick(records, final, 0.9) == \
        os.path.join("checkpoints", "step000008192")
    assert pick(records, final, 0.5) == \
        os.path.join("checkpoints", "step000004096")
    # no evaluation reaches the bar: the final checkpoint
    assert pick(records[:3], os.path.join("checkpoints", "step000005120"),
                0.9) == os.path.join("checkpoints", "step000005120")
    # a final evaluation at the bar does not count
    last = [records[2], {**records[5], "success_rate": 0.95}]
    assert pick(last, final, 0.9) == final


def test_relaunch_skips_complete_arms_and_reruns_an_incomplete_one(
        tiny, tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    shutil.copytree(tiny, cache)
    monkeypatch.setattr(acceptance_runs, "CACHE_DIR", cache)
    killed = os.path.join(cache, "meetup_attention_only_s11")
    metrics = _lines(os.path.join(killed, "metrics.jsonl"))
    # a kill before the final summary: metrics.jsonl but no summary
    os.remove(os.path.join(killed, "final_summary.json"))
    arms = [os.path.join(cache, name) for name in os.listdir(cache)]
    for outdir in arms:
        with open(os.path.join(outdir, "kept"), "w"):
            pass

    assert acceptance_runs.main(["all"]) == 0

    for outdir in arms:
        assert os.path.exists(os.path.join(outdir, "kept")) \
            == (outdir != killed)
    assert acceptance_runs.run_complete(killed)
    # rerun from step 0 in a fresh directory, not appended to the old one
    assert _lines(os.path.join(killed, "metrics.jsonl")) == metrics


def test_criterion_readers_compute_on_the_run_directories(tiny,
                                                         monkeypatch):
    monkeypatch.setenv("JA_RUN_LONG_ACCEPTANCE", "1")
    read = test_acceptance._long_tier_result
    steps_to = test_acceptance.steps_to_threshold
    for arm in acceptance_runs.MEETUP_ARMS:
        lines, summary = _meetup_run(arm, 11)
        records = [json.loads(line) for line in lines]
        run = read(f"meetup_{arm}_s11")
        assert run["global_step"] == summary["global_step"]
        assert run["final_eval"] == summary["final_eval"]
        assert test_acceptance._best_success(run) == max(
            r["success_rate"] for r in records
            if r["event"] in ("eval", "final_eval"))
    for seed in SEEDS:
        for tag in ("with_expert", "alone"):
            run = read(f"social_s{seed}", f"metrics_{tag}.jsonl")
            assert "final_eval" not in run
            assert run["global_step"] == SOCIAL_STEPS
            # every evaluation clears 0; none clears a bar above 1
            assert steps_to(run, 0.0) == 16
            assert steps_to(run, 1.5) == SOCIAL_STEPS
    with pytest.raises(pytest.skip.Exception, match="no complete run"):
        read("meetup_joint_attention_s99")
