"""The benchmark's workloads: their inputs, one timed unit each, and the
checks on that unit's outputs.

A workload builds a *subject* from the run seed (a fresh ``Trainer``, or a
freshly written and loaded checkpoint) and runs timed units on it. The
benchmark builds two subjects from the same seed and alternates units
between them, so unit k of one must reproduce unit k of the other bit for
bit: each unit returns a digest of everything it produced.

A unit also probes the machine's speed between calls into the program as
it runs (``clock.Clock``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from jointattn import cli, training
from jointattn import numerics as nm
from jointattn.cli import ExperimentConfig, config_hash, serialize_config
from jointattn.gridworlds import VARIANTS
from jointattn.ja_reward import IncentiveConfig
from jointattn.training import (AgentSpec, PPOConfig, PopulationSpec, Trainer,
                                save_checkpoint)
from clock import Clock
from tracing import patched

# The long-tier training settings of tests/acceptance_runs.py, copied so that
# the benchmark's inputs stay fixed when the acceptance arms are retuned.
RUN_PPO = dict(learning_rate=1.5e-3, gamma=0.95, gae_lambda=0.9,
               entropy_coef=0.001, epochs=8)
RUN_INCENTIVE = dict(beta_max=0.15, beta_rampup_steps=20_000)
MEETUP_ENV = {"interior": 6, "landmarks": 2, "episode_cap": 100}

# the eval checkpoint is untrained and always written from this seed; the run
# seed picks the evaluation episodes
CHECKPOINT_SEED = 0


@dataclass
class Unit:
    seconds: float
    env_steps: int
    attempted: int
    failed: int
    digest: str
    problems: list = field(default_factory=list)
    episode_s: list = field(default_factory=list)
    slowdown: float = 1.0       # the machine's, from the probe (clock.py)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else
                 json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


class TrainWorkload:
    """One collect + update segment of a ``Trainer`` per unit."""

    def __init__(self, kind: str, n_agents: int, env: dict, ppo: dict):
        self.kind = kind
        self.n_agents = n_agents
        self.env = dict(env)
        self.ppo = dict(ppo)

    def make_subject(self, seed: int, workdir: str) -> Trainer:
        pop = PopulationSpec([AgentSpec("joint_attention")] * self.n_agents,
                             IncentiveConfig(**RUN_INCENTIVE))
        return Trainer(self.kind, "default", pop, PPOConfig(**self.ppo),
                       seed=seed, env_overrides=self.env)

    def run_unit(self, trainer: Trainer, probing: bool = True) -> Unit:
        ppo = trainer.ppo
        learners = sum(a.trainable for a in trainer.agents)
        calls = [a.core.forward_calls for a in trainer.agents]
        trainer.envset.segment_episode_returns = []
        clock = Clock(probing)
        with patched([(training.EnvSet, "step",
                       clock.probing_after(training.EnvSet.step)),
                      (nm, "adam_update",
                       clock.probing_after(nm.adam_update))]):
            clock.measure()
            t0 = clock.now()
            buf = trainer.collect_segment()
            collected = [a.core.forward_calls for a in trainer.agents]
            stats = trainer.update_from(buf)
            t1 = clock.now()
            clock.measure()
        trainer.global_step += ppo.segment_length * ppo.n_envs

        problems = []
        for k, (before, after) in enumerate(zip(calls, collected)):
            if after - before != ppo.segment_length + 1:
                problems.append(f"agent {k} made {after - before} rollout "
                                f"forward calls, expected "
                                f"{ppo.segment_length + 1}")
        if buf.no_rerun_forward_calls != 0:
            problems.append(f"the bonus re-ran the network "
                            f"{buf.no_rerun_forward_calls} times")
        if stats["aborted_updates"]:
            problems.append(f"{stats['aborted_updates']} PPO updates aborted")
        losses = [stats[k] for k in ("policy_loss", "value_loss", "entropy")]
        if not all(v is not None and math.isfinite(v) for v in losses):
            problems.append(f"non-finite losses {losses}")

        record = {
            "global_step": trainer.global_step,
            "episodes": trainer.episodes,
            "episode_returns": trainer.envset.segment_episode_returns,
            "r_ja_sum": float(buf.r_ja.sum()),
            "r_env_sums": [float(r.sum()) for r in buf.r_env],
            **stats,
        }
        params = b"".join(np.ascontiguousarray(p.data).tobytes()
                          for a in trainer.agents
                          for _, p in sorted(a.core.params.items()))
        failed = learners if problems else stats["aborted_updates"]
        return Unit(t1 - t0, ppo.segment_length * ppo.n_envs, learners,
                    failed, _digest(record, params), problems,
                    slowdown=clock.slowdown() if probing else 1.0)


class EvalWorkload:
    """One ``jointattn eval --generalize all`` call per unit, run through
    ``cli.main`` on a checkpoint that set-up writes and loads."""

    def __init__(self, kind: str, n_agents: int, env: dict, episodes: int):
        self.kind = kind
        self.n_agents = n_agents
        self.env = dict(env)
        self.episodes = episodes

    def make_subject(self, seed: int, workdir: str) -> tuple:
        cfg = ExperimentConfig(env_kind=self.kind,
                               population=("joint_attention",) * self.n_agents,
                               env_overrides=self.env, seed=CHECKPOINT_SEED)
        trainer = Trainer(cfg.env_kind, cfg.env_variant,
                          PopulationSpec([AgentSpec(v) for v in cfg.population],
                                         cfg.incentive),
                          cfg.ppo, seed=cfg.seed, env_overrides=cfg.env_overrides)
        ckdir = tempfile.mkdtemp(prefix="checkpoint", dir=workdir)
        save_checkpoint(ckdir, trainer.agents, 0, 0, config_hash(cfg))
        with open(os.path.join(ckdir, "config.cfg"), "w") as f:
            f.write(serialize_config(cfg))
        loaded = cli.read_checkpoint_config(ckdir)
        cli.build_agents_from_checkpoint(ckdir, loaded)
        return ckdir, seed

    def run_unit(self, subject: tuple, probing: bool = True) -> Unit:
        ckdir, seed = subject
        argv = ["eval", "--checkpoint", ckdir, "--generalize", "all",
                "--episodes", str(self.episodes), "--seed", str(seed)]
        bounds = []         # (start of an episode) or (end of an evaluate)
        summaries = []
        reset, evaluate = training.reset, training.evaluate
        generalization_eval = cli.generalization_eval
        clock = Clock(probing)

        def timed_reset(*args, **kwargs):
            bounds.append(("reset", clock.now()))
            return reset(*args, **kwargs)

        def timed_evaluate(*args, **kwargs):
            out = evaluate(*args, **kwargs)
            bounds.append(("end", clock.now()))
            return out

        def kept_generalization_eval(*args, **kwargs):
            out = generalization_eval(*args, **kwargs)
            summaries.append(out)
            return out

        stdout = io.StringIO()
        with patched([(training, "reset", timed_reset),
                      (training, "step", clock.probing_after(training.step)),
                      (training, "evaluate", timed_evaluate),
                      (cli, "generalization_eval", kept_generalization_eval)]), \
                contextlib.redirect_stdout(stdout):
            clock.measure()
            t0 = clock.now()
            code = cli.main(argv)
            t1 = clock.now()
            clock.measure()

        episode_s = [b[1] - a[1] for a, b in zip(bounds, bounds[1:])
                     if a[0] == "reset"]
        problems = [] if code == 0 else [f"jointattn eval exited {code}"]
        summary = summaries[0] if summaries else {}
        env_steps = 0
        for variant, ev in summary.items():
            env_steps += round(ev["mean_episode_length"] * ev["episodes"])
            jsd = ev["mean_pairwise_jsd"]
            if not 0.0 <= ev["success_rate"] <= 1.0:
                problems.append(f"{variant}: success_rate "
                                f"{ev['success_rate']} outside [0, 1]")
            if jsd is None or not 0.0 <= jsd <= math.log(2.0):
                problems.append(f"{variant}: mean_pairwise_jsd {jsd} "
                                f"outside [0, ln 2]")
        expected = self.episodes * sum(self.kind in kinds
                                       for kinds in VARIANTS.values())
        if len(episode_s) != expected:
            problems.append(f"{len(episode_s)} episodes ran, expected "
                            f"{expected}")
        attempted = max(len(episode_s), 1)
        return Unit(t1 - t0, env_steps, attempted,
                    attempted if problems else 0,
                    _digest(summary, stdout.getvalue()), problems, episode_s,
                    clock.slowdown() if probing else 1.0)


WORKLOADS = {
    "train_meetup_ref": TrainWorkload(
        "meetup", 2, MEETUP_ENV, RUN_PPO),
    "train_colorgather_wide": TrainWorkload(
        "colorgather", 3, {"interior": 8},
        dict(RUN_PPO, n_envs=16, epochs=1, batch_size=128)),
    "eval_meetup_generalize": EvalWorkload(
        "meetup", 3, {"interior": 8}, episodes=8),
}
