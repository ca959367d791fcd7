"""Training-harness tests: storage contracts, GAE oracles, PPO semantics,
decentralization, determinism, checkpoints, and the social-learning mode."""

import copy
import gc
import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

import acceptance_runs
from jointattn import numerics as nm
from jointattn import training
from jointattn.attention_net import AgentCore, act, pose_vector
from jointattn.cli import load_config_file
from jointattn.gridworlds import make_config, reset, step
from jointattn.ja_reward import (IncentiveConfig, clipped_jsd, jsd,
                                 kl_divergence, pairwise_divergence)
from jointattn.training import (
    AgentRunner,
    AgentSpec,
    EnvSet,
    PopulationSpec,
    PPOConfig,
    RolloutBuffer,
    Trainer,
    batch_poses,
    collect_rollouts,
    compute_advantages,
    evaluate,
    generalization_eval,
    load_checkpoint,
    lockstep_episodes,
    observation_array,
    ppo_update,
    recompute_r_ja,
    save_checkpoint,
    social_learning_run,
)

SMALL_ENV = {"interior": 5, "episode_cap": 12}


def small_trainer(variants, seed=0, beta_max=1e-2, metric="jsd", T=8, E=2,
                  env_overrides=None, kind="meetup", env_variant="default",
                  clip_threshold=-100.0):
    ppo = PPOConfig(segment_length=T, n_envs=E, chunk_length=4, batch_size=8,
                    epochs=2)
    pop = PopulationSpec([AgentSpec(v) for v in variants],
                         IncentiveConfig(metric=metric, beta_max=beta_max,
                                         beta_rampup_steps=1000,
                                         clip_threshold=clip_threshold))
    return Trainer(kind, env_variant, pop, ppo, seed=seed,
                   env_overrides=dict(env_overrides or SMALL_ENV))


def episode_starts(buf):
    """(T, E): the steps an ended episode hands a zero state, done[t - 1]."""
    resets = np.zeros_like(buf.done)
    resets[1:] = buf.done[:-1]
    return resets


class TestConfigs:
    def test_ppo_validation(self):
        with pytest.raises(ValueError):
            PPOConfig(clip_ratio=0.0)
        with pytest.raises(ValueError):
            PPOConfig(clip_ratio=1.5)
        with pytest.raises(ValueError):
            PPOConfig(gamma=-0.5)
        with pytest.raises(ValueError):
            PPOConfig(segment_length=20, chunk_length=16)
        with pytest.raises(ValueError):
            PPOConfig(batch_size=40, chunk_length=16)

    def test_population_needs_learner(self):
        with pytest.raises(ValueError, match="learner"):
            PopulationSpec([AgentSpec("frozen_expert", params=np.zeros(3))])

    def test_agent_spec_variant(self):
        with pytest.raises(ValueError):
            AgentSpec("unknown_variant")
        with pytest.raises(ValueError):
            AgentSpec("frozen_expert")  # no parameter source

    @pytest.mark.parametrize("variant", ["joint_attention", "attention_only",
                                         "independent_ppo"])
    def test_params_on_a_learner_raise(self, variant):
        # only a frozen expert reads a vector; a learner draws its own
        with pytest.raises(ValueError, match="only frozen_expert reads params"):
            AgentSpec(variant, params=np.zeros(3))

    def test_variant_flags(self):
        ppo = PPOConfig()
        ja = AgentRunner(AgentSpec("joint_attention"), 7, 7, ppo, 0)
        ao = AgentRunner(AgentSpec("attention_only"), 7, 7, ppo, 0)
        ippo = AgentRunner(AgentSpec("independent_ppo"), 7, 7, ppo, 0)
        assert ja.uses_attention and ja.uses_bonus and ja.trainable
        assert ao.uses_attention and not ao.uses_bonus
        assert not ippo.uses_attention and not ippo.uses_bonus
        assert ippo.core.params.get("keys/w") is None


class TestEnvSet:
    def test_layouts_replay_with_seed(self):
        cfg = make_config("meetup", agent_count=2, **SMALL_ENV)
        a = EnvSet("meetup", "default", cfg, 3, seed=5)
        b = EnvSet("meetup", "default", cfg, 3, seed=5)
        assert np.array_equal(a.batch.cells, b.batch.cells)
        grids_a = observation_array(a.batch_ids())
        grids_b = observation_array(b.batch_ids())
        assert np.array_equal(grids_a, grids_b)
        assert np.array_equal(batch_poses(a.batch)[0],
                              batch_poses(b.batch)[0])

    def test_batch_obs_scaled_floats(self):
        cfg = make_config("meetup", agent_count=2, **SMALL_ENV)
        es = EnvSet("meetup", "default", cfg, 2, seed=1)
        grids = observation_array(es.batch_ids())
        poses = batch_poses(es.batch)[1]
        assert grids.shape == (2, 7, 7, 3)
        assert grids.dtype == np.float64
        assert grids.max() <= 1.0
        assert poses.shape == (2, 6)

    def test_auto_reset_counts_episodes(self):
        cfg = make_config("meetup", agent_count=2, interior=5, episode_cap=3)
        es = EnvSet("meetup", "default", cfg, 2, seed=2)
        for _ in range(3):
            _, dones = es.step(np.zeros((2, 2), dtype=np.int64))
        assert dones.all()
        assert es.completed_episodes == 2
        assert (es.batch.step_count == 0).all()


class TestCollect:
    def test_single_agent_r_ja_all_zero(self):
        tr = small_trainer(["joint_attention"])
        buf = tr.collect_segment()
        assert buf.r_ja is not None
        assert np.array_equal(buf.r_ja, np.zeros_like(buf.r_ja))

    def test_ippo_only_population_has_no_map_lane(self):
        tr = small_trainer(["independent_ppo", "independent_ppo"])
        buf = tr.collect_segment()
        assert buf.map_agents == ()
        assert buf.fields.shape[0] == 0
        assert buf.r_ja is None

    def test_recompute_r_ja_without_producers_raises(self):
        buf = RolloutBuffer(2, 4, 2, 3, 3, 4, [], 4)
        with pytest.raises(ValueError, match=r"\(no map producers\)"):
            recompute_r_ja(buf, IncentiveConfig())

    def test_recompute_r_ja_one_producer_is_zero(self):
        buf = RolloutBuffer(2, 4, 2, 3, 3, 4, [0], 4)
        buf.fields[0] = np.random.default_rng(0).dirichlet(np.ones(9),
                                                           size=(4, 2))
        assert np.array_equal(recompute_r_ja(buf, IncentiveConfig()),
                              np.zeros((4, 2)))

    def test_replay_reproduces_r_ja_bit_identically(self):
        tr = small_trainer(["joint_attention", "attention_only"])
        buf = tr.collect_segment()
        assert np.array_equal(recompute_r_ja(buf, tr.incentive), buf.r_ja)

    def test_clipped_metric_stores_logit_maps(self):
        tr = small_trainer(["joint_attention", "joint_attention"],
                           metric="clipped_jsd")
        buf = tr.collect_segment()
        # the lane holds head-mean logits, not probability maps
        assert (buf.fields < 0.0).any()
        assert np.array_equal(recompute_r_ja(buf, tr.incentive), buf.r_ja)

    def test_clipped_metric_reference_segment_completes(self):
        # the benchmark's reference segment with the clipped metric at its
        # default threshold, which clips every logit of some fields away
        cfg = load_config_file(acceptance_runs.MEETUP_CFG)
        pop = PopulationSpec([AgentSpec("joint_attention")] * 2,
                             replace(cfg.incentive, metric="clipped_jsd"))
        tr = Trainer("meetup", "default", pop, cfg.ppo, seed=11,
                     env_overrides=cfg.env_overrides)
        buf = tr.collect_segment()
        assert (buf.fields.max(axis=-1) < 0.0).any()
        stats = tr.update_from(buf)
        assert stats["aborted_updates"] == 0
        assert all(np.isfinite(stats[k])
                   for k in ("policy_loss", "value_loss", "entropy"))
        assert np.isfinite(buf.r_ja).all()
        assert (buf.r_ja <= 0.0).all()
        assert (buf.r_ja >= -2.0 * np.log(2.0) - 1e-12).all()
        assert np.array_equal(recompute_r_ja(buf, tr.incentive), buf.r_ja)

    def test_incentive_adds_no_forward_passes(self):
        tr = small_trainer(["joint_attention", "joint_attention"])
        buf = tr.collect_segment()
        assert buf.no_rerun_forward_calls == 0

    def test_boundary_bookkeeping(self):
        # T = 16 in chunks of 4 and a 3-step episode cap: resets fall both
        # inside chunks and on a chunk start
        tr = small_trainer(["joint_attention", "joint_attention"], T=16,
                           env_overrides={"interior": 5, "episode_cap": 3})
        chunk = tr.ppo.chunk_length
        seen = [[] for _ in tr.agents]      # (frames, h, c) per agent_step
        for k, agent in enumerate(tr.agents):
            def spy(obs, p, state, _step=agent.core.agent_step, _k=k):
                seen[_k].append((np.array(obs), np.array(state.h),
                                 np.array(state.c)))
                return _step(obs, p, state)
            agent.core.agent_step = spy
        buf = tr.collect_segment()
        # the next step after an episode ends starts reset
        resets = episode_starts(buf)
        reset_steps = set(np.nonzero(resets.any(axis=1))[0].tolist())
        assert reset_steps & set(range(0, buf.T, chunk))
        assert reset_steps - set(range(0, buf.T, chunk))
        cell = tr.agents[0].core.cell_size
        assert buf.h0[0].shape == (buf.T // chunk, buf.E, cell)
        for k in range(len(tr.agents)):
            assert len(seen[k]) == buf.T + 1       # plus the bootstrap pass
            for t in range(buf.T):
                frames, h, c = seen[k][t]
                # the state each step acted from is zero at every reset...
                for e in np.nonzero(resets[t])[0]:
                    assert not h[e].any() and not c[e].any()
                # ...and is the stored snapshot at every chunk start
                if t % chunk == 0:
                    assert np.array_equal(buf.h0[k][t // chunk], h)
                    assert np.array_equal(buf.c0[k][t // chunk], c)
                # the one stored lane of ids scales back to the frames
                # every agent acted on
                assert np.array_equal(observation_array(buf.obs[t]), frames)

    def test_lane_dtypes_and_sizes_at_colorgather_shapes(self):
        # train_colorgather_wide's segment: 3 agents, 16 envs, 10x10 grids
        ppo = PPOConfig(n_envs=16)
        K, T, E, side = 3, ppo.segment_length, ppo.n_envs, 10
        cell = AgentRunner(AgentSpec(), side, side, ppo, 0).core.cell_size
        buf = RolloutBuffer(K, T, E, side, side, cell, range(K),
                            ppo.chunk_length)
        # one observation lane, shared by the K agents
        assert buf.obs.dtype == np.uint8
        assert buf.obs.shape == (T, E, side, side, 3)
        assert buf.obs.nbytes == T * E * side * side * 3 == 614_400
        for k in range(K):
            for snapshots in (buf.h0[k], buf.c0[k]):
                assert snapshots.dtype == np.float64
                assert snapshots.shape == (T // ppo.chunk_length, E, cell)
                assert snapshots.nbytes == 8 * 16 * cell * 8 == 65_536

    def test_out_of_range_cell_id_raises(self):
        for bad in (256, -1):
            tr = small_trainer(["joint_attention", "joint_attention"])
            tr.envset.batch.cells[1, 0, 0, 1] = bad
            with pytest.raises(ValueError, match="uint8"):
                tr.collect_segment()

    def test_state_cut_crosses_segments(self):
        # a 4-step cap divides T = 8, so rows whose episode runs to the cap
        # end on segment 1's last step; env 2 ends one early and does not
        tr = small_trainer(["joint_attention", "joint_attention"], E=4,
                           env_overrides={"interior": 5, "episode_cap": 4})
        held = [[] for _ in tr.agents]      # the state after each agent_step
        for k, agent in enumerate(tr.agents):
            def spy(obs, p, state, _step=agent.core.agent_step, _k=k):
                out = _step(obs, p, state)
                held[_k].append(out[3].detach())
                return out
            agent.core.agent_step = spy
        buf1 = tr.collect_segment()
        after = [held[k][buf1.T - 1] for k in range(len(tr.agents))]
        buf2 = tr.collect_segment()
        ended = buf1.done[-1]
        assert ended.any() and not ended.all()
        for k, state in enumerate(after):
            assert state.h[ended].any() and state.c[ended].any()
            assert not buf2.h0[k, 0][ended].any()
            assert not buf2.c0[k, 0][ended].any()
            assert np.array_equal(buf2.h0[k, 0][~ended], state.h[~ended])
            assert np.array_equal(buf2.c0[k, 0][~ended], state.c[~ended])

    def test_rewards_match_env_replay(self):
        tr = small_trainer(["joint_attention", "joint_attention"], seed=9)
        buf = tr.collect_segment()
        # replay the same seeds/actions directly through the environment
        cfg = tr.env_config
        es = EnvSet("meetup", "default", cfg, tr.ppo.n_envs,
                    tr.envset.base_seed)
        for t in range(buf.T):
            actions = np.stack([buf.actions[k][t] for k in range(2)], axis=1)
            rewards, dones = es.step(actions)
            for k in range(2):
                assert np.array_equal(rewards[:, k], buf.r_env[k][t])
            assert np.array_equal(dones, buf.done[t])


def manual_buffer(T, E, rewards, values, bootstrap, dones=None):
    buf = RolloutBuffer(1, T, E, 3, 3, 4, [], T)
    buf.r_env[0] = np.asarray(rewards, dtype=np.float64)
    buf.values[0] = np.asarray(values, dtype=np.float64)
    buf.bootstrap[0] = np.asarray(bootstrap, dtype=np.float64)
    if dones is not None:
        buf.done = np.asarray(dones, dtype=bool)
    return buf


class FlagAgent:
    trainable = True

    def __init__(self, uses_bonus):
        self.uses_bonus = uses_bonus


class TestAdvantages:
    def test_gamma_zero_is_myopic(self):
        rng = np.random.default_rng(0)
        r = rng.normal(size=(5, 1))
        v = rng.normal(size=(5, 1))
        buf = manual_buffer(5, 1, r, v, [0.0])
        ppo = PPOConfig(gamma=1e-12, gae_lambda=0.95)
        compute_advantages(buf, [FlagAgent(False)], IncentiveConfig(), ppo)
        expected = r - v
        expected = (expected - expected.mean()) / expected.std()
        assert np.allclose(buf.advantages[0], expected, atol=1e-9)

    def test_lambda_one_equals_discounted_return_minus_value(self):
        rng = np.random.default_rng(1)
        r = rng.normal(size=(5, 1))
        v = rng.normal(size=(5, 1))
        dones = np.zeros((5, 1), dtype=bool)
        dones[4, 0] = True           # episodic segment
        buf = manual_buffer(5, 1, r, v, [123.0], dones)
        gamma = 0.9
        ppo = PPOConfig(gamma=gamma, gae_lambda=1.0)
        compute_advantages(buf, [FlagAgent(False)], IncentiveConfig(), ppo)
        expected = np.zeros((5, 1))
        for t in range(5):
            ret = sum(gamma ** (s - t) * r[s, 0] for s in range(t, 5))
            expected[t, 0] = ret - v[t, 0]
        norm = (expected - expected.mean()) / expected.std()
        assert np.allclose(buf.advantages[0], norm, atol=1e-9)

    def test_zero_everything_skips_normalization(self):
        buf = manual_buffer(4, 2, np.zeros((4, 2)), np.zeros((4, 2)),
                            np.zeros(2))
        compute_advantages(buf, [FlagAgent(False)], IncentiveConfig(),
                           PPOConfig())
        assert np.array_equal(buf.advantages[0], np.zeros((4, 2)))

    def test_bonus_routed_only_to_bonus_users(self):
        rng = np.random.default_rng(2)
        r = rng.normal(size=(4, 1))
        v = rng.normal(size=(4, 1))
        base = manual_buffer(4, 1, r, v, [0.0])
        base.r_ja = rng.uniform(-1, 0, size=(4, 1))
        base.base_step = 500
        inc = IncentiveConfig(beta_max=0.5, beta_rampup_steps=1000)
        ppo = PPOConfig(gamma=0.9, gae_lambda=0.8)

        with_bonus = copy.deepcopy(base)
        compute_advantages(with_bonus, [FlagAgent(True)], inc, ppo)
        without = copy.deepcopy(base)
        compute_advantages(without, [FlagAgent(False)], inc, ppo)

        # oracle: manual GAE on the combined reward stream
        from jointattn.ja_reward import beta_schedule
        combined = r.copy()
        for t in range(4):
            combined[t] += beta_schedule(500 + t, inc) * base.r_ja[t]
        oracle = manual_buffer(4, 1, combined, v, [0.0])
        compute_advantages(oracle, [FlagAgent(False)], inc, ppo)
        assert np.allclose(with_bonus.advantages[0], oracle.advantages[0],
                           atol=1e-12)
        assert not np.allclose(with_bonus.advantages[0], without.advantages[0])


def bandit_buffer(agent, action, T=4, E=2, advantage=1.0):
    """Fixed-observation buffer of one T-step chunk pushing one action with
    a set advantage; returns it with the float frame the agent saw."""
    h = agent.core.height
    buf = RolloutBuffer(1, T, E, h, h, agent.core.cell_size, [], T)
    rng = np.random.default_rng(7)
    ids = rng.integers(0, 3, size=(h, h, 3))
    obs = observation_array(ids)
    buf.obs[:] = ids
    buf.pose[0][:] = 0.0
    buf.actions[0][:] = action
    state = agent.core.initial_state(E)
    buf.h0[0][0] = state.h
    buf.c0[0][0] = state.c
    for t in range(T):
        logits, value, _, state = agent.core.agent_step(
            np.repeat(obs[None], E, axis=0), np.zeros((E, 6)), state)
        state = state.detach()
        lp = logits.data - np.log(np.exp(logits.data
                                         - logits.data.max(-1, keepdims=True)
                                         ).sum(-1, keepdims=True)) \
            - logits.data.max(-1, keepdims=True)
        buf.log_probs[0][t] = lp[:, action]
        buf.values[0][t] = value.data
    buf.advantages[0] = np.full((T, E), advantage)
    buf.returns[0] = buf.values[0].copy()
    return buf, obs


def action_probs(agent, obs):
    state = agent.core.initial_state(1)
    logits, _, _, _ = agent.core.agent_step(obs[None], np.zeros((1, 6)), state)
    z = logits.data[0] - logits.data[0].max()
    e = np.exp(z)
    return e / e.sum()


class TestPPOUpdate:
    def _agent(self, seed=0, lr=1e-3):
        ppo = PPOConfig(learning_rate=lr)
        return AgentRunner(AgentSpec("independent_ppo"), 5, 5, ppo, seed)

    def test_positive_advantage_increases_action_probability(self):
        agent = self._agent()
        buf, obs = bandit_buffer(agent, action=2, advantage=1.0)
        before = action_probs(agent, obs)[2]
        cfg = PPOConfig(learning_rate=1e-3, chunk_length=4, batch_size=8,
                        segment_length=4, epochs=1, entropy_coef=0.0,
                        value_coef=0.0)
        stats = ppo_update(agent, buf, 0, cfg, np.random.default_rng(0))
        after = action_probs(agent, obs)[2]
        assert not stats["aborted"]
        assert after > before

    def test_negative_advantage_decreases_action_probability(self):
        agent = self._agent(seed=1)
        buf, obs = bandit_buffer(agent, action=5, advantage=-1.0)
        before = action_probs(agent, obs)[5]
        cfg = PPOConfig(learning_rate=1e-3, chunk_length=4, batch_size=8,
                        segment_length=4, epochs=1, entropy_coef=0.0,
                        value_coef=0.0)
        ppo_update(agent, buf, 0, cfg, np.random.default_rng(0))
        after = action_probs(agent, obs)[5]
        assert after < before

    def test_fully_clipped_batch_leaves_policy_head_unchanged(self):
        agent = self._agent(seed=2)
        buf, obs = bandit_buffer(agent, action=1, advantage=1.0)
        # fake old log-probs far below the live ones: ratio >> 1 + eps
        buf.log_probs[0] -= 5.0
        frozen = {n: p.data.copy() for n, p in agent.core.params.items()
                  if n.startswith("policy/")}
        cfg = PPOConfig(learning_rate=1e-3, chunk_length=4, batch_size=8,
                        segment_length=4, epochs=1, entropy_coef=0.0,
                        value_coef=0.0)
        ppo_update(agent, buf, 0, cfg, np.random.default_rng(0))
        for n, data in frozen.items():
            assert np.array_equal(agent.core.params[n].data, data), n

    def test_ratio_one_matches_vanilla_policy_gradient(self):
        agent = self._agent(seed=3)
        buf, obs = bandit_buffer(agent, action=0, advantage=1.0, T=4, E=1)
        cfg = PPOConfig(learning_rate=1e-3, chunk_length=4, batch_size=4,
                        segment_length=4, epochs=1, entropy_coef=0.0,
                        value_coef=0.0)
        # manual vanilla policy gradient on the same four steps
        twin = self._agent(seed=3)
        with nm.Tape():
            state = twin.core.initial_state(1)
            total = None
            for t in range(4):
                logits, _, _, state = twin.core.agent_step(
                    observation_array(buf.obs[t][:1]), np.zeros((1, 6)),
                    state)
                lp = nm.gather_last(nm.log_softmax(logits), [0])
                total = lp if total is None else total + lp
            nm.backward(nm.scale(nm.sum_all(total), -1.0 / 4.0))
        ppo_update(agent, buf, 0, cfg, np.random.default_rng(0))
        # compare the Adam direction implied by the vanilla gradient
        nm.adam_update(twin.core.flat, twin.core.grad, twin.adam)
        for n in agent.core.params:
            assert np.allclose(agent.core.params[n].data,
                               twin.core.params[n].data, atol=1e-9), n

    def test_params_stay_views_into_the_flat_vectors(self):
        tr = small_trainer(["joint_attention"], seed=9)
        buf = tr.collect_segment()
        compute_advantages(buf, tr.agents, tr.incentive, tr.ppo)
        agent = tr.agents[0]
        stats = ppo_update(agent, buf, 0, tr.ppo, np.random.default_rng(1))
        assert not stats["aborted"]
        twin = copy.deepcopy(agent)
        assert not np.shares_memory(twin.core.flat, agent.core.flat)
        for core in (agent.core, twin.core):
            assert not core.grad.any()
            for vec, attr in ((core.flat, "data"), (core.grad, "grad")):
                # the views tile the vector in params order, with no gap
                start = vec.__array_interface__["data"][0]
                offset = 0
                views = core.views(vec)
                assert list(views) == list(core.params)
                for n, p in core.params.items():
                    arr = getattr(p, attr)
                    for a in (arr, views[n]):
                        assert a.__array_interface__["data"][0] == \
                            start + 8 * offset, (n, attr)
                        assert a.shape == p.shape and a.flags.c_contiguous
                    offset += arr.size
                assert offset == vec.size

    def test_non_finite_loss_aborts_without_stepping(self):
        agent = self._agent(seed=4)
        buf, _ = bandit_buffer(agent, action=3)
        buf.advantages[0][:] = np.nan
        snapshot = {n: p.data.copy() for n, p in agent.core.params.items()}
        cfg = PPOConfig(chunk_length=4, batch_size=8, segment_length=4,
                        epochs=1)
        stats = ppo_update(agent, buf, 0, cfg, np.random.default_rng(0))
        assert stats["aborted"]
        assert "non-finite" in stats["reason"]
        for n, data in snapshot.items():
            assert np.array_equal(agent.core.params[n].data, data)

    def test_chunk_length_mismatch_raises(self):
        agent = self._agent(seed=5)
        buf, _ = bandit_buffer(agent, action=3)
        snapshot = {n: p.data.copy() for n, p in agent.core.params.items()}
        cfg = PPOConfig(chunk_length=2, batch_size=8, segment_length=4,
                        epochs=1)
        with pytest.raises(ValueError, match="chunk length"):
            ppo_update(agent, buf, 0, cfg, np.random.default_rng(0))
        for n, data in snapshot.items():
            assert np.array_equal(agent.core.params[n].data, data)

    def test_aborted_update_drops_its_tape(self):
        agent = self._agent(seed=4)
        buf, _ = bandit_buffer(agent, action=3)
        buf.advantages[0][:] = np.nan
        cfg = PPOConfig(chunk_length=4, batch_size=8, segment_length=4,
                        epochs=1)
        gc.collect()
        gc.disable()
        try:
            stats = ppo_update(agent, buf, 0, cfg, np.random.default_rng(0))
            live = [o for o in gc.get_objects()
                    if isinstance(o, nm.Tape) and len(o) > 0]
        finally:
            gc.enable()
        assert stats["aborted"]
        assert live == []

    def test_minibatches_gather_the_permuted_chunks(self, monkeypatch):
        # three envs of three chunks each: an env-major numbering differs
        # from a start-major one, and the nine chunks leave a one-chunk
        # minibatch; the 3-step cap puts resets inside chunks
        tr = small_trainer(["joint_attention", "joint_attention"], seed=10,
                           T=12, E=3,
                           env_overrides={"interior": 5, "episode_cap": 3})
        buf = tr.collect_segment()
        compute_advantages(buf, tr.agents, tr.incentive, tr.ppo)
        k, chunk, seed = 1, tr.ppo.chunk_length, 5
        resets = episode_starts(buf)
        assert resets[np.arange(buf.T) % chunk != 0].any()
        calls = []
        agent_step = AgentCore.agent_step

        def spy(core, obs, p, state, resets):
            T = len(resets)
            calls.append((np.array(obs).reshape((T, -1) + obs.shape[1:]),
                          np.array(p).reshape(T, -1, 6), np.array(state.h),
                          np.array(state.c), np.array(resets)))
            return agent_step(core, obs, p, state, resets)

        monkeypatch.setattr(AgentCore, "agent_step", spy)
        ppo_update(tr.agents[k], buf, k, tr.ppo, np.random.default_rng(seed))
        monkeypatch.undo()

        chunks = [(e, s) for e in range(buf.E) for s in range(0, buf.T, chunk)]
        per_batch = tr.ppo.batch_size // chunk
        rng = np.random.default_rng(seed)
        expected = []
        for _ in range(tr.ppo.epochs):
            order = rng.permutation(len(chunks))
            expected += [[chunks[i] for i in order[lo:lo + per_batch]]
                         for lo in range(0, len(order), per_batch)]
        assert len(calls) == len(expected)
        assert len(expected[-1]) == 1
        for (obs, p, h, c, seen), sel in zip(calls, expected):
            def steps(lane):
                return np.stack([lane[s:s + chunk, e] for e, s in sel], axis=1)
            assert np.array_equal(obs, observation_array(steps(buf.obs)))
            assert np.array_equal(p, steps(buf.pose[k]))
            # row 0 of a chunk is unread: its h0/c0 snapshot starts it
            assert np.array_equal(seen[1:], steps(resets)[1:])
            assert np.array_equal(h, np.stack([buf.h0[k][s // chunk, e]
                                               for e, s in sel]))
            assert np.array_equal(c, np.stack([buf.c0[k][s // chunk, e]
                                               for e, s in sel]))

    def test_update_depends_only_on_own_lane_and_shared_bonus(self):
        tr = small_trainer(["joint_attention", "joint_attention"], seed=8)
        buf = tr.collect_segment()
        compute_advantages(buf, tr.agents, tr.incentive, tr.ppo)

        agent_copy = copy.deepcopy(tr.agents[0])
        ppo_update(tr.agents[0], buf, 0, tr.ppo, np.random.default_rng(42))

        # the observation lane is shared by every agent, like the bonus
        stripped = copy.deepcopy(buf)
        for lane in (stripped.pose, stripped.actions,
                     stripped.log_probs, stripped.values, stripped.r_env,
                     stripped.h0, stripped.c0, stripped.advantages,
                     stripped.returns):
            lane[1] = np.zeros_like(np.asarray(lane[1]))
        stripped.fields[1][:] = 0.0
        ppo_update(agent_copy, stripped, 0, tr.ppo, np.random.default_rng(42))
        for n in tr.agents[0].core.params:
            assert np.array_equal(tr.agents[0].core.params[n].data,
                                  agent_copy.core.params[n].data), n


class TestTrainerRun:
    def test_metrics_stream_is_deterministic(self):
        streams = []
        for _ in range(2):
            tr = small_trainer(["joint_attention", "joint_attention"], seed=12)
            records = []
            tr.run(max_env_steps=3 * tr.ppo.segment_length * tr.ppo.n_envs,
                   eval_interval=10 ** 9, on_record=records.append)
            streams.append(records)
        assert streams[0] == streams[1]

    def test_eval_cadence_and_final_record(self):
        tr = small_trainer(["joint_attention", "joint_attention"], seed=13,
                           env_overrides={"interior": 5, "episode_cap": 3})
        records = []
        tr.run(max_env_steps=2 * tr.ppo.segment_length * tr.ppo.n_envs,
               eval_interval=4, eval_episodes=2, on_record=records.append)
        events = [r["event"] for r in records]
        assert "eval" in events
        assert events[-1] == "final_eval"
        eval_rec = next(r for r in records if r["event"] == "eval")
        assert set(eval_rec) >= {"global_step", "episodes",
                                 "mean_collective_reward",
                                 "mean_pairwise_jsd", "beta", "policy_loss",
                                 "value_loss", "entropy", "success_rate"}
        # beta follows the ramp at the recorded global step
        from jointattn.ja_reward import beta_schedule
        for r in records:
            assert r["beta"] == beta_schedule(r["global_step"], tr.incentive)

    def test_beta_zero_matches_attention_only_trajectory(self):
        ja = small_trainer(["joint_attention", "joint_attention"], seed=14,
                           beta_max=0.0)
        ao = small_trainer(["attention_only", "attention_only"], seed=14,
                           beta_max=0.0)
        for tr in (ja, ao):
            tr.run(max_env_steps=2 * tr.ppo.segment_length * tr.ppo.n_envs,
                   eval_interval=10 ** 9)
        for k in range(2):
            for n in ja.agents[k].core.params:
                assert np.array_equal(ja.agents[k].core.params[n].data,
                                      ao.agents[k].core.params[n].data), n

    def test_update_changes_parameters(self):
        tr = small_trainer(["joint_attention", "joint_attention"], seed=15)
        before = {n: p.data.copy()
                  for n, p in tr.agents[0].core.params.items()}
        buf = tr.collect_segment()
        tr.update_from(buf)
        changed = any(not np.array_equal(tr.agents[0].core.params[n].data, d)
                      for n, d in before.items())
        assert changed


class TestCheckpoints:
    def test_round_trip_restores_params_and_moments(self, tmp_path):
        tr = small_trainer(["joint_attention", "independent_ppo"], seed=16)
        buf = tr.collect_segment()
        tr.update_from(buf)
        path = str(tmp_path / "ck")
        save_checkpoint(path, tr.agents, global_step=160, episodes=7,
                        config_hash="abc")
        fresh = small_trainer(["joint_attention", "independent_ppo"], seed=99)
        meta = load_checkpoint(path, fresh.agents)
        assert meta["global_step"] == 160
        assert meta["episodes"] == 7
        assert meta["config_hash"] == "abc"
        for k in range(2):
            for n in tr.agents[k].core.params:
                assert np.array_equal(fresh.agents[k].core.params[n].data,
                                      tr.agents[k].core.params[n].data)
            assert np.array_equal(fresh.agents[k].core.flat,
                                  tr.agents[k].core.flat)
            assert np.array_equal(fresh.agents[k].adam.m, tr.agents[k].adam.m)
            assert np.array_equal(fresh.agents[k].adam.v, tr.agents[k].adam.v)
            assert fresh.agents[k].adam.step == tr.agents[k].adam.step

    def test_population_size_mismatch_rejected(self, tmp_path):
        tr = small_trainer(["joint_attention"], seed=17)
        path = str(tmp_path / "ck")
        save_checkpoint(path, tr.agents, 0, 0)
        other = small_trainer(["joint_attention", "joint_attention"], seed=17)
        with pytest.raises(ValueError):
            load_checkpoint(path, other.agents)

    def test_encoding_version_guard(self, tmp_path):
        tr = small_trainer(["joint_attention"], seed=18)
        path = str(tmp_path / "ck")
        save_checkpoint(path, tr.agents, 0, 0)
        meta_path = os.path.join(path, "checkpoint.json")
        with open(meta_path) as f:
            meta = json.load(f)
        meta["encoding_version"] = "enc-0"
        with open(meta_path, "w") as f:
            json.dump(meta, f)
        with pytest.raises(ValueError):
            load_checkpoint(path, tr.agents)

    def test_checkpoint_at_init_keeps_its_bytes(self, tmp_path):
        # the blob format this checkpoint was once written in held each
        # parameter, and each m/<name> and v/<name> moment, in sorted-name
        # order; its pinned digests prove the saved values did not move
        import hashlib
        tr = small_trainer(["joint_attention", "independent_ppo"], seed=16)
        save_checkpoint(str(tmp_path), tr.agents, 0, 0)
        meta = json.loads((tmp_path / "checkpoint.json").read_text())

        def digest(raw):
            return hashlib.sha256(raw).hexdigest()[:16]

        def cut(vec, layout, prefix=""):
            sizes = [int(np.prod(shape)) for _, shape in layout]
            return {prefix + name: piece for (name, _), piece in
                    zip(layout, np.split(vec, np.cumsum(sizes)[:-1]))}

        def payload(named):
            return b"".join(named[n].tobytes() for n in sorted(named))

        blobs = {}
        for k, entry in enumerate(meta["agents"]):
            layout = entry["layout"]
            m, v = np.load(tmp_path / f"agent{k}_adam.npy")
            blobs[f"agent{k}.blob"] = digest(payload(
                cut(np.load(tmp_path / f"agent{k}.npy"), layout)))
            blobs[f"agent{k}_adam.blob"] = digest(payload(
                {**cut(m, layout, "m/"), **cut(v, layout, "v/")}))
        assert blobs == {
            "agent0.blob": "659a01ad023f6fa2",
            "agent0_adam.blob": "9dd25206025ccbe1",
            "agent1.blob": "a1c9ce7c88174920",
            "agent1_adam.blob": "f9c579a0662ef825",
        }
        files = {name: digest((tmp_path / name).read_bytes())
                 for name in sorted(os.listdir(tmp_path))}
        assert files == {
            "agent0.npy": "4a4402c77bec771e",
            "agent0_adam.npy": "a37efc89493f3dcd",
            "agent1.npy": "1ffca2315d0db42a",
            "agent1_adam.npy": "de28be3dc1ee86e7",
            "checkpoint.json": "f249cf4e7b32b55a",
        }

    def test_saved_checkpoint_is_byte_deterministic(self, tmp_path):
        tr = small_trainer(["joint_attention"], seed=19)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_checkpoint(str(p1), tr.agents, 5, 1)
        save_checkpoint(str(p2), tr.agents, 5, 1)
        names = sorted(os.listdir(p1))
        assert names == sorted(os.listdir(p2))
        assert "agent0_adam.npy" in names
        for name in names:
            assert (p1 / name).read_bytes() == (p2 / name).read_bytes(), name

    def test_layout_mismatch_writes_no_agent(self, tmp_path):
        # agent 0's layout matches, agent 1's does not: neither is written
        src = small_trainer(["joint_attention", "independent_ppo"], seed=16)
        rng = np.random.default_rng(20)
        for agent in src.agents:
            agent.adam.m[:] = rng.normal(size=agent.adam.m.shape)
            agent.adam.step = 3
        path = str(tmp_path / "ck")
        save_checkpoint(path, src.agents, 0, 0)
        target = small_trainer(["joint_attention", "joint_attention"],
                               seed=17)
        for agent in target.agents:
            agent.adam.m[:] = rng.normal(size=agent.adam.m.shape)
        before = [(a.core.flat.copy(), a.adam.m.copy()) for a in target.agents]
        with pytest.raises(ValueError, match=r"agent 1: layout entry 2 is "
                           r"\['embed/w', \[6, 5\]\], this agent's is "
                           r"\['keys/w'"):
            load_checkpoint(path, target.agents)
        for agent, (flat, m) in zip(target.agents, before):
            assert np.array_equal(agent.core.flat, flat)
            assert np.array_equal(agent.adam.m, m)
            assert agent.adam.step == 0

    @pytest.mark.parametrize("damage", ["truncated", "empty", "float32",
                                        "no_layout"])
    def test_damaged_checkpoint_rejected(self, tmp_path, damage):
        tr = small_trainer(["joint_attention"], seed=18)
        save_checkpoint(str(tmp_path), tr.agents, 0, 0)
        vec = tmp_path / "agent0.npy"
        meta_path = tmp_path / "checkpoint.json"
        if damage == "truncated":
            vec.write_bytes(vec.read_bytes()[:-8])
        elif damage == "empty":
            vec.write_bytes(b"")
        elif damage == "float32":
            np.save(vec, tr.agents[0].core.flat.astype(np.float32))
        else:
            meta = json.loads(meta_path.read_text())
            del meta["agents"][0]["layout"]
            meta_path.write_text(json.dumps(meta))
        match = "older build" if damage == "no_layout" else "agent0.npy"
        fresh = small_trainer(["joint_attention"], seed=19)
        before = fresh.agents[0].core.flat.copy()
        with pytest.raises(ValueError, match=match):
            load_checkpoint(str(tmp_path), fresh.agents)
        assert np.array_equal(fresh.agents[0].core.flat, before)


# Batched and batch-1 network steps round differently (by ~1e-16), and a
# divergence between near-identical maps is small next to its terms, so
# divergences are compared within 1e-12 relative or this absolute floor:
# the float64 resolution of ln 2, the divergence's upper bound.
JSD_FLOOR = np.finfo(np.float64).eps * np.log(2.0)


def sequential_episodes(agents, kind, variant, config, episodes, seed):
    """The reference for lockstep evaluation: the episodes one after another,
    each at batch 1, with the divergence as the scalar double loop."""
    out = []
    for ep in range(episodes):
        ep_seed = int(np.random.SeedSequence([seed, ep]).generate_state(1)[0])
        state = reset(kind, variant, seed=ep_seed, config=config)
        rec = [a.core.initial_state(1) for a in agents]
        actions, divergences = [], []
        ret = np.zeros(config.agent_count)
        while not state.done[0]:
            grid = observation_array(state.grids())
            joint = np.zeros(config.agent_count, dtype=np.int64)
            maps = {}
            for k, agent in enumerate(agents):
                pose = pose_vector(state.x[:, k], state.y[:, k],
                                   state.direction[:, k])
                logits, _, m, new_state = agent.core.agent_step(
                    grid, pose, rec[k])
                rec[k] = new_state.detach()
                joint[k] = act(logits, "greedy")[0][0]
                if m is not None:
                    maps[k] = m.mean_map[0]
            if len(maps) >= 2:
                total = sum(jsd(maps[i], maps[j])
                            for j in maps for i in maps if i != j)
                divergences.append(total / (len(maps) * (len(maps) - 1)))
            actions.append(joint)
            rewards, _ = step(state, joint[None])
            ret += rewards[0]
        out.append({"actions": np.array(actions), "return": ret,
                    "length": int(state.step_count[0]),
                    "divergences": divergences})
    return out


class TestEvaluate:
    @pytest.mark.parametrize("variants", [["joint_attention"] * 3,
                                          ["independent_ppo"] * 2])
    def test_lockstep_matches_sequential_batch_one_episodes(self, variants):
        # five landmarks on a 3x3 interior: some layouts end at once, so
        # rows leave the middle of the batch while the others play on
        tr = small_trainer(variants, seed=24, env_variant="multi_target",
                           env_overrides={"interior": 3, "episode_cap": 15})
        cfg, episodes, seed = tr.env_config, 6, 4
        ref = sequential_episodes(tr.agents, "meetup", "multi_target", cfg,
                                  episodes, seed)
        lengths_ref = [r["length"] for r in ref]
        assert min(lengths_ref[1:-1]) < cfg.episode_cap == max(lengths_ref)

        actions = [[] for _ in range(episodes)]
        returns = np.zeros((episodes, cfg.agent_count))
        lengths = np.zeros(episodes, dtype=np.int64)
        divergences = [[] for _ in range(episodes)]
        for st in lockstep_episodes(tr.agents, "meetup", "multi_target", cfg,
                                    episodes, seed):
            returns[st.live] += st.rewards
            lengths[st.live] += 1
            values = None
            if len(st.maps) >= 2:
                fields = np.stack([st.maps[k].mean_map.reshape(len(st.live), -1)
                                   for k in sorted(st.maps)])
                pairs = len(st.maps) * (len(st.maps) - 1)
                values = pairwise_divergence(fields, "jsd") / pairs
            for row, e in enumerate(st.live):
                actions[e].append(st.actions[row])
                if values is not None:
                    divergences[e].append(values[row])
        for e, r in enumerate(ref):
            assert np.array_equal(np.array(actions[e]), r["actions"]), e
            assert np.array_equal(returns[e], r["return"]), e
            assert lengths[e] == r["length"], e
            assert len(divergences[e]) == len(r["divergences"])
            if r["divergences"]:
                assert np.allclose(divergences[e], r["divergences"],
                                   rtol=1e-12, atol=JSD_FLOOR), e

        summary = evaluate(tr.agents, "meetup", "multi_target", cfg, episodes,
                           seed)
        flat = [v for r in ref for v in r["divergences"]]
        assert summary["mean_collective_reward"] == \
            float(np.mean([r["return"].sum() for r in ref]))
        assert summary["success_rate"] == \
            sum(r["length"] < cfg.episode_cap for r in ref) / episodes
        assert summary["mean_episode_length"] == \
            float(np.mean([r["length"] for r in ref]))
        if flat:
            assert summary["mean_pairwise_jsd"] == \
                pytest.approx(float(np.mean(flat)), rel=1e-12, abs=JSD_FLOOR)
        else:
            assert summary["mean_pairwise_jsd"] is None

    @pytest.mark.parametrize("metric", ["jsd", "kl", "clipped_jsd"])
    def test_divergence_scores_the_metric_field(self, metric):
        # the scalar oracles on the field each metric scores: head-mean
        # logits for clipped_jsd, head-mean maps otherwise
        tr = small_trainer(["joint_attention"] * 3, seed=26, metric=metric)
        cfg, episodes, seed = tr.env_config, 3, 6
        threshold = tr.incentive.clip_threshold
        score = {"jsd": jsd, "kl": kl_divergence,
                 "clipped_jsd": lambda p, q: clipped_jsd(p, q, threshold)}
        per_episode = [[] for _ in range(episodes)]
        for st in lockstep_episodes(tr.agents, "meetup", "default", cfg,
                                    episodes, seed):
            fields = [m.head_logits.mean(axis=1) if metric == "clipped_jsd"
                      else m.mean_map for m in st.maps.values()]
            K = len(fields)
            for row, e in enumerate(st.live):
                total = sum(score[metric](fields[i][row], fields[j][row])
                            for j in range(K) for i in range(K) if i != j)
                per_episode[e].append(total / (K * (K - 1)))
        want = float(np.mean([v for values in per_episode for v in values]))
        summary = evaluate(tr.agents, "meetup", "default", cfg, episodes,
                           seed, tr.incentive)
        assert summary["mean_pairwise_jsd"] == want

    @pytest.mark.parametrize("episodes", [0, -3])
    def test_episode_count_below_one_raises(self, episodes):
        tr = small_trainer(["joint_attention", "joint_attention"], seed=19)
        cfg = tr.env_config
        with pytest.raises(ValueError, match="at least 1"):
            evaluate(tr.agents, "meetup", "default", cfg, episodes, seed=1)
        with pytest.raises(ValueError, match="at least 1"):
            next(lockstep_episodes(tr.agents, "meetup", "default", cfg,
                                   episodes, seed=1))
        with pytest.raises(ValueError, match="at least 1"):
            generalization_eval(tr.agents, "meetup", ["default", "cluttered"],
                                cfg, episodes=episodes, seed=1)

    def test_greedy_evaluation_is_deterministic(self):
        tr = small_trainer(["joint_attention", "joint_attention"], seed=20)
        a = evaluate(tr.agents, "meetup", "default", tr.env_config, 3, seed=5)
        b = evaluate(tr.agents, "meetup", "default", tr.env_config, 3, seed=5)
        assert a == b

    def test_summary_fields(self):
        tr = small_trainer(["joint_attention", "joint_attention"], seed=21)
        s = evaluate(tr.agents, "meetup", "default", tr.env_config, 2, seed=1)
        assert set(s) == {"episodes", "mean_collective_reward",
                          "success_rate", "mean_episode_length",
                          "mean_pairwise_jsd"}
        assert s["mean_pairwise_jsd"] is not None

    def test_ippo_population_reports_no_divergence(self):
        tr = small_trainer(["independent_ppo", "independent_ppo"], seed=22)
        s = evaluate(tr.agents, "meetup", "default", tr.env_config, 2, seed=1)
        assert s["mean_pairwise_jsd"] is None

    def test_random_policy_success_matches_random_walk_oracle(self):
        # uniform policy: zeroed policy head -> flat logits -> uniform draws
        overrides = {"interior": 5, "episode_cap": 25}
        tr = small_trainer(["joint_attention", "joint_attention"], seed=23,
                           env_overrides=overrides,
                           env_variant="single_target")
        for agent in tr.agents:
            agent.core.params["policy/out_w"].data[...] = 0.0
            agent.core.params["policy/out_b"].data[...] = 0.0
        episodes = 120
        summary = evaluate(tr.agents, "meetup", "single_target",
                           tr.env_config, episodes, seed=77, mode="sample")

        # independent random-walk simulation on the same layouts
        cfg = tr.env_config
        rng = np.random.default_rng(0)
        hits = 0
        for ep in range(episodes):
            ep_seed = int(np.random.SeedSequence(
                [77, ep]).generate_state(1)[0])
            state = reset("meetup", "single_target", seed=ep_seed,
                          config=cfg)
            while not state.done[0]:
                step(state, rng.integers(0, 7, size=(1, cfg.agent_count)))
            if state.step_count[0] < cfg.episode_cap:
                hits += 1
        p = hits / episodes
        sigma = np.sqrt(max(p * (1 - p), 1e-6) / episodes)
        assert abs(summary["success_rate"] - p) <= 3 * sigma + 1e-9


class TestSocial:
    def _expert_params(self, seed=30):
        donor = AgentRunner(AgentSpec("joint_attention"), 8, 8, PPOConfig(),
                            seed)
        return donor.core.flat.copy()

    def test_population_layout(self):
        params = self._expert_params()
        tr = social_learning_run(
            expert_params=params, seed=31, ppo=PPOConfig(
                segment_length=4, n_envs=2, chunk_length=4, batch_size=8,
                epochs=1),
            env_overrides={"interior": 6, "episode_cap": 6,
                           "tasklist_subtasks": 3})
        assert [a.variant for a in tr.agents] == \
            ["joint_attention", "joint_attention", "frozen_expert"]
        assert tr.env_config.non_learning == (2,)
        assert tr.agents[2].action_mode == "greedy"
        assert tr.agents[2].adam is None

    @pytest.mark.parametrize("shape", ["other_layout", "scalar", "2-D"])
    def test_expert_vector_must_be_the_core_flat(self, shape):
        vec = self._expert_params()
        bad = {"other_layout": AgentRunner(AgentSpec("independent_ppo"), 8, 8,
                                           PPOConfig(), 30).core.flat,
               "scalar": np.float64(1.0),
               "2-D": vec.reshape(1, -1)}[shape]
        with pytest.raises(ValueError, match="frozen_expert params"):
            social_learning_run(expert_params=bad, seed=31,
                                env_overrides={"interior": 6})

    def test_alone_arm_has_no_expert(self):
        tr = social_learning_run(
            expert_params=None, seed=31, ppo=PPOConfig(
                segment_length=4, n_envs=2, chunk_length=4, batch_size=8,
                epochs=1),
            env_overrides={"interior": 6, "episode_cap": 6,
                           "tasklist_subtasks": 3})
        assert [a.variant for a in tr.agents] == \
            ["joint_attention", "joint_attention"]
        assert tr.env_config.non_learning == ()

    def test_expert_parameters_frozen_through_training(self):
        params = self._expert_params(seed=32)
        tr = social_learning_run(
            expert_params=params, seed=33, ppo=PPOConfig(
                segment_length=8, n_envs=2, chunk_length=4, batch_size=8,
                epochs=2),
            env_overrides={"interior": 6, "episode_cap": 8,
                           "tasklist_subtasks": 3})
        tr.run(max_env_steps=2 * 8 * 2, eval_interval=10 ** 9)
        assert np.array_equal(tr.agents[2].core.flat, params)

    def test_frozen_expert_gets_no_advantages(self):
        tr = social_learning_run(
            expert_params=self._expert_params(seed=34), seed=35,
            ppo=PPOConfig(segment_length=8, n_envs=2, chunk_length=4,
                          batch_size=8, epochs=1),
            env_overrides={"interior": 6, "episode_cap": 8,
                           "tasklist_subtasks": 3})
        buf = tr.collect_segment()
        novices_only = copy.deepcopy(buf)
        tr.update_from(buf)
        compute_advantages(novices_only, tr.agents[:2], tr.incentive, tr.ppo)
        # the expert is last; its rows keep the buffer's zeros
        assert not buf.advantages[2].any() and not buf.returns[2].any()
        assert np.array_equal(buf.advantages[:2], novices_only.advantages[:2])
        assert np.array_equal(buf.returns[:2], novices_only.returns[:2])

    def test_copying_expert_maps_raises_r_ja(self):
        params = self._expert_params(seed=34)
        tr = social_learning_run(
            expert_params=params, seed=35, ppo=PPOConfig(
                segment_length=8, n_envs=2, chunk_length=4, batch_size=8,
                epochs=1),
            env_overrides={"interior": 6, "episode_cap": 8,
                           "tasklist_subtasks": 3})
        buf = tr.collect_segment()
        baseline = recompute_r_ja(buf, tr.incentive)
        # fields rows follow map_agents: the expert's is last
        buf.fields[-1] = buf.fields[0]
        swapped = recompute_r_ja(buf, tr.incentive)
        assert np.all(swapped >= baseline - 1e-12)
        assert swapped.mean() > baseline.mean()

    def test_acting_draws_are_pinned(self):
        # two sampling novices and a greedy frozen expert: only the novices
        # draw in the collect (one uniform per env and step each), the
        # bootstrap draws nothing, and the sampled actions, episode ends and
        # resets keep the bytes they had before the acting step was shared;
        # a "sample" evaluation of the same agents keeps its actions too
        T, E = 8, 2
        tr = social_learning_run(
            expert_params=self._expert_params(seed=36), seed=37,
            ppo=PPOConfig(segment_length=T, n_envs=E, chunk_length=4,
                          batch_size=8, epochs=1),
            env_overrides={"interior": 4, "episode_cap": 5,
                           "tasklist_subtasks": 3})
        buf = tr.collect_segment()
        fresh = np.random.default_rng(training.agent_seed(37, 1_000_002))
        fresh.random(T * E * 2)
        assert tr.rng_act.bit_generator.state == fresh.bit_generator.state

        def digest(*arrays):
            h = hashlib.sha256()
            for a in arrays:
                h.update(np.ascontiguousarray(a).tobytes())
            return h.hexdigest()

        resets = episode_starts(buf)
        assert buf.done.any() and resets.any()
        assert digest(buf.actions, buf.done, resets) == \
            "b150d55c16745d5a8770766467f9ae4be55cb1d860a77dbd66eb129506af1af7"
        steps = [st.actions for st in lockstep_episodes(
            tr.agents, "tasklist", "default", tr.env_config, 3, seed=5,
            mode="sample")]
        assert digest(*steps) == \
            "01025752ab3e2b0707d435f96e891de2b8d6cb98894a860f8c756c7ac793edc7"


class TestGeneralization:
    def test_per_variant_table(self):
        tr = small_trainer(["joint_attention", "joint_attention"], seed=36)
        table = generalization_eval(tr.agents, "meetup",
                                    ["default", "single_target"],
                                    tr.env_config, episodes=2, seed=3)
        assert set(table) == {"default", "single_target"}
        for summary in table.values():
            assert "mean_collective_reward" in summary

    def test_unknown_variant_rejected(self):
        tr = small_trainer(["joint_attention", "joint_attention"], seed=37)
        with pytest.raises(ValueError):
            generalization_eval(tr.agents, "meetup", ["no_such_variant"],
                                tr.env_config, episodes=1, seed=0)

    @pytest.mark.parametrize("variants, seed", [(["joint_attention"] * 3, 24),
                                                (["independent_ppo"] * 2, 25)])
    def test_one_batch_matches_evaluate_per_variant(self, variants, seed,
                                                    monkeypatch):
        # a 3x3 interior and a short cap: some layouts end at once and others
        # play to the cap, so rows of every variant leave the batch mid-run
        overrides = {"interior": 3, "episode_cap": 10}
        tr = small_trainer(variants, seed=seed, env_overrides=overrides)
        names = ["default", "single_target", "multi_target"]
        episodes, ev_seed = 5, 4
        calls = []
        one_call = training.evaluate

        def counted(*args, **kwargs):
            calls.append(args)
            return one_call(*args, **kwargs)

        monkeypatch.setattr(training, "evaluate", counted)
        table = generalization_eval(tr.agents, "meetup", names, tr.env_config,
                                    episodes=episodes, seed=ev_seed)
        monkeypatch.undo()
        assert len(calls) == 1
        assert list(table) == names

        ref = {}
        for name in names:
            cfg = make_config("meetup", name, agent_count=len(variants),
                              **overrides)
            ref[name] = evaluate(tr.agents, "meetup", name, cfg, episodes,
                                 ev_seed)
        successes = [ref[n]["success_rate"] for n in names]
        assert max(successes) > 0.0 and min(successes) < 1.0
        assert len({ref[n]["mean_episode_length"] for n in names}) > 1
        for name in names:
            got, want = table[name], ref[name]
            assert got.keys() == want.keys()
            for key in want:
                if key != "mean_pairwise_jsd":
                    assert got[key] == want[key], (name, key)
            if want["mean_pairwise_jsd"] is None:
                assert got["mean_pairwise_jsd"] is None
            else:
                assert got["mean_pairwise_jsd"] == pytest.approx(
                    want["mean_pairwise_jsd"], rel=1e-12, abs=JSD_FLOOR), name

    def test_layouts_of_other_shapes_rejected(self):
        tr = small_trainer(["joint_attention", "joint_attention"], seed=38)
        base = tr.env_config
        names = ["default", "single_target"]
        wider = make_config("meetup", "single_target", agent_count=2,
                            interior=base.interior + 1,
                            episode_cap=base.episode_cap)
        crowded = make_config("meetup", "single_target", agent_count=3,
                              interior=base.interior,
                              episode_cap=base.episode_cap)
        for other in (wider, crowded):
            with pytest.raises(ValueError, match="cannot share a batch"):
                evaluate(tr.agents, "meetup", names, [base, other], 2, seed=0)
            with pytest.raises(ValueError, match="cannot share a batch"):
                next(lockstep_episodes(tr.agents, "meetup", names,
                                       [base, other], 2, seed=0))
