"""Decentralized PPO for populations of recurrent attention agents.

Each agent owns its parameters, optimizer, and value net; nothing is shared
except the scalar attention-matching bonus, which is computed once per step
from the maps every map-producing agent already emitted while acting. The
rollout store keeps the field of those maps that the metric scores
(``scored_field``), so the bonus never triggers another network pass
(``RolloutBuffer.no_rerun_forward_calls`` proves it).

Population variants:
  - ``joint_attention``: attention on, trains with the shaped bonus.
  - ``attention_only``: attention on, maps join the bonus pool for metrics,
    but the agent's own reward is the raw environment reward.
  - ``independent_ppo``: attention off, plain recurrent PPO.
  - ``frozen_expert``: attention on, greedy actions, never updated; its maps
    still count toward the bonus (the social-learning setting).

Rollouts and evaluation both step their environments as one
``gridworlds.EnvBatch``: ``EnvSet`` keeps one for the collect and resets
finished rows in place, one ``reset`` per episode. Both act through
``population_step``, every agent on the same frames. Evaluation plays its
episodes in lockstep (``lockstep_episodes``): one ``population_step`` over
the live episodes, then one ``step`` of the batch, whose rows leave it as
their episodes end. A generalization table is one such batch too, episodes
x variants rows, split into one summary per variant by ``evaluate``. The
bonus, its replay and the evaluation figure all take the pairwise
divergence from one kernel, ``ja_reward.pairwise_divergence``, over every
environment or episode at once.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .numerics import Tensor
from .attention_net import AgentCore, RecurrentState, act, pose_vector
from .gridworlds import ENCODING_VERSION, EnvBatch, make_config, reset, step
from .ja_reward import IncentiveConfig, beta_schedule, pairwise_divergence
# not called here: perfbench/tracing.py wraps these names on this module
from .ja_reward import joint_attention_reward, jsd, kl_divergence, clipped_jsd  # noqa: F401

# observation channels are small non-negative ids; scale each to ~[0, 1]
OBS_SCALE = np.array([11.0, 6.0, 3.0])

VARIANTS = ("joint_attention", "attention_only", "independent_ppo",
            "frozen_expert")


def observation_array(grid: np.ndarray) -> np.ndarray:
    """Float conv input from an integer observation grid."""
    return grid.astype(np.float64) / OBS_SCALE


@dataclass
class PPOConfig:
    learning_rate: float = 1e-4
    batch_size: int = 64
    epochs: int = 4
    clip_ratio: float = 0.2
    gamma: float = 0.99
    gae_lambda: float = 0.95
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    chunk_length: int = 16
    segment_length: int = 128
    n_envs: int = 8

    def __post_init__(self):
        for name in ("learning_rate", "batch_size", "epochs", "gamma",
                     "gae_lambda", "chunk_length", "segment_length",
                     "n_envs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("entropy_coef", "value_coef"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 < self.clip_ratio < 1.0:
            raise ValueError(f"clip_ratio must be in (0, 1), got {self.clip_ratio}")
        if self.segment_length % self.chunk_length != 0:
            raise ValueError("segment_length must be a multiple of chunk_length")
        if self.batch_size % self.chunk_length != 0:
            raise ValueError("batch_size must be a multiple of chunk_length")


@dataclass
class AgentSpec:
    variant: str = "joint_attention"
    params: np.ndarray | None = None  # a frozen expert's ``AgentCore.flat``

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "frozen_expert" and self.params is None:
            raise ValueError("frozen_expert needs params")
        if self.variant != "frozen_expert" and self.params is not None:
            raise ValueError(f"{self.variant} draws its own parameters; "
                             "only frozen_expert reads params")


@dataclass
class PopulationSpec:
    agents: list = field(default_factory=lambda: [AgentSpec(), AgentSpec()])
    incentive: IncentiveConfig = field(default_factory=IncentiveConfig)

    def __post_init__(self):
        self.agents = [a if isinstance(a, AgentSpec) else AgentSpec(a)
                       for a in self.agents]
        if not any(a.variant != "frozen_expert" for a in self.agents):
            raise ValueError("population needs at least one learner")


class AgentRunner:
    """One agent's core, optimizer, and role flags."""

    def __init__(self, spec: AgentSpec, height: int, width: int,
                 ppo: PPOConfig, seed: int):
        self.variant = spec.variant
        self.uses_attention = spec.variant != "independent_ppo"
        self.uses_bonus = spec.variant == "joint_attention"
        self.trainable = spec.variant != "frozen_expert"
        self.action_mode = "sample" if self.trainable else "greedy"
        self.core = AgentCore(height, width,
                              use_attention=self.uses_attention, seed=seed)
        if spec.variant == "frozen_expert":
            if np.shape(spec.params) != self.core.flat.shape:
                raise ValueError(f"frozen_expert params have shape "
                                 f"{np.shape(spec.params)}, expected the "
                                 f"core's flat vector {self.core.flat.shape}")
            self.core.flat[...] = spec.params
        self.adam = nm.AdamState(self.core.flat.size, lr=ppo.learning_rate) \
            if self.trainable else None


def agent_seed(base_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def build_population(pop: PopulationSpec, height: int, width: int,
                     ppo: PPOConfig, seed: int) -> list:
    return [AgentRunner(spec, height, width, ppo, agent_seed(seed, k))
            for k, spec in enumerate(pop.agents)]


# ---------------------------------------------------------------------------
# vectorized environments

class EnvSet:
    """A fixed set of environments stepped in lockstep, with auto-reset.

    The environments are the rows of one ``EnvBatch`` (``batch``), stepped
    together by one ``step`` call; an episode that ends is replaced by a
    fresh ``reset`` in its row. Episode seeds are drawn from a
    deterministic per-env stream so an identical (config, seed) pair
    replays the same layouts in the same order.
    """

    def __init__(self, kind: str, variant: str, config, n_envs: int,
                 seed: int):
        self.kind = kind
        self.variant = variant
        self.config = config
        self.n_envs = n_envs
        self.base_seed = seed
        self.n_agents = config.agent_count
        self._episode_index = [0] * n_envs
        self.completed_episodes = 0
        self.segment_episode_returns: list = []   # collective, per segment
        self._running_env_return = np.zeros((n_envs, self.n_agents))
        self.batch = EnvBatch.stack(self._fresh(e) for e in range(n_envs))

    def _next_seed(self, e: int) -> int:
        j = self._episode_index[e]
        self._episode_index[e] += 1
        return int(np.random.SeedSequence(
            [self.base_seed, e, j]).generate_state(1)[0])

    def _fresh(self, e: int) -> EnvBatch:
        """Env e's next episode, as ``reset`` lays it out."""
        return reset(self.kind, self.variant, seed=self._next_seed(e),
                     config=self.config)

    def batch_ids(self) -> np.ndarray:
        """Every env's observation grid as (n_envs, h, w, 3) uint8 ids, the
        form the rollout store keeps; an id outside 0..255 raises."""
        ids = self.batch.grids()
        if ids.min() < 0 or ids.max() > 255:
            raise ValueError(f"observation ids {ids.min()}..{ids.max()} do "
                             f"not fit in uint8")
        return ids.astype(np.uint8)

    def step(self, actions: np.ndarray):
        """actions (n_envs, n_agents) -> rewards (n_envs, n_agents), dones.

        Environments that finish are reset in place; the returned done flag
        marks the boundary so recurrent states and advantage traces cut.
        """
        rewards, dones = step(self.batch, actions)
        self._running_env_return += rewards
        for e in np.flatnonzero(dones).tolist():
            self.segment_episode_returns.append(
                float(self._running_env_return[e].sum()))
            self.completed_episodes += 1
            self.batch.put(e, self._fresh(e))
            self._running_env_return[e] = 0.0
        return rewards, dones


def batch_poses(batch: EnvBatch) -> np.ndarray:
    """Every agent's ``pose_vector`` on every row of ``batch``, (K, rows, 6)."""
    return pose_vector(batch.x.T, batch.y.T, batch.direction.T)


# ---------------------------------------------------------------------------
# rollout storage

class RolloutBuffer:
    """On-policy segment store for every agent plus the shared bonus lane.

    Every per-agent lane is one array with the agent on the leading axis:
    ``pose`` (K, T, E, 6); ``actions``, ``log_probs``, ``values``,
    ``r_env``, ``advantages`` and ``returns`` (K, T, E); ``bootstrap``
    (K, E). Each lane is stored in its smallest exact form. ``obs`` is one
    (T, E, h, w, 3) uint8 array of the cell ids of every env's grid, which
    every agent acts on (``observation_array`` of them is what each one
    acted on, and every agent's update replays from it). ``h0``/``c0`` hold
    each agent's recurrent state at each chunk start only,
    (K, T / chunk_length, E, cell): the replay starts each chunk there and
    rebuilds the rest. ``fields`` (M, T, E, h*w) holds the field
    ``scored_field`` picks for each of the M map-producing agents, rows in
    ``map_agents`` order; the bonus and its replay score it.
    """

    def __init__(self, K: int, T: int, E: int, h: int, w: int, cell: int,
                 map_agents, chunk_length: int):
        self.T, self.E = T, E
        self.chunk_length = chunk_length
        self.map_agents = tuple(map_agents)
        self.obs = np.zeros((T, E, h, w, 3), dtype=np.uint8)
        self.pose = np.zeros((K, T, E, 6))
        self.actions = np.zeros((K, T, E), dtype=np.int64)
        self.log_probs = np.zeros((K, T, E))
        self.values = np.zeros((K, T, E))
        self.r_env = np.zeros((K, T, E))
        self.advantages = np.zeros((K, T, E))
        self.returns = np.zeros((K, T, E))
        self.h0 = np.zeros((K, T // chunk_length, E, cell))
        self.c0 = np.zeros((K, T // chunk_length, E, cell))
        self.bootstrap = np.zeros((K, E))
        self.done = np.zeros((T, E), dtype=bool)
        self.fields = np.zeros((len(self.map_agents), T, E, h * w))
        # one producer still gets the lane (identically zero, the degenerate
        # single-agent case); no producers at all means no lane
        self.r_ja = np.zeros((T, E)) if self.map_agents else None
        self.base_step = 0
        self.no_rerun_forward_calls = 0


def scored_field(maps, incentive: IncentiveConfig) -> np.ndarray:
    """The (rows, h*w) field the divergence metric scores, one row per batch
    row of ``maps`` (``AttentionMaps``): the head-mean logits for
    ``clipped_jsd``, the head-mean map otherwise."""
    field = maps.head_logits.mean(axis=1) \
        if incentive.metric == "clipped_jsd" else maps.mean_map
    return field.reshape(field.shape[0], -1)


def recompute_r_ja(buffer: RolloutBuffer, incentive: IncentiveConfig) -> np.ndarray:
    """Bonus recomputed from the stored fields alone (the replay contract)."""
    if buffer.r_ja is None:
        raise ValueError("buffer has no bonus lane (no map producers)")
    fields = buffer.fields.reshape(len(buffer.map_agents),
                                   buffer.T * buffer.E, -1)
    return -pairwise_divergence(fields, incentive.metric,
                                incentive.clip_threshold).reshape(buffer.T,
                                                                  buffer.E)


def population_step(agents: list, ids: np.ndarray, poses: np.ndarray,
                    states: list, modes, rng: np.random.Generator | None = None):
    """Every agent acts on the same (B, h, w, 3) ids, scaled once, and its
    row of the (K, B, 6) ``batch_poses``: in index order, ``agent_step``
    from ``states[k]``, then ``act`` in ``modes[k]`` (only "sample" draws
    from ``rng``). Returns (K, B) actions, log_probs and values, each map
    producer's ``AttentionMaps`` by agent index, and the detached states."""
    grids = observation_array(ids)
    actions = np.zeros((len(agents), len(ids)), dtype=np.int64)
    log_probs, values = np.zeros(actions.shape), np.zeros(actions.shape)
    maps, new_states = {}, []
    for k, agent in enumerate(agents):
        logits, value, agent_maps, state = agent.core.agent_step(
            grids, poses[k], states[k])
        new_states.append(state.detach())
        actions[k], log_probs[k] = act(logits, modes[k], rng)
        values[k] = value.data
        if agent_maps is not None:
            maps[k] = agent_maps
    return actions, log_probs, values, maps, new_states


def collect_rollouts(envset: EnvSet, agents: list, incentive: IncentiveConfig,
                     ppo: PPOConfig, rec_states: list,
                     rng: np.random.Generator, base_step: int) -> RolloutBuffer:
    """Roll ``segment_length`` vector steps into a fresh ``RolloutBuffer``.

    Each step is one ``population_step`` in the agents' ``action_mode``s,
    and zeroes the state of each row whose episode it ends; one more pass,
    greedy so that it draws nothing, gives the bootstrap values.
    ``rec_states`` (one per agent) are advanced in place, and
    ``envset.segment_episode_returns`` restarts empty. The bonus is scored
    from the stored ``fields`` in a block that must add no forward pass.
    """
    T, E, chunk = ppo.segment_length, envset.n_envs, ppo.chunk_length
    h, w = envset.batch.cells.shape[1:3]
    map_agents = [k for k, a in enumerate(agents) if a.uses_attention]
    buf = RolloutBuffer(len(agents), T, E, h, w, agents[0].core.cell_size,
                        map_agents, chunk)
    buf.base_step = base_step
    modes = [a.action_mode for a in agents]
    envset.segment_episode_returns = []

    for t in range(T):
        ids, poses = envset.batch_ids(), batch_poses(envset.batch)
        buf.obs[t], buf.pose[:, t] = ids, poses
        if t % chunk == 0:
            buf.h0[:, t // chunk] = [st.h for st in rec_states]
            buf.c0[:, t // chunk] = [st.c for st in rec_states]
        (buf.actions[:, t], buf.log_probs[:, t], buf.values[:, t], maps,
         rec_states[:]) = population_step(agents, ids, poses, rec_states,
                                          modes, rng)
        for i, k in enumerate(map_agents):
            buf.fields[i, t] = scored_field(maps[k], incentive)

        if len(map_agents) >= 2:
            calls_before = sum(a.core.forward_calls for a in agents)
            buf.r_ja[t] = -pairwise_divergence(buf.fields[:, t],
                                               incentive.metric,
                                               incentive.clip_threshold)
            buf.no_rerun_forward_calls += \
                sum(a.core.forward_calls for a in agents) - calls_before

        rewards, dones = envset.step(buf.actions[:, t].T)
        buf.r_env[:, t] = rewards.T
        buf.done[t] = dones
        if dones.any():
            for st in rec_states:
                st.h[dones] = 0.0
                st.c[dones] = 0.0

    buf.bootstrap[:] = population_step(
        agents, envset.batch_ids(), batch_poses(envset.batch), rec_states,
        ["greedy"] * len(agents))[2]
    return buf


# ---------------------------------------------------------------------------
# advantages and the PPO step

def compute_advantages(buffer: RolloutBuffer, agents: list,
                       incentive: IncentiveConfig, ppo: PPOConfig) -> None:
    """GAE per trainable agent over the segment, normalized per agent; a
    frozen agent's ``advantages`` and ``returns`` rows stay zero.

    Rewards are the stored environment rewards plus, for bonus-using
    agents, beta(global step) times the shared bonus.
    """
    T, E = buffer.T, buffer.E
    betas = np.array([beta_schedule(buffer.base_step + t * E, incentive)
                      for t in range(T)])
    nonterm = 1.0 - buffer.done.astype(np.float64)
    for k, agent in enumerate(agents):
        if not agent.trainable:
            continue
        rewards = buffer.r_env[k].copy()
        if agent.uses_bonus and buffer.r_ja is not None:
            rewards += betas[:, None] * buffer.r_ja
        adv = np.zeros((T, E))
        carry = np.zeros(E)
        for t in reversed(range(T)):
            next_value = buffer.bootstrap[k] if t == T - 1 \
                else buffer.values[k][t + 1]
            delta = rewards[t] + ppo.gamma * nonterm[t] * next_value \
                - buffer.values[k][t]
            carry = delta + ppo.gamma * ppo.gae_lambda * nonterm[t] * carry
            adv[t] = carry
        buffer.returns[k] = adv + buffer.values[k]
        std = adv.std()
        if std > 1e-8:
            adv = (adv - adv.mean()) / std
        buffer.advantages[k] = adv


def ppo_update(agent: AgentRunner, buffer: RolloutBuffer, k: int,
               ppo: PPOConfig, rng: np.random.Generator) -> dict:
    """Clipped-surrogate PPO over chunked recurrent minibatches.

    Chunks are numbered env-major and start-minor; each epoch takes them in
    ``rng.permutation`` order and gathers each minibatch from agent k's
    lanes with one (chunk, B) pair of step and env index arrays. Chunks
    replay from the stored state snapshots, and cut the state after each
    step whose ``done`` is set, exactly as the rollout did. Each minibatch is
    one ``agent_step`` over its chunk*B time-major frames, scaled from the
    stored ids by ``observation_array`` as acting scaled them, and the
    losses are computed once over its stacked chunk*B samples. A non-finite
    loss aborts the update before any parameter step.
    """
    chunk = ppo.chunk_length
    if buffer.chunk_length != chunk:
        raise ValueError(f"buffer was filled with chunk length "
                         f"{buffer.chunk_length}, update uses {chunk}")
    starts = buffer.T // chunk
    per_batch = ppo.batch_size // chunk
    offsets = np.arange(chunk)[:, None]
    stats = {"policy_loss": [], "value_loss": [], "entropy": []}

    for _ in range(ppo.epochs):
        order = rng.permutation(buffer.E * starts)
        for lo in range(0, len(order), per_batch):
            es, first = np.divmod(order[lo:lo + per_batch], starts)
            ts = first * chunk + offsets        # (chunk, B) step indices
            n_samples = ts.size
            obs = observation_array(buffer.obs[ts, es])
            pose = buffer.pose[k, ts, es]
            acts = buffer.actions[k, ts, es]
            old_logp = buffer.log_probs[k, ts, es]
            adv = buffer.advantages[k, ts, es]
            rets = buffer.returns[k, ts, es]
            # row 0 (the step before; -1 wraps) is unread: h0/c0 start it
            resets = buffer.done[ts - 1, es]
            h0 = buffer.h0[k, first, es]
            c0 = buffer.c0[k, first, es]

            with nm.Tape() as tape:
                # [:2]: no name keeps the maps' arrays into the next minibatch
                logits, value = agent.core.agent_step(
                    obs.reshape((-1,) + obs.shape[2:]), pose.reshape(-1, 6),
                    RecurrentState(h0, c0), resets)[:2]
                logp_all = nm.log_softmax(logits)
                logp_a = nm.gather_last(logp_all, acts.reshape(-1))
                ratio = nm.exp(logp_a - Tensor(old_logp.reshape(-1)))
                clipped = nm.clip(ratio, 1.0 - ppo.clip_ratio,
                                  1.0 + ppo.clip_ratio)
                adv_t = Tensor(adv.reshape(-1))
                surr = nm.minimum(nm.mul(ratio, adv_t), nm.mul(clipped, adv_t))
                diff = value - Tensor(rets.reshape(-1))
                probs = nm.softmax(logits)
                policy_loss = nm.scale(nm.sum_all(surr), -1.0 / n_samples)
                value_loss = nm.scale(nm.sum_all(nm.mul(diff, diff)),
                                      1.0 / n_samples)
                neg_entropy = nm.scale(nm.sum_all(nm.mul(probs, logp_all)),
                                       1.0 / n_samples)
                loss = policy_loss + nm.scale(value_loss, ppo.value_coef) \
                    + nm.scale(neg_entropy, ppo.entropy_coef)
                if not np.isfinite(loss.data).all():
                    tape.clear()
                    return {"aborted": True,
                            "reason": f"non-finite loss {loss.item()!r}",
                            "policy_loss": None, "value_loss": None,
                            "entropy": None}
                nm.backward(loss)
            nm.adam_update(agent.core.flat, agent.core.grad, agent.adam)
            agent.core.grad.fill(0.0)
            stats["policy_loss"].append(policy_loss.item())
            stats["value_loss"].append(value_loss.item())
            stats["entropy"].append(-neg_entropy.item())
    return {"aborted": False,
            "policy_loss": float(np.mean(stats["policy_loss"])),
            "value_loss": float(np.mean(stats["value_loss"])),
            "entropy": float(np.mean(stats["entropy"]))}


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class EpisodeStep:
    """One lockstep step of the live episodes, in row order.

    ``live`` holds their row indices, ascending (``lockstep_episodes``
    numbers the rows). The observations before the step are ``grids``, the
    (live, h, w, 3) integer grids (``EnvBatch.grids``). ``actions`` are the
    (live, agents) joint actions taken; ``maps`` the ``AttentionMaps`` of
    each map-producing agent over the live rows; ``rewards`` the (live,
    agents) environment rewards.
    """
    live: np.ndarray
    grids: np.ndarray
    actions: np.ndarray
    maps: dict
    rewards: np.ndarray


def _layouts(variant, config, episodes: int) -> list:
    """The (variant, config) pairs of an evaluation batch, checked.

    ``variant`` and ``config`` are one variant name and its config, or
    equal-length lists of them. Their layouts must share the grid shape and
    the agent count, so that their rows stack into one batch.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    if isinstance(variant, str):
        layouts = [(variant, config)]
    else:
        layouts = list(zip(variant, config, strict=True))
    if not layouts:
        raise ValueError("no variant to evaluate")
    if len({v for v, _ in layouts}) < len(layouts):
        raise ValueError(f"a variant is listed twice: {list(variant)}")
    shapes = {(cfg.interior, cfg.agent_count) for _, cfg in layouts}
    if len(shapes) > 1:
        raise ValueError(f"layouts differ in (interior, agent count): "
                         f"{sorted(shapes)}; their rows cannot share a batch")
    return layouts


def lockstep_episodes(agents: list, kind: str, variant, config,
                      episodes: int, seed: int, mode: str = "greedy"):
    """Play ``episodes`` episodes of every layout as one batch; yield an
    ``EpisodeStep`` per step until every episode is done.

    ``variant`` and ``config`` name one layout, or are equal-length lists of
    layouts with one grid shape and agent count (``ValueError`` otherwise,
    or for ``episodes < 1``). Rows are layout-major: row i * episodes + ep
    is episode ep of layout i, and ``EpisodeStep.live`` holds these row
    indices. Episode ep of every layout is laid out from
    ``SeedSequence([seed, ep])``, as it would be played alone, and all of
    them are reset up front, one ``reset`` each, into one ``EnvBatch``.
    Each step is one ``population_step`` over the live rows, every agent in
    ``mode`` with its own recurrent state, then one ``step`` of the batch;
    episodes that end leave it. ``mode="sample"`` draws every action from one
    generator seeded from ``seed``, step-major: at each step, agent by
    agent, one draw per live row. With several layouts the draws therefore
    differ from separate runs.
    """
    layouts = _layouts(variant, config, episodes)
    rng = np.random.default_rng(agent_seed(seed, 4_000_000)) \
        if mode == "sample" else None
    ep_seeds = [agent_seed(seed, ep) for ep in range(episodes)]
    batch = EnvBatch.stack(reset(kind, layout_variant, seed=ep_seed,
                                 config=layout_config)
                           for layout_variant, layout_config in layouts
                           for ep_seed in ep_seeds)
    live = np.arange(len(batch))
    rec = [a.core.initial_state(len(batch)) for a in agents]
    while live.size:
        ids = batch.grids()
        actions, _, _, maps, rec = population_step(
            agents, ids, batch_poses(batch), rec, [mode] * len(agents), rng)
        rewards, done = step(batch, actions.T)
        yield EpisodeStep(live, ids, actions.T, maps, rewards)
        if done.any():
            going = ~done
            live = live[going]
            batch = batch.take(going)
            rec = [RecurrentState(r.h[going], r.c[going]) for r in rec]


def evaluate(agents: list, kind: str, variant, config, episodes: int,
             seed: int, incentive: IncentiveConfig | None = None,
             mode: str = "greedy"):
    """Decentralized evaluation rollouts; no learning, no bonus in the reward.

    The default mode is greedy execution. The episodes run in lockstep as
    one batch (``lockstep_episodes``); given lists of variants and configs,
    the batch holds ``episodes`` rows of each variant, layout-major, and the
    result is ``{variant: summary}``, each summary built from its own rows
    only. In greedy mode each equals what ``evaluate`` of that variant alone
    gives, up to BLAS rounding at the wider batch; in sample mode the draws
    are spread over every row, so they differ. A summary reports mean
    collective environment reward, success rate (episodes that terminate
    before the step cap), mean episode length, and the mean pairwise
    divergence of the map-producing agents: per step the mean over ordered
    pairs, then the mean over every step of every episode, taken in episode
    order.
    """
    incentive = incentive or IncentiveConfig()
    layouts = _layouts(variant, config, episodes)
    rows = len(layouts) * episodes
    returns = np.zeros((rows, layouts[0][1].agent_count))
    lengths = np.zeros(rows, dtype=np.int64)
    div_values = [[] for _ in range(rows)]
    for st in lockstep_episodes(agents, kind, variant, config, episodes,
                                seed, mode):
        returns[st.live] += st.rewards
        lengths[st.live] += 1
        if len(st.maps) >= 2:
            fields = np.stack([scored_field(m, incentive)
                               for m in st.maps.values()])
            pairs = len(st.maps) * (len(st.maps) - 1)
            values = pairwise_divergence(fields, incentive.metric,
                                         incentive.clip_threshold) / pairs
            for e, v in zip(st.live, values):
                div_values[e].append(v)
    summaries = {}
    for i, (layout_variant, layout_config) in enumerate(layouts):
        own = slice(i * episodes, (i + 1) * episodes)
        divs = [v for per_episode in div_values[own] for v in per_episode]
        summaries[layout_variant] = {
            "episodes": episodes,
            "mean_collective_reward": float(np.mean(returns[own].sum(axis=1))),
            "success_rate": int((lengths[own] < layout_config.episode_cap)
                                .sum()) / episodes,
            "mean_episode_length": float(np.mean(lengths[own])),
            "mean_pairwise_jsd": float(np.mean(divs)) if divs else None,
        }
    return summaries[variant] if isinstance(variant, str) else summaries


def generalization_eval(agents: list, kind: str, variants: list,
                        base_config, episodes: int = 30, seed: int = 0) -> dict:
    """Zero-shot greedy evaluation across environment variants.

    Every variant takes ``base_config``'s interior, agent count and step
    cap. One ``evaluate`` call plays episodes x variants rows as one
    lockstep batch, layout-major (variant by variant, episodes in order
    within each), and returns ``{variant: summary}``. Episode ep of every
    variant is laid out from ``SeedSequence([seed, ep])``, so each summary
    is what ``evaluate`` of that variant alone gives, up to BLAS rounding
    at the wider batch. A variant listed twice is evaluated once; an
    unknown one raises ``ValueError``.
    """
    variants = list(dict.fromkeys(variants))
    configs = [make_config(kind, variant, interior=base_config.interior,
                           agent_count=base_config.agent_count,
                           episode_cap=base_config.episode_cap)
               for variant in variants]
    return evaluate(agents, kind, variants, configs, episodes, seed)


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path: str, agents: list, global_step: int,
                    episodes: int, config_hash: str = "") -> None:
    """Write each agent's ``core.flat`` as ``agent{k}.npy`` and, for an agent
    with an optimizer, its Adam moments as one (2, n) ``agent{k}_adam.npy``
    (rows m and v, laid out as ``flat``). ``checkpoint.json`` records each
    agent's variant, Adam step and layout, the (name, shape) of every
    parameter in ``AgentCore.params`` order."""
    os.makedirs(path, exist_ok=True)
    meta = {
        "encoding_version": ENCODING_VERSION,
        "global_step": global_step,
        "episodes": episodes,
        "config_hash": config_hash,
        "agents": [],
    }
    for k, agent in enumerate(agents):
        np.save(os.path.join(path, f"agent{k}.npy"), agent.core.flat)
        entry = {"variant": agent.variant, "adam_step": None,
                 "layout": _param_layout(agent.core)}
        if agent.adam is not None:
            np.save(os.path.join(path, f"agent{k}_adam.npy"),
                    np.stack([agent.adam.m, agent.adam.v]))
            entry["adam_step"] = agent.adam.step
        meta["agents"].append(entry)
    with open(os.path.join(path, "checkpoint.json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)


def _param_layout(core: AgentCore) -> list:
    """[[name, shape], ...] of ``core.params``, as a checkpoint records it."""
    return [[name, list(t.shape)] for name, t in core.params.items()]


def checkpoint_meta(path: str) -> dict:
    """``checkpoint.json`` of ``path``, checked: a file that is not a JSON
    object, one of another encoding version, one whose ``agents`` is not a
    list of objects with a list for a layout, or whose counters or Adam
    steps are not integers, raises ``ValueError``."""
    with open(os.path.join(path, "checkpoint.json")) as f:
        meta = json.load(f)
    if not isinstance(meta, dict):
        raise ValueError("checkpoint.json does not hold an object")
    if meta.get("encoding_version") != ENCODING_VERSION:
        raise ValueError(
            f"checkpoint encoding version {meta.get('encoding_version')!r} "
            f"does not match this build ({ENCODING_VERSION!r})")
    entries = meta.get("agents")
    if not isinstance(entries, list) or \
            not all(isinstance(entry, dict) for entry in entries):
        raise ValueError("checkpoint.json holds no list of agent entries")
    if not all(isinstance(entry.get("layout"), list) for entry in entries):
        raise ValueError(f"checkpoint {path} records no parameter layout: an "
                         "older build wrote it, in a format this build does "
                         "not read")
    # type(...) is int: a JSON true or false is a bool, not a count
    for key in ("global_step", "episodes"):
        if type(meta.get(key)) is not int:
            raise ValueError(f"checkpoint {key} {meta.get(key)!r} is not an "
                             "integer")
    for k, entry in enumerate(entries):
        if type(entry.get("adam_step", "")) not in (int, type(None)):
            raise ValueError(f"checkpoint agent {k}: adam_step "
                             f"{entry.get('adam_step')!r} is neither null "
                             "nor an integer")
    return meta


def _load_vector(path: str, name: str, shape: tuple) -> np.ndarray:
    """The float64 array of ``shape`` that ``name`` holds, read without
    pickle; anything else raises ``ValueError``."""
    try:
        arr = np.load(os.path.join(path, name), allow_pickle=False)
    except (EOFError, ValueError) as e:     # empty, cut short or not .npy
        raise ValueError(f"checkpoint file {name}: {e}") from e
    if arr.dtype != np.float64 or arr.shape != shape:
        raise ValueError(f"checkpoint file {name} holds {arr.dtype} "
                         f"{arr.shape}, expected float64 {shape}")
    return arr


def load_checkpoint(path: str, agents: list) -> dict:
    """Restore each agent's parameters and, for an agent with an optimizer
    whose entry has an Adam step, its moments and step, in place; returns
    the meta. Every agent's layout and files are checked before any agent
    is written, so a load that raises leaves them all as they were."""
    meta = checkpoint_meta(path)
    if len(meta["agents"]) != len(agents):
        raise ValueError("checkpoint population size does not match")
    loaded = []
    for k, (agent, entry) in enumerate(zip(agents, meta["agents"])):
        own = _param_layout(agent.core)
        for i, (saved, mine) in enumerate(
                itertools.zip_longest(entry["layout"], own)):
            if saved != mine:
                raise ValueError(f"checkpoint agent {k}: layout entry {i} is "
                                 f"{saved}, this agent's is {mine}")
        n = agent.core.flat.size
        flat = _load_vector(path, f"agent{k}.npy", (n,))
        moments = None
        if agent.adam is not None and entry["adam_step"] is not None:
            moments = _load_vector(path, f"agent{k}_adam.npy", (2, n))
        loaded.append((flat, moments))
    for agent, entry, (flat, moments) in zip(agents, meta["agents"], loaded):
        agent.core.flat[...] = flat
        if moments is not None:
            agent.adam.m[...], agent.adam.v[...] = moments
            agent.adam.step = entry["adam_step"]
    return meta


# ---------------------------------------------------------------------------
# the training loop

class Trainer:
    """Owns the environment set, the population, and the update loop.

    Single-threaded and fully deterministic for a fixed (config, seed):
    every random draw comes from generators derived from the run seed.
    """

    def __init__(self, kind: str, env_variant: str, population: PopulationSpec,
                 ppo: PPOConfig | None = None, seed: int = 0,
                 env_overrides: dict | None = None):
        self.kind = kind
        self.env_variant = env_variant
        self.population = population
        self.ppo = ppo or PPOConfig()
        self.incentive = population.incentive
        self.seed = seed
        overrides = dict(env_overrides or {})
        overrides["agent_count"] = len(population.agents)
        self.env_config = make_config(kind, env_variant, **overrides)
        self.envset = EnvSet(kind, env_variant, self.env_config,
                             self.ppo.n_envs, agent_seed(seed, 1_000_001))
        size = self.env_config.interior + 2
        self.agents = build_population(population, size, size, self.ppo, seed)
        self.rec_states = [a.core.initial_state(self.ppo.n_envs)
                           for a in self.agents]
        self.rng_act = np.random.default_rng(agent_seed(seed, 1_000_002))
        self.rng_update = [np.random.default_rng(agent_seed(seed, 2_000_000 + k))
                           for k in range(len(self.agents))]
        self.global_step = 0

    @property
    def episodes(self) -> int:
        return self.envset.completed_episodes

    def collect_segment(self) -> RolloutBuffer:
        return collect_rollouts(self.envset, self.agents, self.incentive,
                                self.ppo, self.rec_states, self.rng_act,
                                self.global_step)

    def update_from(self, buf: RolloutBuffer) -> dict:
        compute_advantages(buf, self.agents, self.incentive, self.ppo)
        merged = {"policy_loss": [], "value_loss": [], "entropy": [],
                  "aborted": 0}
        for k, agent in enumerate(self.agents):
            if not agent.trainable:
                continue
            s = ppo_update(agent, buf, k, self.ppo, self.rng_update[k])
            if s["aborted"]:
                merged["aborted"] += 1
                continue
            for key in ("policy_loss", "value_loss", "entropy"):
                merged[key].append(s[key])
        return {key: (float(np.mean(vals)) if vals else None)
                for key, vals in merged.items() if key != "aborted"} | \
            {"aborted_updates": merged["aborted"]}

    def run(self, max_env_steps: int | None = None,
            total_episodes: int | None = None, *, eval_interval: int,
            eval_episodes: int = 10, on_record=None, on_checkpoint=None,
            stop_when=None) -> dict:
        """Alternate collect/update until a budget is reached.

        ``global_step`` is the only clock: a segment that crosses a multiple
        of ``eval_interval`` env steps evaluates once, with seed index
        ``global_step // eval_interval``, then calls ``on_checkpoint``; the
        final evaluation takes that index plus one. ``on_record`` receives
        one metrics dict per update and per evaluation;
        ``stop_when(eval_summary)`` may end the run after an evaluation.
        """
        if max_env_steps is None and total_episodes is None:
            raise ValueError("need max_env_steps or total_episodes")
        steps_per_segment = self.ppo.segment_length * self.ppo.n_envs

        def evaluate_at(event: str, index: int) -> dict:
            summary = evaluate(self.agents, self.kind, self.env_variant,
                               self.env_config, eval_episodes,
                               agent_seed(self.seed, 3_000_000 + index),
                               self.incentive)
            if on_record:
                on_record(metrics_record(
                    event, self.global_step, self.episodes,
                    beta_schedule(self.global_step, self.incentive),
                    summary["mean_collective_reward"],
                    summary["mean_pairwise_jsd"],
                    success_rate=summary["success_rate"]))
            return summary

        while True:
            if max_env_steps is not None and self.global_step >= max_env_steps:
                break
            if total_episodes is not None and self.episodes >= total_episodes:
                break
            buf = self.collect_segment()
            stats = self.update_from(buf)
            self.global_step += steps_per_segment
            seg_returns = self.envset.segment_episode_returns
            beta = beta_schedule(self.global_step, self.incentive)
            n_prod = len(buf.map_agents)
            mean_jsd = None
            if buf.r_ja is not None and n_prod >= 2:
                mean_jsd = float(-buf.r_ja.mean() / (n_prod * (n_prod - 1)))
            record = metrics_record(
                "update", self.global_step, self.episodes, beta,
                float(np.mean(seg_returns)) if seg_returns else None,
                mean_jsd, stats)
            if stats["aborted_updates"]:
                record["aborted_updates"] = stats["aborted_updates"]
            if on_record:
                on_record(record)
            if self.global_step % eval_interval < steps_per_segment:
                summary = evaluate_at("eval",
                                      self.global_step // eval_interval)
                if on_checkpoint:
                    on_checkpoint(self)
                if stop_when is not None and stop_when(summary):
                    break
        final = evaluate_at("final_eval",
                            self.global_step // eval_interval + 1)
        return {"global_step": self.global_step, "episodes": self.episodes,
                "final_eval": final}


def metrics_record(event: str, global_step: int, episodes: int, beta: float,
                   mean_collective_reward: float | None = None,
                   mean_pairwise_jsd: float | None = None,
                   losses: dict | None = None, **extra) -> dict:
    """One ``metrics.jsonl`` record: the fields every event carries, in one
    fixed order, then ``extra`` in the order given. ``losses`` supplies
    policy_loss, value_loss and entropy (None where absent)."""
    losses = losses or {}
    return {"event": event, "global_step": global_step, "episodes": episodes,
            "mean_collective_reward": mean_collective_reward,
            "mean_pairwise_jsd": mean_pairwise_jsd, "beta": beta,
            **{k: losses.get(k) for k in ("policy_loss", "value_loss",
                                          "entropy")},
            **extra}


def social_learning_run(kind: str = "tasklist", n_novices: int = 2,
                        expert_params: np.ndarray | None = None,
                        incentive: IncentiveConfig | None = None,
                        ppo: PPOConfig | None = None, seed: int = 0,
                        env_overrides: dict | None = None) -> Trainer:
    """Trainer for novices sharing the grid with one frozen expert, whose
    parameters ``expert_params`` holds as an ``AgentCore.flat`` vector.

    With ``expert_params=None`` the comparison arm is built instead: the
    same novices learning alone on matched seeds. The expert (when present)
    is appended after the novices and flagged non-learning in the
    environment, so episode termination tracks the novices only.
    """
    specs = [AgentSpec("joint_attention") for _ in range(n_novices)]
    overrides = dict(env_overrides or {})
    if expert_params is not None:
        specs.append(AgentSpec("frozen_expert", params=expert_params))
        overrides["non_learning"] = (n_novices,)
    pop = PopulationSpec(specs, incentive or IncentiveConfig())
    return Trainer(kind, "default", pop, ppo, seed=seed,
                   env_overrides=overrides)
