"""A batch of episodes steps each row as that episode steps alone.

The reference is ``step`` on that episode alone, as a one-row batch from
its own ``reset`` or hand-laid course; ``EnvSet`` is checked against
per-env replays of its seed stream, auto-resets included.
"""

import numpy as np
import pytest

from hand_laid import lay_out
from jointattn import gridworlds
from jointattn.attention_net import pose_vector
from jointattn.gridworlds import (
    DROP,
    FORWARD,
    NOOP,
    OBJECT_IDS,
    PICKUP,
    TOGGLE,
    TURN_LEFT,
    TURN_RIGHT,
    VARIANTS,
    EnvBatch,
    make_config,
    reset,
    step,
)
from jointattn.training import EnvSet, batch_poses

OBJ = OBJECT_IDS
KIND_VARIANTS = [(kind, variant) for variant, kinds in VARIANTS.items()
                 for kind in kinds]


def assert_row_is(batch, row, alone):
    """Row ``row`` of ``batch`` holds what one-row batch ``alone`` holds
    after the same steps played alone, generator state included, and
    paints the same grid."""
    for name in EnvBatch.ARRAYS:
        assert np.array_equal(getattr(batch, name)[row],
                              getattr(alone, name)[0]), name
    for name, mask in (("landmarks", "landmark_mask"),
                       ("stags", "stag_mask")):
        assert np.array_equal(
            getattr(batch, name)[row, getattr(batch, mask)[row]],
            getattr(alone, name)[0, getattr(alone, mask)[0]]), name
    assert batch.rng[row].bit_generator.state == \
        alone.rng[0].bit_generator.state
    assert np.array_equal(batch.grids()[row], alone.grids()[0])


def step_alone(alone, actions):
    """``step`` of one-row batch ``alone``; returns (rewards (K,), done)."""
    rewards, done = step(alone, np.asarray(actions)[None])
    return rewards[0], done[0]


def play_both_ways(layouts, seeds, arng):
    """Random play of every (layout, seed) episode to its end, as one batch
    and one by one; returns each episode's length and its agents' returns."""
    kind = layouts[0][0]
    fresh = lambda: [reset(kind, variant, seed=s, config=cfg)
                     for _, variant, cfg in layouts for s in seeds]
    alone = fresh()
    batch = EnvBatch.stack(fresh())
    live = np.arange(len(batch))
    lengths = np.zeros(len(batch), dtype=np.int64)
    returns = np.zeros(batch.x.shape)
    while live.size:
        actions = arng.integers(0, 7, size=(live.size, batch.x.shape[1]))
        rewards, done = step(batch, actions)
        for row, e in enumerate(live):
            want_rewards, want_done = step_alone(alone[e], actions[row])
            assert np.array_equal(rewards[row], want_rewards)
            assert done[row] == want_done
            assert_row_is(batch, row, alone[e])
        lengths[live] += 1
        returns[live] += rewards
        live, batch = live[~done], batch.take(~done)
    return lengths, returns


@pytest.mark.parametrize("kind,variant", KIND_VARIANTS)
def test_batch_equals_its_rows_played_alone(kind, variant):
    # per-row step caps, so that rows leave the batch at different steps
    layouts = [(kind, variant, make_config(kind, variant, interior=5,
                                           episode_cap=cap))
               for cap in (6, 11, 17)]
    lengths, _ = play_both_ways(layouts, seeds=(3, 4),
                             arng=np.random.default_rng(7))
    assert len(set(lengths.tolist())) > 1


def test_mixed_meetup_batch_equals_its_rows_played_alone():
    # 1, 3 and 5 landmarks (and extra walls) in one batch; two agents on a
    # 3x3 interior meet at different steps, or run to the cap
    layouts = [("meetup", variant, make_config("meetup", variant, interior=3,
                                               agent_count=2, episode_cap=20))
               for variant in ("single_target", "default", "multi_target",
                               "cluttered")]
    lengths, _ = play_both_ways(layouts, seeds=range(5),
                             arng=np.random.default_rng(8))
    assert len(set(lengths[lengths < 20].tolist())) > 2
    assert max(lengths) == 20


def test_mixed_staghunt_batch_equals_its_rows_played_alone():
    # 0, 2 and 3 stags in one batch: the stag slots are padded to three,
    # and captures mask slots off row by row
    layouts = [("staghunt", variant, make_config(
        "staghunt", variant, interior=3, episode_cap=60, **over))
        for variant, over in (("no_stag", {}), ("default", {}),
                              ("all_stags", {"stags": 3}))]
    _, returns = play_both_ways(layouts, seeds=range(3),
                                arng=np.random.default_rng(13))
    # four berries cannot pay both agents 5: these rows captured a stag
    assert (returns.min(axis=1) >= 5).sum() >= 2


def meetup_course(landmarks, agents):
    return lay_out("meetup", 3, [(x, y, 2) for x, y in agents],
                   [(x, y, "landmark", "red") for x, y in landmarks],
                   landmarks=len(landmarks))


def test_padded_landmark_slots_never_count():
    # row 0 has one landmark, padded to three slots; its agents are nearer
    # the padding's coordinates than to the landmark
    courses = [(((3, 3),), ((1, 1), (1, 2))),
               (((2, 1), (3, 2), (1, 3)), ((1, 1), (3, 3)))]
    batch = EnvBatch.stack(meetup_course(*c) for c in courses)
    alone = [meetup_course(*c) for c in courses]
    assert batch.landmark_mask.tolist() == [[True, False, False],
                                            [True, True, True]]
    for actions in ([[FORWARD, NOOP], [NOOP, NOOP]],
                    [[FORWARD, FORWARD], [TURN_LEFT, FORWARD]]):
        rewards, done = step(batch, np.array(actions))
        for e, state in enumerate(alone):
            want_rewards, want_done = step_alone(state, actions[e])
            assert np.array_equal(rewards[e], want_rewards)
            assert done[e] == want_done
            assert_row_is(batch, e, state)
    assert rewards[0].tolist() == [1.0, 1.0]


def relay_course(delay):
    """Two learners share one key through a locked door; agent 0 finishes
    (leaving the grid and setting the key down) after ``delay`` + 6 steps."""
    state = lay_out("tasklist", 6, [(1, 2, 1), (1, 4, 1)],
                    [(4, y, "wall") for y in range(1, 7)]
                    + [(4, 2, "door", "yellow", "door-locked"),
                       (2, 2, "key", "yellow"), (5, 2, "goal", "green")],
                    tasklist_subtasks=3, episode_cap=40)
    script = [NOOP] * delay + [PICKUP, FORWARD, FORWARD, TOGGLE, FORWARD,
                               FORWARD]
    return state, script


def test_tasklist_despawns_in_a_batch_equal_their_rows_alone():
    courses = [relay_course(delay) for delay in (0, 2, 5)]
    batch = EnvBatch.stack(state for state, _ in courses)
    alone = [relay_course(delay)[0] for delay in (0, 2, 5)]
    # agent 1 turns and interacts in place, off agent 0's path
    arng = np.random.default_rng(9)
    finish_steps = {}
    for t in range(12):
        actions = np.stack([
            [script[t] if t < len(script) else NOOP,
             arng.choice([TURN_LEFT, TURN_RIGHT, PICKUP, DROP, TOGGLE, NOOP])]
            for _, script in courses])
        rewards, done = step(batch, actions)
        assert not done.any()
        for e, state in enumerate(alone):
            want_rewards, _ = step_alone(state, actions[e])
            assert np.array_equal(rewards[e], want_rewards)
            assert_row_is(batch, e, state)
            if state.finished[0, 0]:
                finish_steps.setdefault(e, t)
    assert finish_steps == {0: 5, 1: 7, 2: 10}
    # each finisher left the grid and set the key down next to the goal
    assert (batch.grids()[:, :, :, 0] == OBJ["agent"]).sum(axis=(1, 2)) \
        .tolist() == [1, 1, 1]
    assert (batch.cells[:, 1, 5] == (OBJ["key"], 4, 0)).all()


def env_seed(base_seed, e, j):
    """The seed of env e's j-th episode in an ``EnvSet``."""
    return int(np.random.SeedSequence([base_seed, e, j]).generate_state(1)[0])


@pytest.mark.parametrize("kind", ["meetup", "colorgather", "staghunt",
                                  "tasklist"])
def test_envset_auto_reset_equals_per_env_replays(kind):
    cfg = make_config(kind, interior=4, episode_cap=7,
                      **({"tasklist_subtasks": 3} if kind == "tasklist"
                         else {}))
    n_envs, base_seed = 3, 12
    es = EnvSet(kind, "default", cfg, n_envs, seed=base_seed)
    episode = [0] * n_envs
    replay = [reset(kind, seed=env_seed(base_seed, e, 0), config=cfg)
              for e in range(n_envs)]
    arng = np.random.default_rng(13)
    for _ in range(30):
        for e, state in enumerate(replay):
            assert_row_is(es.batch, e, state)
            assert np.array_equal(es.batch_ids()[e], state.grids()[0])
            for k in range(cfg.agent_count):
                assert np.array_equal(batch_poses(es.batch)[k][e],
                                      pose_vector(state.x[0, k], state.y[0, k],
                                                  state.direction[0, k]))
        actions = arng.integers(0, 7, size=(n_envs, cfg.agent_count))
        rewards, dones = es.step(actions)
        for e in range(n_envs):
            want_rewards, want_done = step_alone(replay[e], actions[e])
            assert np.array_equal(rewards[e], want_rewards)
            assert dones[e] == want_done
            if want_done:
                episode[e] += 1
                replay[e] = reset(kind, seed=env_seed(base_seed, e,
                                                      episode[e]),
                                  config=cfg)
    assert es.completed_episodes == sum(episode) >= 2 * n_envs


@pytest.mark.parametrize("kind", ["colorgather", "staghunt", "tasklist"])
def test_rows_where_no_action_can_change_anything_skip_interact(kind,
                                                                monkeypatch):
    # with every (action, object) pair marked as changing the faced cell,
    # every acting agent of every row interacts; the same random play must
    # come out bit for bit the same, generators included, from fewer calls
    def play(acts_on):
        monkeypatch.setattr(gridworlds, "_ACTS_ON", acts_on)
        calls = [0]
        interact = gridworlds._interact

        def counted(*args):
            calls[0] += 1
            interact(*args)

        monkeypatch.setattr(gridworlds, "_interact", counted)
        cfg = make_config(kind, interior=5, episode_cap=40)
        batch = EnvBatch.stack(reset(kind, seed=s, config=cfg)
                               for s in range(6))
        arng = np.random.default_rng(10)
        trace = []
        while len(batch):
            actions = arng.integers(0, 7, size=batch.x.shape)
            rewards, done = step(batch, actions)
            trace.append((rewards, batch.cells.copy(), batch.carry.copy(),
                          batch.task_index.copy(), batch.stags.copy(),
                          batch.stag_mask.copy(), batch.coin_tally.copy(),
                          [r.bit_generator.state for r in batch.rng]))
            batch = batch.take(~done)
        return trace, calls[0]

    acts_on = gridworlds._ACTS_ON
    every, every_calls = play(np.ones_like(acts_on))
    skipped, calls = play(acts_on)
    assert 0 < calls < every_calls
    assert len(skipped) == len(every)
    for got, ref in zip(skipped, every):
        for a, b in zip(got, ref):
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) \
                else a == b


def test_batch_rejects_mixed_kinds_and_stepping_a_done_row():
    meetup = reset("meetup", seed=1)
    colorgather = reset("colorgather", seed=1)
    with pytest.raises(ValueError, match="share the kind"):
        EnvBatch.stack([meetup, colorgather])
    with pytest.raises(ValueError, match="at least one"):
        EnvBatch.stack([])
    batch = EnvBatch.stack([meetup])
    with pytest.raises(ValueError, match="cannot join"):
        batch.put(0, colorgather)
    with pytest.raises(ValueError, match="actions"):
        step(batch, np.zeros((1, 2), dtype=np.int64))
    batch.done[0] = True
    with pytest.raises(RuntimeError, match="done"):
        step(batch, np.zeros((1, 3), dtype=np.int64))


class TestEnvConfigCounts:
    @pytest.mark.parametrize("name,value", [
        ("landmarks", 0), ("agent_count", 0), ("episode_cap", 0),
        ("coin_colors", 0), ("coin_colors", 5), ("coin_colors", 9),
        ("coins_per_color", -1), ("berries", -1), ("stags", -1)])
    def test_impossible_count_raises(self, name, value):
        with pytest.raises(ValueError, match=name):
            make_config("meetup", **{name: value})

    def test_edge_counts_are_accepted(self):
        cfg = make_config("meetup", landmarks=1, agent_count=1,
                          episode_cap=1, coin_colors=4, coins_per_color=0,
                          berries=0, stags=0)
        assert (cfg.landmarks, cfg.coin_colors, cfg.stags) == (1, 4, 0)
