"""Environment tests built on hand-laid episodes and brute-force oracles."""

import copy
import hashlib

import numpy as np
import pytest

from hand_laid import lay_out, put
from jointattn.gridworlds import (
    ACTIONS,
    COLOR_IDS,
    DROP,
    FORWARD,
    NOOP,
    OBJECT_IDS,
    PICKUP,
    STATE_IDS,
    TOGGLE,
    TURN_LEFT,
    TURN_RIGHT,
    VARIANTS,
    EnvBatch,
    colorgather_reward,
    consensus_landmark,
    make_config,
    meetup_reward,
    reset,
    step,
)
from jointattn.training import EnvSet

OBJ = OBJECT_IDS
COL = COLOR_IDS
ST = STATE_IDS


def poses(b):
    """Row 0's agent cells, [(x, y), ...]."""
    return list(zip(b.x[0].tolist(), b.y[0].tolist()))


def stag_cells(b):
    return {tuple(c) for c in b.stags[0, b.stag_mask[0]].tolist()}


def assert_same_rows(b1, b2):
    for name in EnvBatch.ARRAYS + EnvBatch.PADDED:
        assert np.array_equal(getattr(b1, name), getattr(b2, name)), name
    assert [r.bit_generator.state for r in b1.rng] == \
        [r.bit_generator.state for r in b2.rng]


class TestReset:
    @pytest.mark.parametrize("kind,variant", [
        ("meetup", "default"), ("colorgather", "default"),
        ("staghunt", "default"), ("tasklist", "default"),
        ("meetup", "cluttered"), ("colorgather", "random_coins"),
        ("staghunt", "all_stags"),
    ])
    def test_same_seed_bit_identical(self, kind, variant):
        s1 = reset(kind, variant, seed=123)
        s2 = reset(kind, variant, seed=123)
        assert len(s1) == 1
        assert_same_rows(s1, s2)
        assert np.array_equal(s1.grids(), s2.grids())

    def test_meetup_landmark_counts(self):
        for variant, expected in (("default", 3), ("single_target", 1),
                                  ("multi_target", 5)):
            s = reset("meetup", variant, seed=4)
            assert int((s.cells[0, :, :, 0] == OBJ["landmark"]).sum()) \
                == expected
            assert int(s.landmark_mask.sum()) == expected

    @pytest.mark.parametrize("kind,base_objects", [
        ("meetup", 3), ("colorgather", 9), ("staghunt", 6)])
    def test_cluttered_wall_count(self, kind, base_objects):
        cfg = make_config(kind, "cluttered")
        for seed in (0, 5, 9):
            s = reset(kind, "cluttered", seed=seed, config=cfg)
            interior_walls = int(
                (s.cells[0, 1:-1, 1:-1, 0] == OBJ["wall"]).sum())
            free_base = cfg.interior ** 2 - base_objects
            assert interior_walls == round(0.10 * free_base)

    def test_agents_on_distinct_free_cells(self):
        for kind in ("meetup", "colorgather", "staghunt", "tasklist"):
            s = reset(kind, "default", seed=7)
            positions = poses(s)
            size = s.cells.shape[1]
            assert len(set(positions)) == len(positions)
            for (x, y) in positions:
                assert 1 <= x < size - 1 and 1 <= y < size - 1
                assert s.cells[0, y, x, 0] == OBJ["empty"]

    def test_colorgather_variant_ranges(self):
        counts_seen = set()
        colors_seen = set()
        for seed in range(30):
            s = reset("colorgather", "random_coins", seed=seed)
            for color, n in _coin_counts(s).items():
                assert 1 <= n <= 4
                counts_seen.add(n)
            s = reset("colorgather", "random_colors", seed=seed)
            ncol = len(_coin_counts(s))
            assert 2 <= ncol <= 4
            colors_seen.add(ncol)
        assert len(counts_seen) > 1
        assert len(colors_seen) > 1

    def test_staghunt_variants(self):
        s = reset("staghunt", "no_stag", seed=1)
        assert int((s.cells[0, :, :, 0] == OBJ["stag"]).sum()) == 0
        assert int((s.cells[0, :, :, 0] == OBJ["berry"]).sum()) > 0
        assert stag_cells(s) == set()
        s = reset("staghunt", "all_stags", seed=1)
        assert int((s.cells[0, :, :, 0] == OBJ["berry"]).sum()) == 0
        ys, xs = np.nonzero(s.cells[0, :, :, 0] == OBJ["stag"])
        assert len(xs) > 0
        assert stag_cells(s) == set(zip(xs.tolist(), ys.tolist()))

    def test_tasklist_layout_sides(self):
        s = reset("tasklist", "default", seed=3)
        wall_x = s.cells.shape[2] // 2
        key = np.argwhere(s.cells[0, :, :, 0] == OBJ["key"])
        goal = np.argwhere(s.cells[0, :, :, 0] == OBJ["goal"])
        door = np.argwhere(s.cells[0, :, :, 0] == OBJ["door"])
        assert key[0][1] < wall_x
        assert goal[0][1] > wall_x
        assert door[0][1] == wall_x
        assert s.cells[0, door[0][0], door[0][1], 2] == ST["door-locked"]
        for x, _ in poses(s):
            assert x < wall_x

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            reset("meetup", "no_stag", seed=0)
        with pytest.raises(ValueError):
            reset("tasklist", "cluttered", seed=0)
        with pytest.raises(ValueError):
            make_config("staghunt", "single_target")

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            reset("colorgather", "default", seed=0,
                  config=make_config("colorgather", interior=2))


def _coin_counts(b):
    out = {}
    for color in b.cells[0][b.cells[0, :, :, 0] == OBJ["coin"], 1].tolist():
        out[color] = out.get(color, 0) + 1
    return out


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["meetup", "colorgather", "staghunt",
                                      "tasklist"])
    def test_seed_and_actions_fix_trajectory(self, kind):
        traces = []
        for _ in range(2):
            s = reset(kind, "default", seed=11)
            arng = np.random.default_rng(99)
            trace = []
            for _ in range(60):
                if s.done[0]:
                    break
                rewards, done = step(s, arng.integers(0, 7, size=s.x.shape))
                trace.append((rewards.copy(), done[0], s.cells.copy(),
                              poses(s)))
            traces.append(trace)
        assert len(traces[0]) == len(traces[1])
        for (r1, d1, c1, p1), (r2, d2, c2, p2) in zip(*traces):
            assert np.array_equal(r1, r2)
            assert d1 == d2
            assert np.array_equal(c1, c2)
            assert p1 == p2


# movement fixtures reuse the meetup kind, which needs a landmark
CORNER = (5, 5, "landmark", "red")


class TestMovement:
    def test_same_target_both_stay(self):
        # east and west toward (2,2)
        s = lay_out("meetup", 5, [(1, 2, 1), (3, 2, 3)], [CORNER])
        step(s, [[FORWARD, FORWARD]])
        assert poses(s) == [(1, 2), (3, 2)]

    def test_swap_both_stay(self):
        s = lay_out("meetup", 5, [(2, 2, 1), (3, 2, 3)], [CORNER])
        step(s, [[FORWARD, FORWARD]])
        assert poses(s) == [(2, 2), (3, 2)]

    def test_into_stationary_agent_stays(self):
        s = lay_out("meetup", 5, [(2, 2, 1), (3, 2, 0)], [CORNER])
        step(s, [[FORWARD, NOOP]])
        assert poses(s)[0] == (2, 2)

    def test_chain_moves_together(self):
        s = lay_out("meetup", 5, [(2, 2, 1), (3, 2, 1)], [CORNER])
        step(s, [[FORWARD, FORWARD]])
        assert poses(s) == [(3, 2), (4, 2)]

    def test_rotation_cycle_allowed(self):
        # east to (2,1), south to (2,2), west to (1,2)
        s = lay_out("meetup", 5, [(1, 1, 1), (2, 1, 2), (2, 2, 3)], [CORNER])
        step(s, [[FORWARD, FORWARD, FORWARD]])
        assert poses(s) == [(2, 1), (2, 2), (1, 2)]

    def test_walls_and_objects_block(self):
        s = lay_out("meetup", 5, [(2, 2, 1)], [(3, 2, "landmark", "red")])
        step(s, [[FORWARD]])
        assert poses(s) == [(2, 2)]
        # west into the border
        s2 = lay_out("meetup", 5, [(1, 1, 3)], [CORNER])
        step(s2, [[FORWARD]])
        assert poses(s2) == [(1, 1)]

    def test_turns(self):
        s = lay_out("meetup", 5, [(2, 2, 0)], [CORNER])
        step(s, [[TURN_RIGHT]])
        assert s.direction[0, 0] == 1
        step(s, [[TURN_LEFT]])
        step(s, [[TURN_LEFT]])
        assert s.direction[0, 0] == 3


class TestMeetup:
    def test_stationary_reward_zero(self):
        s = lay_out("meetup", 5, [(1, 1, 0)], [(4, 1, "landmark", "red")])
        before = copy.deepcopy(s)
        assert meetup_reward(before, s, 0) == 0.0

    def test_step_toward_landmark_plus_one(self):
        before = lay_out("meetup", 5, [(1, 1, 1)], [(4, 1, "landmark", "red")])
        after = copy.deepcopy(before)
        after.x[0, 0] = 2
        assert meetup_reward(before, after, 0) == 1.0

    def test_consensus_worked_example(self):
        # agents (0,0), (0,2), (5,5); landmarks (0,1) and (5,5), all
        # shifted by the border offset (+1, +1)
        s = lay_out("meetup", 7, [(1, 1), (1, 3), (6, 6)],
                    [(1, 2, "landmark", "red"), (6, 6, "landmark", "red")])
        assert consensus_landmark(s) == (1, 2)

    def test_consensus_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            spots = rng.choice(64, size=7, replace=False)
            cells = [(1 + int(v % 8), 1 + int(v // 8)) for v in spots]
            marks = cells[:4]
            s = lay_out("meetup", 8, cells[4:],
                        [(x, y, "landmark", "red") for x, y in marks])
            best = min(
                sorted(marks, key=lambda c: (c[1], c[0])),
                key=lambda m: sum(abs(x - m[0]) + abs(y - m[1])
                                  for x, y in cells[4:]),
            )
            assert consensus_landmark(s) == best

    def test_noop_step_changes_only_counter(self):
        s = reset("meetup", "default", seed=5)
        cells = s.cells.copy()
        before = poses(s)
        rewards, _ = step(s, np.full(s.x.shape, NOOP))
        assert np.array_equal(s.cells, cells)
        assert poses(s) == before
        assert np.array_equal(rewards, np.zeros(s.x.shape))
        assert s.step_count[0] == 1

    def test_all_adjacent_bonus_and_done(self):
        s = lay_out("meetup", 5, [(2, 3), (4, 3), (3, 2)],
                    [(3, 3, "landmark", "red")])
        rewards, done = step(s, [[NOOP, NOOP, NOOP]])
        assert done[0]
        assert np.array_equal(rewards[0], np.ones(3))

    def test_not_done_when_split_between_landmarks(self):
        # each agent adjacent to a different landmark
        s = lay_out("meetup", 5, [(2, 1), (4, 3)],
                    [(2, 2, "landmark", "red"), (4, 4, "landmark", "red")])
        _, done = step(s, [[NOOP, NOOP]])
        assert not done[0]

    def test_step_rewards_match_distance_oracle(self):
        s = reset("meetup", "default", seed=31)
        arng = np.random.default_rng(32)
        marks = s.landmarks[0, s.landmark_mask[0]].tolist()
        for _ in range(30):
            if s.done[0]:
                break
            before = copy.deepcopy(s)
            rewards, _ = step(s, arng.integers(0, 7, size=s.x.shape))
            # the bonus is paid when every agent is 4-adjacent to one landmark
            met = any(all(abs(x - mx) + abs(y - my) == 1 for x, y in poses(s))
                      for (mx, my) in marks)
            for i in range(s.x.shape[1]):
                assert rewards[0, i] - float(met) == \
                    pytest.approx(meetup_reward(before, s, i))


def tally(**counts):
    """A coin tally by color name."""
    out = np.zeros(len(COL), dtype=np.int64)
    for color, n in counts.items():
        out[COL[color]] = n
    return out


class TestColorGather:
    def _facing_coin_state(self, color="red"):
        return lay_out("colorgather", 6, [(2, 2, 1), (5, 2, 0)],
                       [(3, 2, "coin", color), (4, 4, "coin", "blue"),
                        (5, 5, "coin", color)])

    def test_first_coin_rewards_everyone(self):
        s = self._facing_coin_state()
        rewards, _ = step(s, [[PICKUP, NOOP]])
        assert np.array_equal(rewards[0], [1.0, 1.0])

    def test_modal_oracle_function(self):
        assert colorgather_reward(tally(), COL["red"]) == 1.0
        assert colorgather_reward(tally(red=2, blue=1), COL["blue"]) == 0.0
        assert colorgather_reward(tally(red=2, blue=1), COL["red"]) == 1.0
        assert colorgather_reward(tally(red=1, blue=1), COL["blue"]) == 1.0

    def test_non_modal_coin_rewards_zero(self):
        s = self._facing_coin_state(color="blue")
        s.coin_tally[0] = tally(red=2, blue=1)
        rewards, _ = step(s, [[PICKUP, NOOP]])
        assert np.array_equal(rewards[0], [0.0, 0.0])
        assert np.array_equal(s.coin_tally[0], tally(red=2, blue=2))

    def test_respawn_preserves_color_counts(self):
        s = self._facing_coin_state()
        before = _coin_counts(s)
        step(s, [[PICKUP, NOOP]])
        assert _coin_counts(s) == before

    def test_coin_count_conserved_over_random_play(self):
        s = reset("colorgather", "default", seed=13)
        total = int((s.cells[0, :, :, 0] == OBJ["coin"]).sum())
        arng = np.random.default_rng(14)
        for _ in range(300):
            if s.done[0]:
                s = reset("colorgather", "default", seed=15)
            step(s, arng.integers(0, 7, size=s.x.shape))
            assert int((s.cells[0, :, :, 0] == OBJ["coin"]).sum()) == total


class TestStagHunt:
    def test_berry_rewards_collector_only(self):
        s = lay_out("staghunt", 5, [(2, 2, 1), (4, 4)],
                    [(3, 2, "berry", "green")])
        rewards, _ = step(s, [[PICKUP, NOOP]])
        assert np.array_equal(rewards[0], [1.0, 0.0])
        assert int((s.cells[0, :, :, 0] == OBJ["berry"]).sum()) == 0

    def test_lone_hunter_fails(self):
        s = lay_out("staghunt", 5, [(2, 2, 1), (5, 5)],
                    [(3, 2, "stag", "grey")])
        rewards, _ = step(s, [[PICKUP, NOOP]])
        assert np.array_equal(rewards[0], [0.0, 0.0])
        assert int((s.cells[0, :, :, 0] == OBJ["stag"]).sum()) == 1
        assert len(stag_cells(s)) == 1

    def test_capture_pays_both(self):
        # the second agent stands adjacent to the stag cell
        s = lay_out("staghunt", 5, [(2, 2, 1), (3, 3, 0)],
                    [(3, 2, "stag", "grey")])
        rewards, _ = step(s, [[PICKUP, NOOP]])
        assert np.array_equal(rewards[0], [5.0, 5.0])
        assert int((s.cells[0, :, :, 0] == OBJ["stag"]).sum()) == 0
        assert stag_cells(s) == set()

    def test_stags_move_and_berries_nonincreasing(self):
        s = reset("staghunt", "default", seed=17)
        initial = stag_cells(s)
        berries = int((s.cells[0, :, :, 0] == OBJ["berry"]).sum())
        moved = False
        arng = np.random.default_rng(18)
        for _ in range(40):
            if s.done[0]:
                break
            step(s, arng.integers(0, 7, size=(1, 2)))
            now = int((s.cells[0, :, :, 0] == OBJ["berry"]).sum())
            assert now <= berries
            berries = now
            if stag_cells(s) != initial:
                moved = True
        assert moved

    def test_stags_sit_on_grid_cells(self):
        s = reset("staghunt", "default", seed=19)
        arng = np.random.default_rng(20)
        for _ in range(30):
            if s.done[0]:
                break
            step(s, arng.integers(0, 7, size=(1, 2)))
            for (x, y) in stag_cells(s):
                assert s.cells[0, y, x, 0] == OBJ["stag"]
                assert (x, y) not in poses(s)


KEY = (OBJ["key"], COL["yellow"])


def tasklist_course(agents, interior=6, **overrides):
    """A dividing wall at x=4 with a locked door at y=2, the key west of it
    and the goal east of it; the ball and the box too on the full course."""
    objects = [(4, y, "wall") for y in range(1, interior + 1)]
    objects += [(4, 2, "door", "yellow", "door-locked"),
                (2, 2, "key", "yellow")]
    if overrides.get("tasklist_subtasks", 6) == 6:
        objects += [(5, 2, "ball", "blue"), (6, 2, "box", "grey"),
                    (5, 4, "goal", "green")]
    else:
        objects += [(5, 2, "goal", "green")]
    return lay_out("tasklist", interior, agents, objects, **overrides)


class TestTaskList:
    def _course(self):
        return tasklist_course([(1, 2, 1)])

    def test_toggle_door_without_key_no_change(self):
        s = lay_out("tasklist", 5, [(2, 2, 1)],
                    [(3, 2, "door", "yellow", "door-locked")])
        cells = s.cells.copy()
        rewards, _ = step(s, [[TOGGLE]])
        assert np.array_equal(s.cells, cells)
        assert rewards[0, 0] == 0.0

    def test_full_ordered_completion_scores_six(self):
        s = self._course()
        script = [PICKUP, FORWARD, FORWARD, TOGGLE, TURN_LEFT, DROP,
                  TURN_RIGHT, FORWARD, FORWARD, PICKUP, FORWARD, TOGGLE,
                  TURN_LEFT, DROP, TURN_RIGHT, TURN_RIGHT, FORWARD, FORWARD]
        total = 0.0
        for act in script:
            rewards, _ = step(s, [[act]])
            total += rewards[0, 0]
        assert total == 6.0
        assert s.done[0]
        assert s.finished[0, 0]
        assert s.task_index[0, 0] == 6

    def test_out_of_order_box_toggle_no_advance(self):
        s = self._course()
        # teleport the agent next to the box with nothing done yet
        s.x[0, 0], s.y[0, 0], s.direction[0, 0] = 5, 2, 1
        put(s, 5, 2, "empty")  # clear the ball spot we now stand on
        rewards, _ = step(s, [[TOGGLE]])
        assert s.task_index[0, 0] == 0
        assert rewards[0, 0] == 0.0

    def test_door_reopens_and_closes_with_key(self):
        s = lay_out("tasklist", 5, [(2, 2, 1)],
                    [(3, 2, "door", "yellow", "door-locked")])
        s.carry[0, 0], s.task_index[0, 0] = KEY, 1
        rewards, _ = step(s, [[TOGGLE]])
        assert s.cells[0, 2, 3, 2] == ST["door-open"]
        assert rewards[0, 0] == 1.0  # open_door was this agent's subtask
        step(s, [[TOGGLE]])
        assert s.cells[0, 2, 3, 2] == ST["door-closed"]
        rewards, _ = step(s, [[TOGGLE]])
        assert s.cells[0, 2, 3, 2] == ST["door-open"]
        assert rewards[0, 0] == 0.0  # reopening is not a new subtask

    def test_indices_are_per_agent(self):
        s = lay_out("tasklist", 5, [(2, 2, 1), (1, 4, 0)],
                    [(3, 2, "door", "yellow", "door-locked")])
        s.carry[0, 0], s.task_index[0, 0] = KEY, 1
        rewards, _ = step(s, [[TOGGLE, NOOP]])
        assert s.task_index[0].tolist() == [2, 0]
        assert rewards[0, 1] == 0.0

    def test_pickup_requires_empty_hands(self):
        s = lay_out("tasklist", 5, [(2, 2, 1)], [(3, 2, "ball", "blue")])
        s.carry[0, 0] = KEY
        step(s, [[PICKUP]])
        assert s.cells[0, 2, 3, 0] == OBJ["ball"]
        assert tuple(s.carry[0, 0].tolist()) == KEY

    def test_reduced_course_scores_three(self):
        s = tasklist_course([(1, 2, 1)], tasklist_subtasks=3)
        script = [PICKUP, FORWARD, FORWARD, TOGGLE, FORWARD, FORWARD]
        total = 0.0
        for act in script:
            rewards, _ = step(s, [[act]])
            total += rewards[0, 0]
        assert total == 3.0
        assert s.done[0]

    def test_non_learning_agent_does_not_gate_done(self):
        s = tasklist_course([(1, 2, 1), (1, 5, 0)], tasklist_subtasks=3,
                            non_learning=(1,))
        script = [PICKUP, FORWARD, FORWARD, TOGGLE, FORWARD, FORWARD]
        for act in script:
            step(s, [[act, NOOP]])
        assert s.done[0]
        assert not s.finished[0, 1]


class TestDespawn:
    """A finished TaskList agent leaves the grid: invisible, non-blocking,
    and whatever it carried is set down for the others."""

    def _relay_course(self):
        # reduced subtasks; one key and one door shared by two learners
        return tasklist_course([(1, 2, 1), (1, 4, 1)], tasklist_subtasks=3)

    def _finish_first(self, s):
        for act in [PICKUP, FORWARD, FORWARD, TOGGLE, FORWARD, FORWARD]:
            step(s, [[act, NOOP]])
        return s

    def test_finisher_sheds_carried_key_nearby(self):
        s = self._finish_first(self._relay_course())
        assert s.finished[0, 0]
        assert s.carry[0, 0].tolist() == [0, 0]
        # first empty unoccupied neighbor of the goal cell, scanned N/E/S/W
        assert tuple(s.cells[0, 1, 5]) == (OBJ["key"], COL["yellow"], 0)
        assert not s.done[0]

    def test_boxed_in_finisher_sheds_at_first_free_cell_row_major(self):
        # walls on the goal's free neighbors, the door west of it: the key
        # goes to the first empty cell row-major that no live agent holds
        s = tasklist_course([(1, 2, 1), (1, 1)], tasklist_subtasks=3)
        for x, y in [(5, 1), (6, 2), (5, 3)]:
            put(s, x, y, "wall")
        s = self._finish_first(s)
        assert s.finished[0, 0]
        assert tuple(s.cells[0, 1, 2]) == (OBJ["key"], COL["yellow"], 0)
        assert int((s.cells[0, :, :, 0] == OBJ["key"]).sum()) == 1

    def test_finished_agent_not_in_observations(self):
        s = self._finish_first(self._relay_course())
        grid = s.grids()[0]
        assert int((grid[:, :, 0] == OBJ["agent"]).sum()) == 1
        assert grid[4, 1, 0] == OBJ["agent"]        # the live agent at (1,4)
        assert grid[2, 5, 0] == OBJ["goal"]         # not the finished one

    def test_finished_agent_ignores_actions_and_earns_nothing(self):
        s = self._finish_first(self._relay_course())
        pos = poses(s)[0]
        for act in [FORWARD, TOGGLE, PICKUP]:
            rewards, _ = step(s, [[act, NOOP]])
            assert rewards[0, 0] == 0.0
        assert poses(s)[0] == pos
        assert s.task_index[0, 0] == 3

    def test_second_agent_relays_key_through_vacated_goal(self):
        s = self._finish_first(self._relay_course())
        script = [FORWARD, FORWARD, TURN_LEFT, FORWARD, FORWARD, TURN_RIGHT,
                  FORWARD, FORWARD, TURN_LEFT, PICKUP, TURN_LEFT, TOGGLE,
                  TOGGLE]
        total = 0.0
        for k, act in enumerate(script):
            rewards, _ = step(s, [[NOOP, act]])
            total += rewards[0, 1]
            if k == 7:
                # walked onto the goal cell the finisher would have blocked
                assert poses(s)[1] == (5, 2)
        assert total == 3.0
        assert s.done[0]
        assert s.finished[0, 1]

    def test_shed_falls_back_row_major_when_neighbors_full(self):
        s = lay_out("tasklist", 4, [(2, 2, 0)],
                    [(2, 2, "goal", "green")]
                    + [(x, y, "wall")
                       for x, y in ((2, 1), (3, 2), (2, 3), (1, 2))],
                    tasklist_subtasks=3)
        s.carry[0, 0], s.task_index[0, 0] = KEY, 2
        step(s, [[NOOP]])
        assert s.finished[0, 0]
        assert tuple(s.cells[0, 1, 1]) == (OBJ["key"], COL["yellow"], 0)


class TestObservations:
    def test_empty_cell_triple(self):
        s = lay_out("meetup", 4, [(1, 1)])
        assert tuple(s.grids()[0, 2, 2]) == (0, 0, 0)

    def test_own_cell_shows_agent_with_color(self):
        s = lay_out("meetup", 4, [(1, 1), (2, 2)])
        grid = s.grids()[0]
        assert tuple(grid[2, 2]) == (OBJ["agent"], 2, 0)  # second agent: green
        assert tuple(grid[1, 1]) == (OBJ["agent"], 1, 0)  # first agent: red

    def test_colors_repeat_after_six_agents(self):
        agents = [(1 + i % 4, 1 + i // 4) for i in range(8)]
        grid = lay_out("meetup", 4, agents).grids()[0]
        assert [grid[y, x, 1] for x, y in agents] == [1, 2, 3, 4, 5, 6, 1, 2]

    def test_carried_object_not_on_grid(self):
        s = lay_out("tasklist", 5, [(2, 2, 1)], [(3, 2, "key", "yellow")])
        step(s, [[PICKUP]])
        grid = s.grids()[0]
        assert int((grid[:, :, 0] == OBJ["key"]).sum()) == 0

    def test_dtype_and_shape(self):
        s = reset("staghunt", "default", seed=25)
        grids = s.grids()
        assert grids.dtype == np.int64
        assert grids.shape == (1,) + s.cells.shape[1:]


class TestStepContract:
    def test_done_state_refuses_steps(self):
        s = lay_out("meetup", 5, [(2, 3), (4, 3), (3, 2)],
                    [(3, 3, "landmark", "red")])
        _, done = step(s, [[NOOP] * 3])
        assert done[0]
        with pytest.raises(RuntimeError):
            step(s, [[NOOP] * 3])

    def test_wrong_action_count_rejected(self):
        s = reset("meetup", "default", seed=33)
        with pytest.raises(ValueError):
            step(s, [[NOOP]])

    @pytest.mark.parametrize("actions", [[9, -3, 100], [0, 0, len(ACTIONS)],
                                         [-1, NOOP, NOOP]])
    def test_actions_outside_the_action_set_leave_the_row_untouched(
            self, actions):
        s = reset("colorgather", seed=1)
        before = copy.deepcopy(s)
        with pytest.raises(ValueError, match="actions must be in"):
            step(s, [actions])
        assert_same_rows(s, before)
        step(s, [[len(ACTIONS) - 1, 0, 0]])
        assert s.step_count[0] == 1

    def test_episode_cap_ends_episode(self):
        cfg = make_config("colorgather", episode_cap=5)
        s = reset("colorgather", "default", seed=35, config=cfg)
        for i in range(5):
            _, done = step(s, np.full(s.x.shape, NOOP))
        assert done[0]

    @pytest.mark.parametrize("kind, overrides, returns, episodes", [
        ("meetup", dict(landmarks=2), [-3, -16, -23], 31),
        ("colorgather", {}, [177, 177, 177], 29),
        ("staghunt", {}, [80, 83], 29),
        ("tasklist", dict(tasklist_subtasks=3), [19], 29),
    ])
    def test_random_play_returns_are_golden(self, kind, overrides, returns,
                                            episodes):
        # 3,000 uniform random steps on a 4x4 interior, each finished episode
        # restarted from the next seed. Every reward rule fires here except
        # TaskList's goal arrival, which the TestTaskList courses cover.
        cfg = make_config(kind, interior=4, **overrides)
        arng = np.random.default_rng(5)
        finished = 0
        s = reset(kind, seed=finished, config=cfg)
        total = np.zeros(s.x.shape[1])
        for _ in range(3000):
            if s.done[0]:
                finished += 1
                s = reset(kind, seed=finished, config=cfg)
            rewards, _ = step(s, arng.integers(0, 7, size=s.x.shape))
            total += rewards[0]
        assert total.tolist() == returns
        assert finished == episodes

    def test_agents_never_overlap_anything(self):
        for kind in ("meetup", "colorgather", "staghunt"):
            s = reset(kind, "cluttered", seed=39)
            arng = np.random.default_rng(40)
            for _ in range(50):
                if s.done[0]:
                    break
                step(s, arng.integers(0, 7, size=s.x.shape))
                positions = poses(s)
                assert len(set(positions)) == len(positions)
                for (x, y) in positions:
                    obj, _, state = s.cells[0, y, x]
                    assert obj in (OBJ["empty"], OBJ["goal"]) or (
                        obj == OBJ["door"] and state == ST["door-open"])


class TestEpisodeInvariants:
    @pytest.mark.parametrize("variant", ["default", "cluttered",
                                         "single_target", "multi_target"])
    def test_meetup_landmarks_stay_put_over_full_episodes(self, variant):
        def scan(s):
            ys, xs = np.nonzero(s.cells[0, :, :, 0] == OBJ["landmark"])
            return sorted(zip(xs.tolist(), ys.tolist()),
                          key=lambda c: (c[1], c[0]))

        def recorded(s):
            return [tuple(c) for c in s.landmarks[0, s.landmark_mask[0]]
                    .tolist()]

        for seed in range(3):
            s = reset("meetup", variant, seed=seed)
            found = scan(s)
            assert recorded(s) == found
            assert len(found) == make_config("meetup", variant).landmarks
            arng = np.random.default_rng(100 + seed)
            while not s.done[0]:
                step(s, arng.integers(0, 7, size=s.x.shape))
                assert scan(s) == found
                assert recorded(s) == found

    @pytest.mark.parametrize("kind", ["meetup", "colorgather", "staghunt",
                                      "tasklist"])
    def test_grids_paint_every_live_agent(self, kind):
        def painted(b):
            want = b.cells.copy()
            for e in range(len(b)):
                for k in range(b.x.shape[1]):
                    if not b.finished[e, k]:
                        want[e, b.y[e, k], b.x[e, k]] = (OBJ["agent"],
                                                         1 + k % 6, 0)
            return want

        b = EnvBatch.stack(reset(kind, "default", seed=s) for s in (42, 43))
        arng = np.random.default_rng(43)
        for _ in range(30):
            grids = b.grids()
            assert np.array_equal(grids, painted(b))
            grids[:] = -1               # a copy: the cells stay as they are
            assert np.array_equal(b.grids(), painted(b))
            _, done = step(b, arng.integers(0, 7, size=b.x.shape))
            b = b.take(~done)
            if not len(b):
                break


def _fold(h, *arrays):
    """Add each array's values to the hash ``h``, as float64 or int64."""
    for a in arrays:
        a = np.asarray(a)
        h.update(np.ascontiguousarray(
            a, dtype=np.float64 if a.dtype.kind == "f" else np.int64)
            .tobytes())


def _fold_step(h, b, rewards, done):
    _fold(h, rewards, done, b.cells, b.x, b.y, b.direction, b.carry,
          b.task_index, b.finished)


PINNED_CASES = [(kind, variant, {}) for variant, kinds in VARIANTS.items()
                for kind in kinds] + [
    ("tasklist", "default", {"tasklist_subtasks": 3}),
    ("meetup", "multi_target", {"agent_count": 2})]     # meets before the cap

# (sha256 over every step, episodes finished) of the random play below:
# rewards, done flags, cells and every agent's pose, carry and progress.
# Fixed values, never to be rewritten: a moved draw, reward or pose shows
# here even when the episode totals stay the same.
PINNED_TRAJECTORIES = {
    "meetup/default":
        ("1c5f9b0ab43f469fbb89d49a1421b42e10a6b356062d1eda69d3194ce104d1e4", 20),
    "colorgather/default":
        ("82dc8603a7940d69f8ea4cb7c3cabd9e05d2f79222a40df42787f9d1b1e86ad0", 20),
    "staghunt/default":
        ("e55d4369ce1ed34867a4ec239bbcba172472ac3678903d8d84f1d2d4738d2f5a", 20),
    "tasklist/default":
        ("cd86eba8fe84cdf788d84333e823aee34faddb7a8ad6e1a9fe351637930476e7", 20),
    "meetup/cluttered":
        ("bd9ece370a0e08141de720cc96ccadd298c18bdc710ea927e159a38ddce7320e", 20),
    "colorgather/cluttered":
        ("4e4ce17aad5abd8638ee5cf725523feb012c30731767a709e4463a0578fc6737", 20),
    "staghunt/cluttered":
        ("eeda59fbe2022d34711a04073f6bfa19c8edc2fdc15945a9e214900272c264f3", 20),
    "meetup/single_target":
        ("723ab1c70b1f2ade5b55871de3b4eaf64cbcd06d9e702f92be76552eab7301a7", 20),
    "meetup/multi_target":
        ("dfe6dd56db70ba4e90d2cb0b3556c026c314ae6e36e557417b846d75c461ed6e", 20),
    "colorgather/random_coins":
        ("003102c0a717cedcef46d8e95d100e853c683728cad2eaba389a75870f0c92af", 20),
    "colorgather/random_colors":
        ("e6f728641b1db15f03ca8e82d7d949f0be5ce6a455644bde2e0a11363c62be98", 20),
    "staghunt/no_stag":
        ("79f6826c8ff9b8f70635d41861552b1152e77952f2e9ff4006370c58eda9b928", 20),
    "staghunt/all_stags":
        ("b2a3d10134cecb35a0a8f0105a9445e0e51ca39ce52f32f180c6d6ace868f14a", 20),
    "tasklist/default/tasklist_subtasks=3":
        ("375d0f31a8022d30c1d1d239e778c4cb2b0f2b6acc268a4494c36baf02423a1f", 20),
    "meetup/multi_target/agent_count=2":
        ("5f52f486d09ff581c73b2438b248088abcae5b39ee942f50d77840c53619929f", 25),
}

PINNED_ENVSETS = {
    "meetup":
        ("9737d9fe070d73585cabeead76fa5a4aef934b33cdce84d2cb0853af500660ce", 15),
    "colorgather":
        ("980ea35cf952c27dd6c7784247a55ab8fb895e60d37cdcf1b599bf9fdcbcd18c", 15),
    "staghunt":
        ("9e4a7fd654be431c1f188e5a233c40b3d2285af94ee8dcd793262a67bd493bb8", 15),
    "tasklist":
        ("d99c31a967c076a8b22d31e32434ba97fc3a166b69f66737c726b42136c79213", 15),
}


class TestPinnedTrajectories:
    @pytest.mark.parametrize("kind,variant,overrides", PINNED_CASES)
    def test_random_play_is_pinned(self, kind, variant, overrides):
        # 600 uniform random steps on a 4x4 interior, capped at 30 steps an
        # episode; each finished episode restarts from the next seed
        cfg = make_config(kind, variant, interior=4, episode_cap=30,
                          **overrides)
        fresh = lambda seed: reset(kind, variant, seed=seed, config=cfg)
        arng = np.random.default_rng(2024)
        episodes = 0
        b = fresh(episodes)
        h = hashlib.sha256()
        for _ in range(600):
            rewards, done = step(b, arng.integers(0, 7, size=b.x.shape))
            _fold_step(h, b, rewards, done)
            if done[0]:
                episodes += 1
                b = fresh(episodes)
        key = f"{kind}/{variant}" + "".join(f"/{k}={v}" for k, v in
                                            overrides.items())
        assert (h.hexdigest(), episodes) == PINNED_TRAJECTORIES[key]

    @pytest.mark.parametrize("kind", ["meetup", "colorgather", "staghunt",
                                      "tasklist"])
    def test_envset_auto_reset_play_is_pinned(self, kind):
        cfg = make_config(kind, interior=5, episode_cap=12)
        es = EnvSet(kind, "default", cfg, 3, seed=21)
        arng = np.random.default_rng(2025)
        h = hashlib.sha256()
        for _ in range(60):
            rewards, done = es.step(arng.integers(0, 7, size=es.batch.x.shape))
            _fold_step(h, es.batch, rewards, done)
        assert (h.hexdigest(), es.completed_episodes) == PINNED_ENVSETS[kind]
