"""Environment tests built on constructed states and brute-force oracles."""

import copy

import numpy as np
import pytest

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
    AgentState,
    EnvConfig,
    GridState,
    SUBTASKS,
    colorgather_reward,
    consensus_landmark,
    encode_observation,
    make_config,
    meetup_reward,
    reset,
    step,
)

OBJ = OBJECT_IDS
COL = COLOR_IDS
ST = STATE_IDS


def blank_state(kind, interior, variant="default", **over):
    """Bordered empty grid with no layout; tests place objects by hand."""
    cfg = make_config(kind, variant, interior=interior, **over)
    size = interior + 2
    cells = np.zeros((size, size, 3), dtype=np.int64)
    cells[0, :, 0] = OBJ["wall"]
    cells[-1, :, 0] = OBJ["wall"]
    cells[:, 0, 0] = OBJ["wall"]
    cells[:, -1, 0] = OBJ["wall"]
    subtasks = SUBTASKS if cfg.tasklist_subtasks == 6 else (
        "pickup_key", "open_door", "reach_goal")
    return GridState(kind=kind, variant=variant, config=cfg, width=size,
                     height=size, cells=cells, agents=[],
                     rng=np.random.default_rng(0), subtasks=subtasks)


def put(state, x, y, obj, color=0, st=0):
    state.cells[y, x] = (OBJ[obj] if isinstance(obj, str) else obj,
                         COL[color] if isinstance(color, str) else color,
                         ST[st] if isinstance(st, str) else st)


def add_agent(state, x, y, direction=0, **kw):
    state.agents.append(AgentState(x, y, direction, **kw))
    return len(state.agents) - 1


class TestReset:
    @pytest.mark.parametrize("kind,variant", [
        ("meetup", "default"), ("colorgather", "default"),
        ("staghunt", "default"), ("tasklist", "default"),
        ("meetup", "cluttered"), ("colorgather", "random_coins"),
        ("staghunt", "all_stags"),
    ])
    def test_same_seed_bit_identical(self, kind, variant):
        s1, o1 = reset(kind, variant, seed=123)
        s2, o2 = reset(kind, variant, seed=123)
        assert np.array_equal(s1.cells, s2.cells)
        assert [(a.x, a.y, a.direction) for a in s1.agents] == \
               [(a.x, a.y, a.direction) for a in s2.agents]
        for (g1, p1), (g2, p2) in zip(o1, o2):
            assert np.array_equal(g1, g2)
            assert p1 == p2

    def test_meetup_landmark_counts(self):
        for variant, expected in (("default", 3), ("single_target", 1),
                                  ("multi_target", 5)):
            s, _ = reset("meetup", variant, seed=4)
            assert int((s.cells[:, :, 0] == OBJ["landmark"]).sum()) == expected

    @pytest.mark.parametrize("kind,base_objects", [
        ("meetup", 3), ("colorgather", 9), ("staghunt", 6)])
    def test_cluttered_wall_count(self, kind, base_objects):
        cfg = make_config(kind, "cluttered")
        for seed in (0, 5, 9):
            s, _ = reset(kind, "cluttered", seed=seed, config=cfg)
            interior_walls = int(
                (s.cells[1:-1, 1:-1, 0] == OBJ["wall"]).sum())
            free_base = cfg.interior ** 2 - base_objects
            assert interior_walls == round(0.10 * free_base)

    def test_agents_on_distinct_free_cells(self):
        for kind in ("meetup", "colorgather", "staghunt", "tasklist"):
            s, _ = reset(kind, "default", seed=7)
            positions = [a.pos for a in s.agents]
            assert len(set(positions)) == len(positions)
            for (x, y) in positions:
                assert 1 <= x < s.width - 1 and 1 <= y < s.height - 1
                assert s.cells[y, x, 0] == OBJ["empty"]

    def test_colorgather_variant_ranges(self):
        counts_seen = set()
        colors_seen = set()
        for seed in range(30):
            s, _ = reset("colorgather", "random_coins", seed=seed)
            for color, n in _coin_counts(s).items():
                assert 1 <= n <= 4
                counts_seen.add(n)
            s, _ = reset("colorgather", "random_colors", seed=seed)
            ncol = len(_coin_counts(s))
            assert 2 <= ncol <= 4
            colors_seen.add(ncol)
        assert len(counts_seen) > 1
        assert len(colors_seen) > 1

    def test_staghunt_variants(self):
        s, _ = reset("staghunt", "no_stag", seed=1)
        assert int((s.cells[:, :, 0] == OBJ["stag"]).sum()) == 0
        assert int((s.cells[:, :, 0] == OBJ["berry"]).sum()) > 0
        s, _ = reset("staghunt", "all_stags", seed=1)
        assert int((s.cells[:, :, 0] == OBJ["berry"]).sum()) == 0
        assert int((s.cells[:, :, 0] == OBJ["stag"]).sum()) > 0

    def test_tasklist_layout_sides(self):
        s, _ = reset("tasklist", "default", seed=3)
        wall_x = s.width // 2
        key = np.argwhere(s.cells[:, :, 0] == OBJ["key"])
        goal = np.argwhere(s.cells[:, :, 0] == OBJ["goal"])
        door = np.argwhere(s.cells[:, :, 0] == OBJ["door"])
        assert key[0][1] < wall_x
        assert goal[0][1] > wall_x
        assert door[0][1] == wall_x
        assert s.cells[door[0][0], door[0][1], 2] == ST["door-locked"]
        for a in s.agents:
            assert a.x < wall_x

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


def _coin_counts(state):
    out = {}
    ys, xs = np.nonzero(state.cells[:, :, 0] == OBJ["coin"])
    for y, x in zip(ys, xs):
        out[int(state.cells[y, x, 1])] = out.get(int(state.cells[y, x, 1]), 0) + 1
    return out


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["meetup", "colorgather", "staghunt",
                                      "tasklist"])
    def test_seed_and_actions_fix_trajectory(self, kind):
        traces = []
        for _ in range(2):
            s, _ = reset(kind, "default", seed=11)
            arng = np.random.default_rng(99)
            trace = []
            for _ in range(60):
                if s.done:
                    break
                actions = arng.integers(0, 7, size=len(s.agents))
                s, out, obs = step(s, actions)
                trace.append((out.rewards.copy(), out.done, s.cells.copy(),
                              tuple(a.pos for a in s.agents)))
            traces.append(trace)
        assert len(traces[0]) == len(traces[1])
        for (r1, d1, c1, p1), (r2, d2, c2, p2) in zip(*traces):
            assert np.array_equal(r1, r2)
            assert d1 == d2
            assert np.array_equal(c1, c2)
            assert p1 == p2


def mark_corner(s):
    """Movement fixtures reuse the meetup kind, which needs a landmark."""
    put(s, s.width - 2, s.height - 2, "landmark", "red")


class TestMovement:
    def test_same_target_both_stay(self):
        s = blank_state("meetup", 5, agent_count=2)
        mark_corner(s)
        a = add_agent(s, 1, 2, direction=1)  # east toward (2,2)
        b = add_agent(s, 3, 2, direction=3)  # west toward (2,2)
        step(s, [FORWARD, FORWARD])
        assert s.agents[a].pos == (1, 2)
        assert s.agents[b].pos == (3, 2)

    def test_swap_both_stay(self):
        s = blank_state("meetup", 5, agent_count=2)
        mark_corner(s)
        a = add_agent(s, 2, 2, direction=1)
        b = add_agent(s, 3, 2, direction=3)
        step(s, [FORWARD, FORWARD])
        assert s.agents[a].pos == (2, 2)
        assert s.agents[b].pos == (3, 2)

    def test_into_stationary_agent_stays(self):
        s = blank_state("meetup", 5, agent_count=2)
        mark_corner(s)
        a = add_agent(s, 2, 2, direction=1)
        add_agent(s, 3, 2, direction=0)
        step(s, [FORWARD, NOOP])
        assert s.agents[a].pos == (2, 2)

    def test_chain_moves_together(self):
        s = blank_state("meetup", 5, agent_count=2)
        mark_corner(s)
        a = add_agent(s, 2, 2, direction=1)
        b = add_agent(s, 3, 2, direction=1)
        step(s, [FORWARD, FORWARD])
        assert s.agents[b].pos == (4, 2)
        assert s.agents[a].pos == (3, 2)

    def test_rotation_cycle_allowed(self):
        s = blank_state("meetup", 5, agent_count=3)
        mark_corner(s)
        a = add_agent(s, 1, 1, direction=1)  # east to (2,1)
        b = add_agent(s, 2, 1, direction=2)  # south to (2,2)
        c = add_agent(s, 2, 2, direction=3)  # west to (1,2)
        step(s, [FORWARD, FORWARD, FORWARD])
        assert s.agents[a].pos == (2, 1)
        assert s.agents[b].pos == (2, 2)
        assert s.agents[c].pos == (1, 2)

    def test_walls_and_objects_block(self):
        s = blank_state("meetup", 5, agent_count=1)
        put(s, 3, 2, "landmark", "red")
        a = add_agent(s, 2, 2, direction=1)
        step(s, [FORWARD])
        assert s.agents[a].pos == (2, 2)
        s2 = blank_state("meetup", 5, agent_count=1)
        mark_corner(s2)
        a2 = add_agent(s2, 1, 1, direction=3)  # west into the border
        step(s2, [FORWARD])
        assert s2.agents[a2].pos == (1, 1)

    def test_turns(self):
        s = blank_state("meetup", 5, agent_count=1)
        mark_corner(s)
        a = add_agent(s, 2, 2, direction=0)
        step(s, [TURN_RIGHT])
        assert s.agents[a].direction == 1
        step(s, [TURN_LEFT])
        step(s, [TURN_LEFT])
        assert s.agents[a].direction == 3


class TestMeetup:
    def test_stationary_reward_zero(self):
        s = blank_state("meetup", 5, agent_count=1)
        put(s, 4, 1, "landmark", "red")
        add_agent(s, 1, 1, direction=0)
        before = copy.deepcopy(s)
        assert meetup_reward(before, s, 0) == 0.0

    def test_step_toward_landmark_plus_one(self):
        before = blank_state("meetup", 5, agent_count=1)
        put(before, 4, 1, "landmark", "red")
        add_agent(before, 1, 1, direction=1)
        after = copy.deepcopy(before)
        after.agents[0].x = 2
        assert meetup_reward(before, after, 0) == 1.0

    def test_consensus_worked_example(self):
        # agents (0,0), (0,2), (5,5); landmarks (0,1) and (5,5), all
        # shifted by the border offset (+1, +1)
        s = blank_state("meetup", 7, agent_count=3)
        put(s, 1, 2, "landmark", "red")
        put(s, 6, 6, "landmark", "red")
        add_agent(s, 1, 1)
        add_agent(s, 1, 3)
        add_agent(s, 6, 6)
        assert consensus_landmark(s) == (1, 2)

    def test_consensus_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            s = blank_state("meetup", 8, agent_count=3)
            spots = rng.choice(64, size=7, replace=False)
            cells = [(1 + int(v % 8), 1 + int(v // 8)) for v in spots]
            marks = cells[:4]
            for (x, y) in marks:
                put(s, x, y, "landmark", "red")
            for (x, y) in cells[4:]:
                add_agent(s, x, y)
            best = min(
                sorted(marks, key=lambda c: (c[1], c[0])),
                key=lambda m: sum(abs(a.x - m[0]) + abs(a.y - m[1])
                                  for a in s.agents),
            )
            assert consensus_landmark(s) == best

    def test_noop_step_changes_only_counter(self):
        s, _ = reset("meetup", "default", seed=5)
        cells = s.cells.copy()
        poses = [a.pos for a in s.agents]
        s, out, _ = step(s, [NOOP] * len(s.agents))
        assert np.array_equal(s.cells, cells)
        assert [a.pos for a in s.agents] == poses
        assert np.array_equal(out.rewards, np.zeros(len(s.agents)))
        assert s.step_count == 1

    def test_all_adjacent_bonus_and_done(self):
        s = blank_state("meetup", 5, agent_count=3)
        put(s, 3, 3, "landmark", "red")
        add_agent(s, 2, 3)
        add_agent(s, 4, 3)
        add_agent(s, 3, 2)
        s, out, _ = step(s, [NOOP, NOOP, NOOP])
        assert out.done
        assert np.array_equal(out.rewards, np.ones(3))

    def test_not_done_when_split_between_landmarks(self):
        s = blank_state("meetup", 5, agent_count=2)
        put(s, 2, 2, "landmark", "red")
        put(s, 4, 4, "landmark", "red")
        add_agent(s, 2, 1)   # adjacent to first landmark
        add_agent(s, 4, 3)   # adjacent to second landmark
        s, out, _ = step(s, [NOOP, NOOP])
        assert not out.done

    def test_step_rewards_match_distance_oracle(self):
        s, _ = reset("meetup", "default", seed=31)
        arng = np.random.default_rng(32)
        for _ in range(30):
            if s.done:
                break
            before = copy.deepcopy(s)
            actions = arng.integers(0, 7, size=len(s.agents))
            s, out, _ = step(s, actions)
            # the bonus is paid when every agent is 4-adjacent to one landmark
            met = any(all(abs(a.x - mx) + abs(a.y - my) == 1 for a in s.agents)
                      for (mx, my) in s.landmarks)
            for i in range(len(s.agents)):
                assert out.rewards[i] - float(met) == \
                    pytest.approx(meetup_reward(before, s, i))


class TestColorGather:
    def _facing_coin_state(self, color="red"):
        s = blank_state("colorgather", 6, agent_count=2)
        put(s, 3, 2, "coin", color)
        put(s, 4, 4, "coin", "blue")
        put(s, 5, 5, "coin", color)
        s.coin_tally = {"red": 0, "blue": 0}
        add_agent(s, 2, 2, direction=1)
        add_agent(s, 5, 2, direction=0)
        return s

    def test_first_coin_rewards_everyone(self):
        s = self._facing_coin_state()
        s, out, _ = step(s, [PICKUP, NOOP])
        assert np.array_equal(out.rewards, [1.0, 1.0])

    def test_modal_oracle_function(self):
        assert colorgather_reward("red", {}) == 1.0
        assert colorgather_reward("blue", {"red": 2, "blue": 1}) == 0.0
        assert colorgather_reward("red", {"red": 2, "blue": 1}) == 1.0
        assert colorgather_reward("blue", {"red": 1, "blue": 1}) == 1.0

    def test_non_modal_coin_rewards_zero(self):
        s = self._facing_coin_state(color="blue")
        s.coin_tally = {"red": 2, "blue": 1}
        s, out, _ = step(s, [PICKUP, NOOP])
        assert np.array_equal(out.rewards, [0.0, 0.0])
        assert s.coin_tally == {"red": 2, "blue": 2}

    def test_respawn_preserves_color_counts(self):
        s = self._facing_coin_state()
        before = _coin_counts(s)
        s, out, _ = step(s, [PICKUP, NOOP])
        assert _coin_counts(s) == before

    def test_coin_count_conserved_over_random_play(self):
        s, _ = reset("colorgather", "default", seed=13)
        total = int((s.cells[:, :, 0] == OBJ["coin"]).sum())
        arng = np.random.default_rng(14)
        for _ in range(300):
            if s.done:
                s, _ = reset("colorgather", "default", seed=15)
            actions = arng.integers(0, 7, size=len(s.agents))
            s, _, _ = step(s, actions)
            assert int((s.cells[:, :, 0] == OBJ["coin"]).sum()) == total


class TestStagHunt:
    def test_berry_rewards_collector_only(self):
        s = blank_state("staghunt", 5, agent_count=2)
        put(s, 3, 2, "berry", "green")
        add_agent(s, 2, 2, direction=1)
        add_agent(s, 4, 4)
        s, out, _ = step(s, [PICKUP, NOOP])
        assert np.array_equal(out.rewards, [1.0, 0.0])
        assert int((s.cells[:, :, 0] == OBJ["berry"]).sum()) == 0

    def test_lone_hunter_fails(self):
        s = blank_state("staghunt", 5, agent_count=2)
        put(s, 3, 2, "stag", "grey")
        s.movers = [(3, 2)]
        add_agent(s, 2, 2, direction=1)
        add_agent(s, 5, 5)
        s, out, _ = step(s, [PICKUP, NOOP])
        assert np.array_equal(out.rewards, [0.0, 0.0])
        assert int((s.cells[:, :, 0] == OBJ["stag"]).sum()) == 1

    def test_capture_pays_both(self):
        s = blank_state("staghunt", 5, agent_count=2)
        put(s, 3, 2, "stag", "grey")
        s.movers = [(3, 2)]
        add_agent(s, 2, 2, direction=1)
        add_agent(s, 3, 3, direction=0)  # adjacent to the stag cell
        s, out, _ = step(s, [PICKUP, NOOP])
        assert np.array_equal(out.rewards, [5.0, 5.0])
        assert int((s.cells[:, :, 0] == OBJ["stag"]).sum()) == 0
        assert s.movers == []

    def test_stags_move_and_berries_nonincreasing(self):
        s, _ = reset("staghunt", "default", seed=17)
        initial = {tuple(m) for m in s.movers}
        berries = int((s.cells[:, :, 0] == OBJ["berry"]).sum())
        moved = False
        arng = np.random.default_rng(18)
        for _ in range(40):
            if s.done:
                break
            s, _, _ = step(s, arng.integers(0, 7, size=2))
            now = int((s.cells[:, :, 0] == OBJ["berry"]).sum())
            assert now <= berries
            berries = now
            if {tuple(m) for m in s.movers} != initial:
                moved = True
        assert moved

    def test_stags_sit_on_grid_cells(self):
        s, _ = reset("staghunt", "default", seed=19)
        arng = np.random.default_rng(20)
        for _ in range(30):
            if s.done:
                break
            s, _, _ = step(s, arng.integers(0, 7, size=2))
            for (x, y) in s.movers:
                assert s.cells[y, x, 0] == OBJ["stag"]
                assert all(a.pos != (x, y) for a in s.agents)


class TestTaskList:
    def _course(self):
        # 6x6 interior; dividing wall at x=4 with a locked door at y=2
        s = blank_state("tasklist", 6, agent_count=1)
        for y in range(1, 7):
            put(s, 4, y, "wall")
        put(s, 4, 2, "door", "yellow", "door-locked")
        put(s, 2, 2, "key", "yellow")
        put(s, 5, 2, "ball", "blue")
        put(s, 6, 2, "box", "grey")
        put(s, 5, 4, "goal", "green")
        add_agent(s, 1, 2, direction=1)
        return s

    def test_toggle_door_without_key_no_change(self):
        s = blank_state("tasklist", 5, agent_count=1)
        put(s, 3, 2, "door", "yellow", "door-locked")
        add_agent(s, 2, 2, direction=1)
        cells = s.cells.copy()
        s, out, _ = step(s, [TOGGLE])
        assert np.array_equal(s.cells, cells)
        assert out.rewards[0] == 0.0

    def test_full_ordered_completion_scores_six(self):
        s = self._course()
        script = [PICKUP, FORWARD, FORWARD, TOGGLE, TURN_LEFT, DROP,
                  TURN_RIGHT, FORWARD, FORWARD, PICKUP, FORWARD, TOGGLE,
                  TURN_LEFT, DROP, TURN_RIGHT, TURN_RIGHT, FORWARD, FORWARD]
        total = 0.0
        for act in script:
            s, out, _ = step(s, [act])
            total += out.rewards[0]
        assert total == 6.0
        assert s.done
        assert s.agents[0].finished
        assert s.agents[0].task_index == 6

    def test_out_of_order_box_toggle_no_advance(self):
        s = self._course()
        # teleport the agent next to the box with nothing done yet
        s.agents[0].x, s.agents[0].y, s.agents[0].direction = 5, 2, 1
        put(s, 5, 2, "empty")  # clear the ball spot we now stand on
        s, out, _ = step(s, [TOGGLE])
        assert s.agents[0].task_index == 0
        assert out.rewards[0] == 0.0

    def test_door_reopens_and_closes_with_key(self):
        s = blank_state("tasklist", 5, agent_count=1)
        put(s, 3, 2, "door", "yellow", "door-locked")
        add_agent(s, 2, 2, direction=1,
                  carry=(OBJ["key"], COL["yellow"]), task_index=1)
        s, out, _ = step(s, [TOGGLE])
        assert s.cells[2, 3, 2] == ST["door-open"]
        assert out.rewards[0] == 1.0  # open_door was this agent's subtask
        s, out, _ = step(s, [TOGGLE])
        assert s.cells[2, 3, 2] == ST["door-closed"]
        s, out, _ = step(s, [TOGGLE])
        assert s.cells[2, 3, 2] == ST["door-open"]
        assert out.rewards[1 - 1] == 0.0  # reopening is not a new subtask

    def test_indices_are_per_agent(self):
        s = blank_state("tasklist", 5, agent_count=2)
        put(s, 3, 2, "door", "yellow", "door-locked")
        add_agent(s, 2, 2, direction=1,
                  carry=(OBJ["key"], COL["yellow"]), task_index=1)
        add_agent(s, 1, 4, direction=0)
        s, out, _ = step(s, [TOGGLE, NOOP])
        assert s.agents[0].task_index == 2
        assert s.agents[1].task_index == 0
        assert out.rewards[1] == 0.0

    def test_pickup_requires_empty_hands(self):
        s = blank_state("tasklist", 5, agent_count=1)
        put(s, 3, 2, "ball", "blue")
        add_agent(s, 2, 2, direction=1, carry=(OBJ["key"], COL["yellow"]))
        s, _, _ = step(s, [PICKUP])
        assert s.cells[2, 3, 0] == OBJ["ball"]
        assert s.agents[0].carry == (OBJ["key"], COL["yellow"])

    def test_reduced_course_scores_three(self):
        s = blank_state("tasklist", 6, agent_count=1, tasklist_subtasks=3)
        for y in range(1, 7):
            put(s, 4, y, "wall")
        put(s, 4, 2, "door", "yellow", "door-locked")
        put(s, 2, 2, "key", "yellow")
        put(s, 5, 2, "goal", "green")
        add_agent(s, 1, 2, direction=1)
        script = [PICKUP, FORWARD, FORWARD, TOGGLE, FORWARD, FORWARD]
        total = 0.0
        for act in script:
            s, out, _ = step(s, [act])
            total += out.rewards[0]
        assert total == 3.0
        assert s.done

    def test_non_learning_agent_does_not_gate_done(self):
        s = blank_state("tasklist", 6, agent_count=2, tasklist_subtasks=3,
                        non_learning=(1,))
        for y in range(1, 7):
            put(s, 4, y, "wall")
        put(s, 4, 2, "door", "yellow", "door-locked")
        put(s, 2, 2, "key", "yellow")
        put(s, 5, 2, "goal", "green")
        add_agent(s, 1, 2, direction=1)
        add_agent(s, 1, 5, direction=0)
        script = [PICKUP, FORWARD, FORWARD, TOGGLE, FORWARD, FORWARD]
        for act in script:
            s, out, _ = step(s, [act, NOOP])
        assert s.done
        assert not s.agents[1].finished


class TestDespawn:
    """A finished TaskList agent leaves the grid: invisible, non-blocking,
    and whatever it carried is set down for the others."""

    def _relay_course(self):
        # reduced subtasks; one key and one door shared by two learners
        s = blank_state("tasklist", 6, agent_count=2, tasklist_subtasks=3)
        for y in range(1, 7):
            put(s, 4, y, "wall")
        put(s, 4, 2, "door", "yellow", "door-locked")
        put(s, 2, 2, "key", "yellow")
        put(s, 5, 2, "goal", "green")
        add_agent(s, 1, 2, direction=1)
        add_agent(s, 1, 4, direction=1)
        return s

    def _finish_first(self, s):
        for act in [PICKUP, FORWARD, FORWARD, TOGGLE, FORWARD, FORWARD]:
            s, out, _ = step(s, [act, NOOP])
        return s

    def test_finisher_sheds_carried_key_nearby(self):
        s = self._finish_first(self._relay_course())
        assert s.agents[0].finished
        assert s.agents[0].carry is None
        # first empty unoccupied neighbor of the goal cell, scanned N/E/S/W
        assert tuple(s.cells[1, 5]) == (OBJ["key"], COL["yellow"], 0)
        assert not s.done

    def test_finished_agent_not_in_observations(self):
        s = self._finish_first(self._relay_course())
        grid, _ = encode_observation(s, 1)
        assert int((grid[:, :, 0] == OBJ["agent"]).sum()) == 1
        assert grid[4, 1, 0] == OBJ["agent"]        # the live agent at (1,4)
        assert grid[2, 5, 0] == OBJ["goal"]         # not the finished one

    def test_finished_agent_ignores_actions_and_earns_nothing(self):
        s = self._finish_first(self._relay_course())
        pos = s.agents[0].pos
        for act in [FORWARD, TOGGLE, PICKUP]:
            s, out, _ = step(s, [act, NOOP])
            assert out.rewards[0] == 0.0
        assert s.agents[0].pos == pos
        assert s.agents[0].task_index == 3

    def test_second_agent_relays_key_through_vacated_goal(self):
        s = self._finish_first(self._relay_course())
        script = [FORWARD, FORWARD, TURN_LEFT, FORWARD, FORWARD, TURN_RIGHT,
                  FORWARD, FORWARD, TURN_LEFT, PICKUP, TURN_LEFT, TOGGLE,
                  TOGGLE]
        total = 0.0
        for k, act in enumerate(script):
            s, out, _ = step(s, [NOOP, act])
            total += out.rewards[1]
            if k == 7:
                # walked onto the goal cell the finisher would have blocked
                assert s.agents[1].pos == (5, 2)
        assert total == 3.0
        assert s.done
        assert s.agents[1].finished

    def test_shed_falls_back_row_major_when_neighbors_full(self):
        s = blank_state("tasklist", 4, agent_count=1, tasklist_subtasks=3)
        put(s, 2, 2, "goal", "green")
        for x, y in ((2, 1), (3, 2), (2, 3), (1, 2)):
            put(s, x, y, "wall")
        add_agent(s, 2, 2, direction=0,
                  carry=(OBJ["key"], COL["yellow"]), task_index=2)
        s, out, _ = step(s, [NOOP])
        assert s.agents[0].finished
        assert tuple(s.cells[1, 1]) == (OBJ["key"], COL["yellow"], 0)


class TestObservations:
    def test_empty_cell_triple(self):
        s = blank_state("meetup", 4, agent_count=1)
        add_agent(s, 1, 1)
        grid, _ = encode_observation(s, 0)
        assert tuple(grid[2, 2]) == (0, 0, 0)

    def test_own_cell_shows_agent_with_color(self):
        s = blank_state("meetup", 4, agent_count=2)
        add_agent(s, 1, 1)
        add_agent(s, 2, 2)
        grid, p = encode_observation(s, 1)
        assert tuple(grid[2, 2]) == (OBJ["agent"], 2, 0)  # second agent: green
        assert tuple(grid[1, 1]) == (OBJ["agent"], 1, 0)  # first agent: red
        assert p == (2, 2, 0)

    def test_same_grid_different_p(self):
        s, _ = reset("colorgather", "default", seed=23)
        g0, p0 = encode_observation(s, 0)
        g1, p1 = encode_observation(s, 1)
        assert np.array_equal(g0, g1)
        assert p0 != p1

    def test_carried_object_not_on_grid(self):
        s = blank_state("tasklist", 5, agent_count=1)
        put(s, 3, 2, "key", "yellow")
        add_agent(s, 2, 2, direction=1)
        s, _, obs = step(s, [PICKUP])
        grid, _ = obs[0]
        assert int((grid[:, :, 0] == OBJ["key"]).sum()) == 0

    def test_dtype_and_shape(self):
        s, obs = reset("staghunt", "default", seed=25)
        grid, p = obs[0]
        assert grid.dtype == np.int64
        assert grid.shape == (s.height, s.width, 3)
        assert len(p) == 3


class TestStepContract:
    def test_done_state_refuses_steps(self):
        s = blank_state("meetup", 5, agent_count=3)
        put(s, 3, 3, "landmark", "red")
        add_agent(s, 2, 3)
        add_agent(s, 4, 3)
        add_agent(s, 3, 2)
        s, out, _ = step(s, [NOOP] * 3)
        assert out.done
        with pytest.raises(RuntimeError):
            step(s, [NOOP] * 3)

    def test_wrong_action_count_rejected(self):
        s, _ = reset("meetup", "default", seed=33)
        with pytest.raises(ValueError):
            step(s, [NOOP])

    def test_episode_cap_ends_episode(self):
        cfg = make_config("colorgather", episode_cap=5)
        s, _ = reset("colorgather", "default", seed=35, config=cfg)
        for i in range(5):
            s, out, _ = step(s, [NOOP] * len(s.agents))
        assert out.done

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
        s, _ = reset(kind, seed=finished, config=cfg)
        total = np.zeros(len(s.agents))
        for _ in range(3000):
            if s.done:
                finished += 1
                s, _ = reset(kind, seed=finished, config=cfg)
            s, out, _ = step(s, arng.integers(0, 7, size=len(s.agents)))
            total += out.rewards
        assert total.tolist() == returns
        assert finished == episodes

    def test_agents_never_overlap_anything(self):
        for kind in ("meetup", "colorgather", "staghunt"):
            s, _ = reset(kind, "cluttered" if kind != "tasklist" else "default",
                         seed=39)
            arng = np.random.default_rng(40)
            for _ in range(50):
                if s.done:
                    break
                s, _, _ = step(s, arng.integers(0, 7, size=len(s.agents)))
                poses = [a.pos for a in s.agents]
                assert len(set(poses)) == len(poses)
                for (x, y) in poses:
                    assert s.cells[y, x, 0] in (OBJ["empty"], OBJ["goal"]) or (
                        s.cells[y, x, 0] == OBJ["door"]
                        and s.cells[y, x, 2] == ST["door-open"])


class TestEpisodeInvariants:
    @pytest.mark.parametrize("variant", ["default", "cluttered",
                                         "single_target", "multi_target"])
    def test_meetup_landmarks_stay_put_over_full_episodes(self, variant):
        def scan(s):
            ys, xs = np.nonzero(s.cells[:, :, 0] == OBJ["landmark"])
            return sorted(zip(xs.tolist(), ys.tolist()),
                          key=lambda c: (c[1], c[0]))

        for seed in range(3):
            s, _ = reset("meetup", variant, seed=seed)
            found = scan(s)
            assert list(s.landmarks) == found
            assert len(found) == s.config.landmarks
            arng = np.random.default_rng(100 + seed)
            while not s.done:
                s, _, _ = step(s, arng.integers(0, 7, size=len(s.agents)))
                assert scan(s) == found
                assert list(s.landmarks) == found

    @pytest.mark.parametrize("kind", ["meetup", "colorgather", "staghunt",
                                      "tasklist"])
    def test_agents_share_one_read_only_grid(self, kind):
        s, obs = reset(kind, "default", seed=42)
        arng = np.random.default_rng(43)
        for _ in range(30):
            for i, (grid, pose) in enumerate(obs):
                assert grid is obs[0][0]
                assert not grid.flags.writeable
                want_grid, want_pose = encode_observation(s, i)
                assert np.array_equal(grid, want_grid)
                assert pose == want_pose
            if s.done:
                break
            s, _, obs = step(s, arng.integers(0, 7, size=len(s.agents)))
