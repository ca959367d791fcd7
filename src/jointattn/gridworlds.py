"""Cooperative grid environments: Meetup, ColorGather, StagHunt, TaskList.

All four share one engine: a bordered cell grid with a 3-channel integer
encoding per cell (object, color, state), agents with a facing direction and
a one-slot inventory, simultaneous moves with a deterministic collision
protocol, and seed-reproducible layouts. Interactions (pickup/drop/toggle)
are resolved in agent-index order after movement; dynamic stags move last.
``step`` returns what the trainer reads: one reward per agent and a done
flag.

Episode rules:
  meetup       every agent is rewarded each step by how much closer it moved
               to the landmark whose summed distance to all agents is
               smallest (Manhattan, computed on the pre-step state); when
               all agents stand 4-adjacent to one landmark everyone gets +1
               and the episode ends.
  colorgather  picking a coin rewards every agent +1 if it is the first coin
               of the episode or its color is (tied for) the most collected
               so far; the coin respawns in the same color at a random free
               cell, so the coin count is conserved.
  staghunt     a berry pickup pays +1 to the collector and the berry is
               gone; a pickup on a faced stag removes it and pays +5 to the
               collector and every other agent standing 4-adjacent to the
               stag's cell - a lone hunter gets nothing. Stags random-walk:
               each step, with probability 0.5, a stag moves to a uniformly
               random free neighbor.
  tasklist     each agent works through an ordered subtask list (+1 each):
               pick up the key, open the door (toggling the door does
               nothing unless the key is in hand), pick up the ball, toggle
               the box open, drop the ball, reach the goal. Out-of-order
               interactions never advance the index. The single key/ball
               set is shared: agents drop the key to free their hands, which
               lets the next agent use it. The episode ends when every
               learning agent has finished or the cap is hit.

Variants: cluttered (extra walls over 10% of the base layout's free cells,
for meetup/colorgather/staghunt), single_target / multi_target (1 or 5
meetup landmarks), random_coins / random_colors (per-episode coin counts in
[1,4] per color / color count in [2,4]), no_stag / all_stags (berries only /
stags only).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

OBJECT_IDS = {
    "empty": 0, "wall": 1, "landmark": 2, "coin": 3, "berry": 4, "stag": 5,
    "key": 6, "door": 7, "ball": 8, "box": 9, "goal": 10, "agent": 11,
}
COLOR_IDS = {
    "none": 0, "red": 1, "green": 2, "blue": 3, "yellow": 4, "purple": 5,
    "grey": 6,
}
STATE_IDS = {"default": 0, "door-closed": 1, "door-locked": 2, "door-open": 3}

ENCODING_VERSION = "enc-1"

ACTIONS = {
    "turn-left": 0, "turn-right": 1, "forward": 2, "pickup": 3, "drop": 4,
    "toggle": 5, "no-op": 6,
}
TURN_LEFT, TURN_RIGHT, FORWARD, PICKUP, DROP, TOGGLE, NOOP = range(7)

# N, E, S, W
DIR_VECTORS = ((0, -1), (1, 0), (0, 1), (-1, 0))

ENV_KINDS = ("meetup", "colorgather", "staghunt", "tasklist")
VARIANTS = {
    "default": ENV_KINDS,
    "cluttered": ("meetup", "colorgather", "staghunt"),
    "single_target": ("meetup",),
    "multi_target": ("meetup",),
    "random_coins": ("colorgather",),
    "random_colors": ("colorgather",),
    "no_stag": ("staghunt",),
    "all_stags": ("staghunt",),
}

SUBTASKS = ("pickup_key", "open_door", "pickup_ball", "open_box",
            "drop_ball", "reach_goal")

_COIN_COLOR_POOL = ("red", "blue", "yellow", "purple")

_OBJ = OBJECT_IDS
_COL = COLOR_IDS
_ST = STATE_IDS


@dataclass
class EnvConfig:
    """Knobs shared by every environment; per-kind defaults via make_config."""
    interior: int = 10
    agent_count: int = 3
    episode_cap: int = 100
    landmarks: int = 3
    coin_colors: int = 3
    coins_per_color: int = 3
    berries: int = 4
    stags: int = 2
    tasklist_subtasks: int = 6
    non_learning: tuple = ()

    def __post_init__(self):
        if self.tasklist_subtasks not in (3, 6):
            raise ValueError("tasklist_subtasks must be 3 or 6")
        if self.interior < 2:
            raise ValueError("interior size must be at least 2")


def make_config(kind: str, variant: str = "default", **overrides) -> EnvConfig:
    if kind not in ENV_KINDS:
        raise ValueError(f"unknown environment {kind!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if kind not in VARIANTS[variant]:
        raise ValueError(f"variant {variant!r} does not apply to {kind!r}")
    cfg = EnvConfig()
    if kind == "staghunt":
        cfg = replace(cfg, agent_count=2)
    elif kind == "tasklist":
        cfg = replace(cfg, interior=12, agent_count=1)
    if variant == "single_target":
        cfg = replace(cfg, landmarks=1)
    elif variant == "multi_target":
        cfg = replace(cfg, landmarks=5)
    elif variant == "no_stag":
        cfg = replace(cfg, stags=0)
    elif variant == "all_stags":
        cfg = replace(cfg, berries=0)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


@dataclass
class AgentState:
    x: int
    y: int
    direction: int
    carry: tuple | None = None          # (object_id, color_id)
    task_index: int = 0
    finished: bool = False

    @property
    def pos(self) -> tuple:
        return (self.x, self.y)


@dataclass
class StepOutcome:
    rewards: np.ndarray
    done: bool


@dataclass
class GridState:
    kind: str
    variant: str
    config: EnvConfig
    width: int                           # full extents including the border
    height: int
    cells: np.ndarray                    # (height, width, 3) int64
    agents: list
    movers: list = field(default_factory=list)   # stag positions (x, y)
    step_count: int = 0
    done: bool = False
    rng: np.random.Generator = None
    coin_tally: dict = field(default_factory=dict)
    subtasks: tuple = SUBTASKS
    # meetup landmark cells, row-major; ``reset`` finds them once, since no
    # meetup step changes a cell. None (a hand-built state) scans the cells.
    landmarks: tuple | None = None


# ---------------------------------------------------------------------------
# layout


def _free_cells(state: GridState) -> list:
    """Empty interior cells with no agent, in row-major order."""
    occupied = {a.pos for a in state.agents if not a.finished}
    out = []
    for y in range(1, state.height - 1):
        for x in range(1, state.width - 1):
            if state.cells[y, x, 0] == _OBJ["empty"] and (x, y) not in occupied:
                out.append((x, y))
    return out


def _draw_free_cell(state: GridState, what: str, region=None) -> tuple:
    """One uniform draw from the free cells that ``region`` accepts."""
    free = _free_cells(state)
    if region is not None:
        free = [c for c in free if region(c)]
    if not free:
        raise ValueError(f"grid too small: no free cell for {what} in "
                         f"{state.kind}")
    return free[int(state.rng.integers(len(free)))]


def _place(state: GridState, obj: str, color: str, n: int,
           region=None) -> list:
    placed = []
    for _ in range(n):
        x, y = _draw_free_cell(state, obj, region)
        state.cells[y, x] = (_OBJ[obj], _COL[color], 0)
        placed.append((x, y))
    return placed


def _build_layout(state: GridState) -> None:
    cfg = state.config
    if state.kind == "meetup":
        _place(state, "landmark", "red", cfg.landmarks)
    elif state.kind == "colorgather":
        if state.variant == "random_colors":
            n_colors = int(state.rng.integers(2, 5))
        else:
            n_colors = cfg.coin_colors
        colors = _COIN_COLOR_POOL[:n_colors]
        for color in colors:
            if state.variant == "random_coins":
                count = int(state.rng.integers(1, 5))
            else:
                count = cfg.coins_per_color
            _place(state, "coin", color, count)
        state.coin_tally = {c: 0 for c in colors}
    elif state.kind == "staghunt":
        _place(state, "berry", "green", cfg.berries)
        state.movers = _place(state, "stag", "grey", cfg.stags)
    elif state.kind == "tasklist":
        wall_x = state.width // 2
        for y in range(1, state.height - 1):
            state.cells[y, wall_x] = (_OBJ["wall"], 0, 0)
        door_y = int(state.rng.integers(1, state.height - 1))
        state.cells[door_y, wall_x] = (_OBJ["door"], _COL["yellow"],
                                       _ST["door-locked"])
        left = lambda c: c[0] < wall_x
        right = lambda c: c[0] > wall_x
        _place(state, "key", "yellow", 1, region=left)
        if cfg.tasklist_subtasks == 6:
            _place(state, "ball", "blue", 1, region=right)
            _place(state, "box", "grey", 1, region=right)
        _place(state, "goal", "green", 1, region=right)

    if state.variant == "cluttered":
        n_walls = int(round(0.10 * len(_free_cells(state))))
        _place(state, "wall", "none", n_walls)


def reset(kind: str, variant: str = "default", seed: int = 0,
          config: EnvConfig | None = None):
    """Build a fresh seeded episode; returns (GridState, observations),
    one ``encode_observation`` per agent, all sharing one read-only grid."""
    cfg = config if config is not None else make_config(kind, variant)
    if kind not in ENV_KINDS:
        raise ValueError(f"unknown environment {kind!r}")
    if variant not in VARIANTS or kind not in VARIANTS[variant]:
        raise ValueError(f"variant {variant!r} does not apply to {kind!r}")
    size = cfg.interior + 2
    cells = np.zeros((size, size, 3), dtype=np.int64)
    cells[0, :, 0] = _OBJ["wall"]
    cells[-1, :, 0] = _OBJ["wall"]
    cells[:, 0, 0] = _OBJ["wall"]
    cells[:, -1, 0] = _OBJ["wall"]
    state = GridState(
        kind=kind, variant=variant, config=cfg, width=size, height=size,
        cells=cells, agents=[], rng=np.random.default_rng(seed),
        subtasks=SUBTASKS if cfg.tasklist_subtasks == 6
        else ("pickup_key", "open_door", "reach_goal"),
    )
    _build_layout(state)
    region = (lambda c: c[0] < size // 2) if kind == "tasklist" else None
    for i in range(cfg.agent_count):
        x, y = _draw_free_cell(state, f"agent {i}", region)
        state.agents.append(AgentState(x, y, int(state.rng.integers(4))))
    if kind == "meetup":
        state.landmarks = _landmarks(state)
    return state, _observations(state)


# ---------------------------------------------------------------------------
# observations


def encode_observation(state: GridState, agent_index: int):
    """Fully observed (h, w, 3) integer grid plus p = (x, y, direction).

    Agents are drawn over their cells with object id ``agent`` and their
    index color; carried objects are not visible in the grid.
    """
    if not 0 <= agent_index < len(state.agents):
        raise IndexError(f"no agent {agent_index}")
    me = state.agents[agent_index]
    return _encode_grid(state), (me.x, me.y, me.direction)


def _encode_grid(state: GridState) -> np.ndarray:
    grid = state.cells.copy()
    for i, a in enumerate(state.agents):
        if a.finished:
            continue            # finished agents have left the grid
        grid[a.y, a.x] = (_OBJ["agent"], _agent_color(i), 0)
    return grid


def _observations(state: GridState) -> list:
    """Every agent's ``encode_observation``, with the grid encoded once."""
    grid = _encode_grid(state)
    grid.setflags(write=False)
    return [(grid, (a.x, a.y, a.direction)) for a in state.agents]


def _agent_color(index: int) -> int:
    return 1 + (index % 6)


# ---------------------------------------------------------------------------
# stepping


def _walkable(state: GridState, x: int, y: int) -> bool:
    obj, _, st = state.cells[y, x]
    if obj == _OBJ["empty"] or obj == _OBJ["goal"]:
        return True
    return obj == _OBJ["door"] and st == _ST["door-open"]


def _resolve_moves(state: GridState, actions) -> None:
    """Turns plus simultaneous forward moves with the collision protocol:
    same-target movers all stay, swapping pairs stay, moving into an agent
    that stays means staying; chains and rotations are allowed."""
    for a, act in zip(state.agents, actions):
        if a.finished:
            continue
        if act == TURN_LEFT:
            a.direction = (a.direction - 1) % 4
        elif act == TURN_RIGHT:
            a.direction = (a.direction + 1) % 4

    targets = {}
    for i, (a, act) in enumerate(zip(state.agents, actions)):
        if a.finished or act != FORWARD:
            continue
        dx, dy = DIR_VECTORS[a.direction]
        tx, ty = a.x + dx, a.y + dy
        if _walkable(state, tx, ty):
            targets[i] = (tx, ty)

    # same target -> all stay
    by_target = {}
    for i, t in targets.items():
        by_target.setdefault(t, []).append(i)
    for t, movers in by_target.items():
        if len(movers) > 1:
            for i in movers:
                targets.pop(i)
    # swaps -> both stay (finished agents have left the grid and block nothing)
    active = [i for i, a in enumerate(state.agents) if not a.finished]
    pos = {i: state.agents[i].pos for i in active}
    for i in list(targets):
        for j in list(targets):
            if i < j and targets.get(i) == pos[j] and targets.get(j) == pos[i]:
                targets.pop(i, None)
                targets.pop(j, None)
    # moving into a stationary agent -> stay (fixpoint over chains)
    changed = True
    while changed:
        changed = False
        stationary = {pos[i] for i in active if i not in targets}
        for i in list(targets):
            if targets[i] in stationary:
                targets.pop(i)
                changed = True

    for i, (tx, ty) in targets.items():
        state.agents[i].x = tx
        state.agents[i].y = ty


def _faced_cell(agent: AgentState) -> tuple:
    dx, dy = DIR_VECTORS[agent.direction]
    return agent.x + dx, agent.y + dy


def _adjacent_agents(state: GridState, x: int, y: int) -> list:
    out = []
    for i, a in enumerate(state.agents):
        if a.finished:
            continue
        if abs(a.x - x) + abs(a.y - y) == 1:
            out.append(i)
    return out


def _advance_task(state: GridState, rewards: np.ndarray, i: int,
                  subtask: str) -> None:
    """+1 to agent ``i`` and on to its next subtask, if ``subtask`` is the
    one it is on."""
    agent = state.agents[i]
    if not agent.finished and agent.task_index < len(state.subtasks) \
            and state.subtasks[agent.task_index] == subtask:
        agent.task_index += 1
        rewards[i] += 1.0


def colorgather_reward(color: str, tally: dict) -> float:
    """+1 (to every agent) for the first coin or a modal-color coin.

    The tally is the per-color count of coins collected so far this
    episode, not counting the coin now being collected; ties for the mode
    all count as modal.
    """
    total = sum(tally.values())
    if total == 0:
        return 1.0
    top = max(tally.values())
    return 1.0 if tally.get(color, 0) == top else 0.0


def _interact(state: GridState, actions, rewards: np.ndarray) -> None:
    for i, (agent, act) in enumerate(zip(state.agents, actions)):
        if agent.finished or act not in (PICKUP, DROP, TOGGLE):
            continue
        fx, fy = _faced_cell(agent)
        obj, col, st = (int(v) for v in state.cells[fy, fx])

        if act == PICKUP:
            if state.kind == "colorgather" and obj == _OBJ["coin"]:
                color = _color_name(col)
                rewards += colorgather_reward(color, state.coin_tally)
                state.coin_tally[color] = state.coin_tally.get(color, 0) + 1
                state.cells[fy, fx] = (0, 0, 0)
                _place(state, "coin", color, 1)         # respawn, same color
            elif state.kind == "staghunt" and obj == _OBJ["berry"]:
                state.cells[fy, fx] = (0, 0, 0)
                rewards[i] += 1.0
            elif state.kind == "staghunt" and obj == _OBJ["stag"]:
                helpers = [j for j in _adjacent_agents(state, fx, fy) if j != i]
                if helpers:
                    state.cells[fy, fx] = (0, 0, 0)
                    state.movers.remove((fx, fy))
                    rewards[[i] + helpers] += 5.0
            elif state.kind == "tasklist" and obj in (_OBJ["key"], _OBJ["ball"]):
                if agent.carry is None:
                    agent.carry = (obj, col)
                    state.cells[fy, fx] = (0, 0, 0)
                    _advance_task(state, rewards, i, "pickup_key"
                                  if obj == _OBJ["key"] else "pickup_ball")

        elif act == DROP:
            if state.kind == "tasklist" and agent.carry is not None \
                    and obj == _OBJ["empty"] \
                    and not any(a.pos == (fx, fy) for a in state.agents
                                if not a.finished):
                dropped_obj, dropped_col = agent.carry
                state.cells[fy, fx] = (dropped_obj, dropped_col, 0)
                agent.carry = None
                if dropped_obj == _OBJ["ball"]:
                    _advance_task(state, rewards, i, "drop_ball")

        elif act == TOGGLE:
            if state.kind == "tasklist" and obj == _OBJ["door"]:
                holds_key = agent.carry is not None \
                    and agent.carry[0] == _OBJ["key"]
                if holds_key:
                    new_state = (_ST["door-closed"]
                                 if st == _ST["door-open"] else _ST["door-open"])
                    state.cells[fy, fx, 2] = new_state
                    if new_state == _ST["door-open"]:
                        _advance_task(state, rewards, i, "open_door")
            elif state.kind == "tasklist" and obj == _OBJ["box"]:
                _advance_task(state, rewards, i, "open_box")


def _color_name(color_id: int) -> str:
    for name, cid in COLOR_IDS.items():
        if cid == color_id:
            return name
    raise ValueError(f"unknown color id {color_id}")


def _move_stags(state: GridState) -> None:
    occupied = {a.pos for a in state.agents}
    for idx in range(len(state.movers)):
        if state.rng.random() >= 0.5:
            continue
        x, y = state.movers[idx]
        options = []
        for dx, dy in DIR_VECTORS:
            nx, ny = x + dx, y + dy
            if state.cells[ny, nx, 0] == _OBJ["empty"] and (nx, ny) not in occupied:
                options.append((nx, ny))
        if not options:
            continue
        nx, ny = options[int(state.rng.integers(len(options)))]
        state.cells[y, x] = (0, 0, 0)
        state.cells[ny, nx] = (_OBJ["stag"], _COL["grey"], 0)
        state.movers[idx] = (nx, ny)


def _landmarks(state: GridState) -> tuple:
    """Landmark cells (x, y) in row-major order."""
    if state.landmarks is not None:
        return state.landmarks
    ys, xs = np.nonzero(state.cells[:, :, 0] == _OBJ["landmark"])
    return tuple(zip(xs.tolist(), ys.tolist()))


def consensus_landmark(state: GridState) -> tuple:
    """The landmark minimizing the summed Manhattan distance to all agents;
    ties go to the first in row-major order."""
    best, best_sum = None, None
    for (lx, ly) in _landmarks(state):
        s = sum(abs(a.x - lx) + abs(a.y - ly) for a in state.agents)
        if best_sum is None or s < best_sum:
            best, best_sum = (lx, ly), s
    if best is None:
        raise ValueError("no landmark on the grid")
    return best


def meetup_reward(state_before: GridState, state_after: GridState,
                  agent_index: int) -> float:
    """Change in Manhattan distance to the consensus landmark of the
    pre-step state: positive when the agent moved closer.

    Distances stay Manhattan in every variant, including cluttered grids
    where the walkable shortest path can be longer."""
    lx, ly = consensus_landmark(state_before)
    b = state_before.agents[agent_index]
    a = state_after.agents[agent_index]
    d_before = abs(b.x - lx) + abs(b.y - ly)
    d_after = abs(a.x - lx) + abs(a.y - ly)
    return float(d_before - d_after)


def _shed_carry(state: GridState, agent: AgentState) -> None:
    """Leave a finishing agent's carried object on the grid: first empty,
    unoccupied neighbor of its cell (N/E/S/W order), else the first free
    cell row-major."""
    if agent.carry is None:
        return
    obj, col = agent.carry
    occupied = {a.pos for a in state.agents if not a.finished}
    for dx, dy in DIR_VECTORS:
        nx, ny = agent.x + dx, agent.y + dy
        if state.cells[ny, nx, 0] == _OBJ["empty"] and (nx, ny) not in occupied:
            state.cells[ny, nx] = (obj, col, 0)
            agent.carry = None
            return
    free = _free_cells(state)
    if not free:
        raise RuntimeError("no free cell to leave a carried object on")
    x, y = free[0]
    state.cells[y, x] = (obj, col, 0)
    agent.carry = None


def step(state: GridState, joint_action):
    """Advance one step; returns (state, StepOutcome, observations), the
    outcome holding each agent's reward and the done flag, the observations
    as ``reset`` returns them.

    The phases run in order: turns and moves, interactions, the kind's own
    phase (meetup's distance rewards, stag moves, or TaskList's goal
    arrivals), then the done checks.
    """
    if state.done:
        raise RuntimeError("episode is done; reset before stepping again")
    actions = list(joint_action)
    n = len(state.agents)
    if len(actions) != n:
        raise ValueError(f"need {n} actions, got {len(actions)}")

    if state.kind == "meetup":
        lx, ly = consensus_landmark(state)
        before = [abs(a.x - lx) + abs(a.y - ly) for a in state.agents]

    _resolve_moves(state, actions)
    rewards = np.zeros(n)
    _interact(state, actions, rewards)

    done = False
    if state.kind == "meetup":
        rewards += [d - (abs(a.x - lx) + abs(a.y - ly))
                    for d, a in zip(before, state.agents)]
        if any(all(abs(a.x - mx) + abs(a.y - my) == 1 for a in state.agents)
               for (mx, my) in _landmarks(state)):
            rewards += 1.0
            done = True
    elif state.kind == "staghunt":
        _move_stags(state)
    elif state.kind == "tasklist":
        # an agent that completes its final subtask leaves the grid: it stops
        # blocking movement, disappears from observations, and any carried
        # object is set down nearby so others can still use it
        for i, agent in enumerate(state.agents):
            if not agent.finished \
                    and state.cells[agent.y, agent.x, 0] == _OBJ["goal"] \
                    and agent.task_index == len(state.subtasks) - 1:
                _advance_task(state, rewards, i, "reach_goal")
                agent.finished = True
                _shed_carry(state, agent)
        learners = [i for i in range(n) if i not in state.config.non_learning]
        done = bool(learners) and all(state.agents[i].finished
                                      for i in learners)

    state.step_count += 1
    if state.step_count >= state.config.episode_cap:
        done = True
    state.done = done

    return state, StepOutcome(rewards=rewards, done=done), _observations(state)
