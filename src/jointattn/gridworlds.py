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

Batches. An episode is one row of an ``EnvBatch``, which holds E
episodes of one kind, grid shape and agent count as arrays: ``cells``
(E, h, w, 3); ``x``, ``y``, ``direction``, ``finished``, ``task_index``
and ``learner`` (E, K); ``carry`` (E, K, 2), the carried (object, color)
or (0, 0); ``step_count``, ``cap``, ``done`` and ``subtask_count`` (E,);
``coin_tally`` (E, colors), the coins collected per color id; and the
meetup landmarks and the stags, each padded to (E, slots, 2) with a mask,
since one batch may mix their counts. The only per-row Python object is
the episode's generator. ``reset`` lays one episode out as a one-row
batch, ``EnvBatch.stack`` joins rows into a batch, and ``step`` runs over
a batch. Turns, the collision protocol, meetup's rewards, the step cap and
the done flags are array code over every row at once, and so is
``EnvBatch.grids``, which paints the agents over the cells. The rules that
draw from an episode's generator or touch an inventory (coin pickup and
respawn, berries, stags and stag moves, TaskList interactions, goal
arrivals and setting a carried object down) loop in Python over the (row,
agent) pairs that trigger them, agent by agent within a row: one agent's
pickup can change the cell the next one faces, and each episode must draw
from its generator in the order it would alone. Interactions loop only
over the rows where some acting agent faces a cell its action can change.
Meetup never enters these loops. The scalar oracles
(``consensus_landmark``, ``meetup_reward``) read one-row batches.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

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
# the course of each ``tasklist_subtasks`` count
_COURSES = {6: SUBTASKS, 3: ("pickup_key", "open_door", "reach_goal")}

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
        for name in ("agent_count", "episode_cap", "landmarks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 1 <= self.coin_colors <= len(_COIN_COLOR_POOL):
            raise ValueError(f"coin_colors must be in "
                             f"1..{len(_COIN_COLOR_POOL)}")
        for name in ("coins_per_color", "berries", "stags"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")


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


# ---------------------------------------------------------------------------
# layout


class LayoutError(ValueError):
    """A layout does not fit its grid: ``reset`` found no free cell for
    an object or agent."""


def _free_cells(cells: np.ndarray, xs, ys, cols=slice(None)) -> np.ndarray:
    """Row-major flat indices into ``cells`` of its empty cells in columns
    ``cols``, less those at the given agent positions (the border is wall,
    so never empty)."""
    free = np.zeros(cells.shape[:2], dtype=bool)
    free[:, cols] = cells[:, cols, 0] == _OBJ["empty"]
    free[np.asarray(ys, dtype=np.int64), np.asarray(xs, dtype=np.int64)] = False
    return np.flatnonzero(free)


def _draw_free_cell(cells: np.ndarray, xs, ys, rng, what: str,
                    cols=slice(None)) -> tuple:
    """(x, y) of one uniform draw from ``_free_cells``."""
    free = _free_cells(cells, xs, ys, cols)
    if not free.size:
        raise LayoutError(f"grid too small: no free cell for {what}")
    y, x = divmod(int(free[rng.integers(free.size)]), cells.shape[1])
    return x, y


def _place(b: EnvBatch, obj: str, color: str, n: int,
           cols=slice(None)) -> list:
    """Draw ``n`` cells of one-row batch ``b`` for ``obj``, in columns
    ``cols``; returns them."""
    placed = []
    for _ in range(n):
        x, y = _draw_free_cell(b.cells[0], [], [], b.rng[0],
                               f"{obj} in {b.kind}", cols)
        b.cells[0, y, x] = (_OBJ[obj], _COL[color], 0)
        placed.append((x, y))
    return placed


def _build_layout(b: EnvBatch, variant: str, cfg: EnvConfig) -> None:
    rng, size = b.rng[0], b.cells.shape[1]
    if b.kind == "meetup":
        marks = sorted(_place(b, "landmark", "red", cfg.landmarks),
                       key=lambda c: (c[1], c[0]))
        b.landmarks = np.array(marks, dtype=np.int64).reshape(1, -1, 2)
        b.landmark_mask = np.ones((1, len(marks)), dtype=bool)
    elif b.kind == "colorgather":
        if variant == "random_colors":
            n_colors = int(rng.integers(2, 5))
        else:
            n_colors = cfg.coin_colors
        for color in _COIN_COLOR_POOL[:n_colors]:
            if variant == "random_coins":
                count = int(rng.integers(1, 5))
            else:
                count = cfg.coins_per_color
            _place(b, "coin", color, count)
    elif b.kind == "staghunt":
        _place(b, "berry", "green", cfg.berries)
        stags = _place(b, "stag", "grey", cfg.stags)
        b.stags = np.array(stags, dtype=np.int64).reshape(1, -1, 2)
        b.stag_mask = np.ones((1, len(stags)), dtype=bool)
    elif b.kind == "tasklist":
        wall_x = size // 2
        b.cells[0, 1:-1, wall_x] = (_OBJ["wall"], 0, 0)
        door_y = int(rng.integers(1, size - 1))
        b.cells[0, door_y, wall_x] = (_OBJ["door"], _COL["yellow"],
                                      _ST["door-locked"])
        right = slice(wall_x + 1, None)
        _place(b, "key", "yellow", 1, cols=slice(None, wall_x))
        if cfg.tasklist_subtasks == 6:
            _place(b, "ball", "blue", 1, cols=right)
            _place(b, "box", "grey", 1, cols=right)
        _place(b, "goal", "green", 1, cols=right)

    if variant == "cluttered":
        n_walls = int(round(0.10 * _free_cells(b.cells[0], [], []).size))
        _place(b, "wall", "none", n_walls)


def reset(kind: str, variant: str = "default", seed: int = 0,
          config: EnvConfig | None = None) -> EnvBatch:
    """Lay out a fresh seeded episode as a one-row ``EnvBatch``: the layout
    first, then each agent's cell and direction, all drawn from the row's
    generator, seeded with ``seed``."""
    cfg = config if config is not None else make_config(kind, variant)
    if kind not in ENV_KINDS:
        raise ValueError(f"unknown environment {kind!r}")
    if variant not in VARIANTS or kind not in VARIANTS[variant]:
        raise ValueError(f"variant {variant!r} does not apply to {kind!r}")
    b = EnvBatch(kind, cfg, seed)
    _build_layout(b, variant, cfg)
    size = b.cells.shape[1]
    # TaskList agents start left of the wall
    cols = slice(None, size // 2) if kind == "tasklist" else slice(None)
    for i in range(cfg.agent_count):
        b.x[0, i], b.y[0, i] = _draw_free_cell(
            b.cells[0], b.x[0, :i], b.y[0, :i], b.rng[0],
            f"agent {i} in {kind}", cols)
        b.direction[0, i] = b.rng[0].integers(4)
    return b


# ---------------------------------------------------------------------------
# batches


class EnvBatch:
    """E episodes of one kind, grid shape and agent count as arrays, stepped
    together by ``step`` (the module docstring lists the fields).

    ``EnvBatch(kind, config, seed)`` is one row: ``config``'s bordered grid
    with nothing inside, no landmarks or stags, its agents at (0, 0) facing
    north, and a generator seeded with ``seed``; ``reset`` lays an episode
    out on it. ``EnvBatch.stack`` joins batches into one, and ``put`` and
    ``take`` replace and select rows. Arrays are never shared between
    batches; a row's generator is, and it moves with the row.
    """

    # per-row arrays, the leading axis the row; the padded ones hold a
    # varying number of slots per row, zero and masked off past its own
    ARRAYS = ("cells", "x", "y", "direction", "finished", "task_index",
              "carry", "step_count", "cap", "done", "learner", "coin_tally",
              "subtask_count")
    PADDED = ("landmarks", "landmark_mask", "stags", "stag_mask")

    def __init__(self, kind: str, config: EnvConfig, seed: int = 0):
        K, size = config.agent_count, config.interior + 2
        self.kind = kind
        self.cells = np.zeros((1, size, size, 3), dtype=np.int64)
        self.cells[0, [0, -1], :, 0] = _OBJ["wall"]
        self.cells[0, :, [0, -1], 0] = _OBJ["wall"]
        self.x, self.y, self.direction, self.task_index = (
            np.zeros((1, K), dtype=np.int64) for _ in range(4))
        self.finished = np.zeros((1, K), dtype=bool)
        self.carry = np.zeros((1, K, 2), dtype=np.int64)
        self.step_count = np.zeros(1, dtype=np.int64)
        self.cap = np.array([config.episode_cap], dtype=np.int64)
        self.done = np.zeros(1, dtype=bool)
        self.learner = np.array([[i not in config.non_learning
                                  for i in range(K)]], dtype=bool)
        # coins collected this episode, per color id
        self.coin_tally = np.zeros((1, len(COLOR_IDS)), dtype=np.int64)
        self.subtask_count = np.array([config.tasklist_subtasks],
                                      dtype=np.int64)
        # meetup landmarks in row-major order; stags in the order drawn
        self.landmarks, self.stags = (np.zeros((1, 0, 2), dtype=np.int64)
                                      for _ in range(2))
        self.landmark_mask, self.stag_mask = (np.zeros((1, 0), dtype=bool)
                                              for _ in range(2))
        self.rng = [np.random.default_rng(seed)]

    @staticmethod
    def stack(batches) -> "EnvBatch":
        """One batch of every row of ``batches``, in order."""
        batches = list(batches)
        if not batches:
            raise ValueError("a batch needs at least one episode")
        first = batches[0]
        if any(b.kind != first.kind or b.cells.shape[1:] != first.cells
               .shape[1:] or b.x.shape[1] != first.x.shape[1]
               for b in batches):
            raise ValueError("the episodes of a batch must share the kind, "
                             "the grid shape and the agent count")
        out = copy.copy(first)
        for name in EnvBatch.ARRAYS:
            setattr(out, name, np.concatenate([getattr(b, name)
                                               for b in batches]))
        for name in EnvBatch.PADDED:
            parts = [getattr(b, name) for b in batches]
            slots = np.zeros((len(out), max(p.shape[1] for p in parts))
                             + parts[0].shape[2:], dtype=parts[0].dtype)
            e = 0
            for p in parts:
                slots[e:e + len(p), :p.shape[1]] = p
                e += len(p)
            setattr(out, name, slots)
        out.rng = [r for b in batches for r in b.rng]
        return out

    def __len__(self) -> int:
        return len(self.done)

    def put(self, e: int, row: "EnvBatch") -> None:
        """Write row 0 of ``row`` into row e, in place of the episode there."""
        if row.kind != self.kind:
            raise ValueError(f"a {row.kind} episode cannot join a "
                             f"{self.kind} batch")
        for name in self.ARRAYS:
            getattr(self, name)[e] = getattr(row, name)[0]
        for name in self.PADDED:
            part = getattr(row, name)[0]
            getattr(self, name)[e] = 0
            getattr(self, name)[e, :len(part)] = part
        self.rng[e] = row.rng[0]

    def take(self, rows) -> "EnvBatch":
        """A new batch of the given rows (indices or a boolean mask)."""
        out = copy.copy(self)
        for name in self.ARRAYS + self.PADDED:
            setattr(out, name, getattr(self, name)[rows])
        out.rng = [self.rng[e] for e in np.arange(len(self))[rows].tolist()]
        return out

    def grids(self) -> np.ndarray:
        """Every row's observation grid, (E, h, w, 3) int64: the cells, with
        each agent still on the grid drawn over its own in its index color;
        carried objects are not visible."""
        grid = self.cells.copy()
        paint = _PAINT[np.arange(self.x.shape[1]) % len(_PAINT)]
        e, k = np.nonzero(~self.finished)
        grid[e, self.y[e, k], self.x[e, k]] = paint[k]
        return grid


# what agent k looks like in an observation grid: row k % 6
_PAINT = np.array([(_OBJ["agent"], 1 + k, 0) for k in range(6)],
                  dtype=np.int64)


# ---------------------------------------------------------------------------
# stepping

_DX = np.array([dx for dx, _ in DIR_VECTORS])
_DY = np.array([dy for _, dy in DIR_VECTORS])
# [object, state] -> an agent may stand there: empty and goal cells, open doors
_WALKABLE = np.zeros((len(OBJECT_IDS), len(STATE_IDS)), dtype=bool)
_WALKABLE[[_OBJ["empty"], _OBJ["goal"]]] = True
_WALKABLE[_OBJ["door"], _ST["door-open"]] = True
# [action, object] -> the action may change a faced cell holding that object
_ACTS_ON = np.zeros((len(ACTIONS), len(OBJECT_IDS)), dtype=bool)
_ACTS_ON[PICKUP, [_OBJ[o] for o in ("coin", "berry", "stag", "key",
                                    "ball")]] = True
_ACTS_ON[DROP, _OBJ["empty"]] = True
_ACTS_ON[TOGGLE, [_OBJ["door"], _OBJ["box"]]] = True


def _move(b: EnvBatch, actions: np.ndarray) -> None:
    """Turns plus simultaneous forward moves with the collision protocol:
    same-target movers all stay, swapping pairs stay, moving into an agent
    that stays means staying; chains and rotations are allowed. Finished
    agents have left the grid: they neither act nor block."""
    live = ~b.finished
    turn = (actions == TURN_RIGHT).astype(np.int64) - (actions == TURN_LEFT)
    b.direction = (b.direction + turn * live) % 4
    moving = live & (actions == FORWARD)
    if not moving.any():
        return
    # cells as flat row-major indices y * w + x
    w = b.cells.shape[2]
    here = b.y * w + b.x
    there = here + (_DY * w + _DX)[b.direction]
    target = b.cells.reshape(len(b), -1, 3)[np.arange(len(b))[:, None], there]
    moving &= _WALKABLE[target[..., 0], target[..., 2]]
    # (E, K, K): movers aiming at one cell all stay
    same = (there[:, :, None] == there[:, None, :]) & moving[:, None, :]
    moving &= same.sum(axis=2) == 1
    # into[e, i, j]: agent i aims at live agent j's cell; swapping pairs stay
    into = (there[:, :, None] == here[:, None, :]) & live[:, None, :]
    moving &= ~(into & into.transpose(0, 2, 1) & moving[:, None, :]).any(2)
    # refusing one move can stop the chain behind it: at most K rounds
    for _ in range(b.x.shape[1]):
        blocked = moving & (into & ~moving[:, None, :]).any(axis=2)
        if not blocked.any():
            break
        moving &= ~blocked
    b.y, b.x = np.divmod(np.where(moving, there, here), w)


def _advance_task(b: EnvBatch, e: int, i: int, subtask: str,
                  rewards: np.ndarray) -> None:
    """+1 to agent i of row e and on to its next subtask, if ``subtask`` is
    the one it is on; ``rewards`` is the row's."""
    n, subtasks = b.task_index[e, i], _COURSES[b.subtask_count[e]]
    if not b.finished[e, i] and n < len(subtasks) and subtasks[n] == subtask:
        b.task_index[e, i] += 1
        rewards[i] += 1.0


def colorgather_reward(tally: np.ndarray, color: int) -> float:
    """+1 (to every agent) for the first coin or a modal-color coin.

    ``tally`` counts, per color id, the coins collected so far this
    episode, not counting the coin of color id ``color`` now being
    collected; ties for the mode all count as modal, so the first coin
    does too.
    """
    return 1.0 if tally[color] == tally.max() else 0.0


def _interact(b: EnvBatch, e: int, i: int, act: int,
              rewards: np.ndarray) -> None:
    """Agent i of row e picks up, drops or toggles what it faces;
    ``rewards`` is the row's."""
    cells, live = b.cells[e], ~b.finished[e]
    d = b.direction[e, i]
    fx, fy = int(b.x[e, i] + _DX[d]), int(b.y[e, i] + _DY[d])
    obj, col, st = cells[fy, fx].tolist()
    carried = b.carry[e, i, 0]

    if act == PICKUP:
        if b.kind == "colorgather" and obj == _OBJ["coin"]:
            rewards += colorgather_reward(b.coin_tally[e], col)
            b.coin_tally[e, col] += 1
            cells[fy, fx] = 0
            x, y = _draw_free_cell(cells, b.x[e, live], b.y[e, live],
                                   b.rng[e], "coin in colorgather")
            cells[y, x] = (obj, col, 0)              # respawn, same color
        elif b.kind == "staghunt" and obj == _OBJ["berry"]:
            cells[fy, fx] = 0
            rewards[i] += 1.0
        elif b.kind == "staghunt" and obj == _OBJ["stag"]:
            # the hunter faces the stag, so it is one of the adjacent agents
            hunters = live & (np.abs(b.x[e] - fx) + np.abs(b.y[e] - fy) == 1)
            if hunters.sum() > 1:
                cells[fy, fx] = 0
                b.stag_mask[e] &= (b.stags[e] != (fx, fy)).any(axis=1)
                rewards[hunters] += 5.0
        elif b.kind == "tasklist" and obj in (_OBJ["key"], _OBJ["ball"]):
            if not carried:
                b.carry[e, i] = (obj, col)
                cells[fy, fx] = 0
                _advance_task(b, e, i, "pickup_key" if obj == _OBJ["key"]
                              else "pickup_ball", rewards)

    elif act == DROP:
        if carried and obj == _OBJ["empty"] \
                and not (live & (b.x[e] == fx) & (b.y[e] == fy)).any():
            cells[fy, fx] = (carried, b.carry[e, i, 1], 0)
            b.carry[e, i] = 0
            if carried == _OBJ["ball"]:
                _advance_task(b, e, i, "drop_ball", rewards)

    elif act == TOGGLE:
        if obj == _OBJ["door"]:
            if carried == _OBJ["key"]:
                new_state = (_ST["door-closed"]
                             if st == _ST["door-open"] else _ST["door-open"])
                cells[fy, fx, 2] = new_state
                if new_state == _ST["door-open"]:
                    _advance_task(b, e, i, "open_door", rewards)
        elif obj == _OBJ["box"]:
            _advance_task(b, e, i, "open_box", rewards)


def _move_stags(b: EnvBatch, e: int) -> None:
    """Each stag of row e, in slot order, moves with probability 0.5 to a
    uniformly drawn empty neighbor no agent stands on."""
    cells, rng = b.cells[e], b.rng[e]
    occupied = set(zip(b.x[e].tolist(), b.y[e].tolist()))
    for slot in np.flatnonzero(b.stag_mask[e]).tolist():
        if rng.random() >= 0.5:
            continue
        x, y = b.stags[e, slot].tolist()
        options = []
        for dx, dy in DIR_VECTORS:
            nx, ny = x + dx, y + dy
            if cells[ny, nx, 0] == _OBJ["empty"] and (nx, ny) not in occupied:
                options.append((nx, ny))
        if not options:
            continue
        nx, ny = options[int(rng.integers(len(options)))]
        cells[y, x] = 0
        cells[ny, nx] = (_OBJ["stag"], _COL["grey"], 0)
        b.stags[e, slot] = (nx, ny)


def consensus_landmark(b: EnvBatch) -> tuple:
    """The landmark of one-row batch ``b`` minimizing the summed Manhattan
    distance to all agents; ties go to the first in row-major order."""
    best, best_sum = None, None
    agents = list(zip(b.x[0].tolist(), b.y[0].tolist()))
    for (lx, ly) in b.landmarks[0, b.landmark_mask[0]].tolist():
        s = sum(abs(x - lx) + abs(y - ly) for x, y in agents)
        if best_sum is None or s < best_sum:
            best, best_sum = (lx, ly), s
    if best is None:
        raise ValueError("no landmark on the grid")
    return best


def meetup_reward(before: EnvBatch, after: EnvBatch,
                  agent_index: int) -> float:
    """Change in Manhattan distance to the consensus landmark of the
    pre-step state, one-row batch ``before``, when ``after`` is the same
    episode a step later: positive when the agent moved closer.

    Distances stay Manhattan in every variant, including cluttered grids
    where the walkable shortest path can be longer."""
    lx, ly = consensus_landmark(before)
    d_before = abs(int(before.x[0, agent_index]) - lx) \
        + abs(int(before.y[0, agent_index]) - ly)
    d_after = abs(int(after.x[0, agent_index]) - lx) \
        + abs(int(after.y[0, agent_index]) - ly)
    return float(d_before - d_after)


def _landmark_distances(b: EnvBatch) -> np.ndarray:
    """(E, K, L) Manhattan distance from each agent to each landmark slot."""
    return np.abs(b.x[:, :, None] - b.landmarks[:, None, :, 0]) \
        + np.abs(b.y[:, :, None] - b.landmarks[:, None, :, 1])


def _shed_carry(b: EnvBatch, e: int, i: int) -> None:
    """Leave finishing agent i's carried object on row e's grid: first
    empty, unoccupied neighbor of its cell (N/E/S/W order), else the first
    free cell row-major."""
    obj, col = b.carry[e, i].tolist()
    if not obj:
        return
    cells, live = b.cells[e], ~b.finished[e]
    occupied = set(zip(b.x[e, live].tolist(), b.y[e, live].tolist()))
    x, y = int(b.x[e, i]), int(b.y[e, i])
    spots = [(x + dx, y + dy) for dx, dy in DIR_VECTORS
             if cells[y + dy, x + dx, 0] == _OBJ["empty"]
             and (x + dx, y + dy) not in occupied]
    if not spots:
        free = _free_cells(cells, b.x[e, live], b.y[e, live])
        if not free.size:
            raise RuntimeError("no free cell to leave a carried object on")
        y, x = divmod(int(free[0]), cells.shape[1])
        spots = [(x, y)]
    sx, sy = spots[0]
    cells[sy, sx] = (obj, col, 0)
    b.carry[e, i] = 0


def step(b: EnvBatch, actions) -> tuple:
    """Advance every row of ``b`` one step, given (E, K) actions; returns
    (rewards (E, K), done (E,)).

    The phases run in order: turns and moves, interactions, the kind's own
    phase (meetup's distance rewards, stag moves, or TaskList's goal
    arrivals), then the done checks. A row that is done must be replaced
    (``EnvBatch.put``) or dropped (``EnvBatch.take``) before the next step.
    Actions of the wrong shape or outside ``range(len(ACTIONS))`` raise
    ``ValueError`` before anything changes.
    """
    if b.done.any():
        raise RuntimeError("episode is done; reset before stepping again")
    actions = np.asarray(actions)
    E, K = b.x.shape
    if actions.shape != (E, K):
        raise ValueError(f"need {K} actions per episode, got "
                         f"{actions.shape[-1] if actions.ndim else 0}")
    bad = (actions < 0) | (actions >= len(ACTIONS))
    if bad.any():
        raise ValueError(f"actions must be in 0..{len(ACTIONS) - 1}, got "
                         f"{actions[bad].tolist()}")
    rows, cols = np.arange(E)[:, None], np.arange(K)
    meetup = b.kind == "meetup"
    if meetup:
        if not b.landmark_mask.any(axis=1).all():
            raise ValueError("no landmark on the grid")
        # the consensus landmark of the pre-step state; argmin keeps the
        # first of a tie, as the landmarks are in row-major order
        dist = _landmark_distances(b)
        total = np.where(b.landmark_mask, dist.sum(axis=1),
                         np.iinfo(np.int64).max)
        goal = total.argmin(axis=1)[:, None]
        before = dist[rows, cols, goal]

    _move(b, actions)
    rewards = np.zeros((E, K))
    done = np.zeros(E, dtype=bool)
    if meetup:
        dist = _landmark_distances(b)
        rewards += before - dist[rows, cols, goal]
        met = (b.landmark_mask & (dist == 1).all(axis=1)).any(axis=1)
        rewards[met] += 1.0
        done |= met
    else:
        acting = ~b.finished & (actions == PICKUP)
        if b.kind == "tasklist":
            acting |= ~b.finished & ((actions == DROP) | (actions == TOGGLE))
        # a row whose acting agents all face what their action cannot
        # change stays as it is; in any other row every acting agent
        # interacts, in agent order, since one pickup can respawn a coin in
        # front of the next agent
        fx, fy = b.x + _DX[b.direction], b.y + _DY[b.direction]
        faced = b.cells[rows, fy, fx, 0]
        changes = _ACTS_ON[np.where(acting, actions, NOOP), faced]
        acting &= changes.any(axis=1)[:, None]
        for e, i in zip(*np.nonzero(acting)):
            _interact(b, e, i, actions[e, i], rewards[e])
    if b.kind == "staghunt":
        for e in range(E):
            _move_stags(b, e)
    elif b.kind == "tasklist":
        # an agent that completes its final subtask leaves the grid: it stops
        # blocking movement, disappears from observations, and any carried
        # object is set down nearby so others can still use it
        last = b.subtask_count[:, None] - 1
        arrived = ~b.finished & (b.task_index == last) \
            & (b.cells[rows, b.y, b.x, 0] == _OBJ["goal"])
        for e, i in zip(*np.nonzero(arrived)):
            _advance_task(b, e, i, "reach_goal", rewards[e])
            b.finished[e, i] = True
            _shed_carry(b, e, i)
        done |= b.learner.any(axis=1) & (b.finished | ~b.learner).all(axis=1)

    b.step_count += 1
    done |= b.step_count >= b.cap
    b.done[:] = done
    return rewards, done
