"""Hand-laid episodes for the environment oracles: a bordered, empty
one-row ``EnvBatch`` with the agents and objects a test places on it."""

import numpy as np

from jointattn.gridworlds import (
    COLOR_IDS,
    OBJECT_IDS,
    STATE_IDS,
    EnvBatch,
    make_config,
)


def put(b, x, y, obj, color=0, state=0):
    """Set cell (x, y) of row 0 of ``b``; each id given as a name or an id."""
    b.cells[0, y, x] = (OBJECT_IDS.get(obj, obj), COLOR_IDS.get(color, color),
                        STATE_IDS.get(state, state))


def lay_out(kind, interior, agents, objects=(), **overrides):
    """A one-row ``kind`` batch of a bordered ``interior``-square grid that
    holds only ``objects``, each (x, y, object[, color[, state]]) as ``put``
    takes it, and ``agents``, each (x, y[, direction]), facing north unless
    given. The landmark and stag cells are recorded in row-major order, as
    the batch's landmarks and stags. ``overrides`` go to ``make_config``;
    the agent count is the number of agents."""
    cfg = make_config(kind, interior=interior, agent_count=len(agents),
                      **overrides)
    b = EnvBatch(kind, cfg)
    for obj in objects:
        put(b, *obj)
    for i, (x, y, *direction) in enumerate(agents):
        b.x[0, i], b.y[0, i] = x, y
        b.direction[0, i] = direction[0] if direction else 0
    for name, mask, obj in (("landmarks", "landmark_mask", "landmark"),
                            ("stags", "stag_mask", "stag")):
        ys, xs = np.nonzero(b.cells[0, :, :, 0] == OBJECT_IDS[obj])
        setattr(b, name, np.stack([xs, ys], axis=1)[None])
        setattr(b, mask, np.ones((1, len(xs)), dtype=bool))
    return b
