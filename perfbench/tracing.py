"""Spans recorded from outside the program, around the public calls of each layer.

``instrument(tracer)`` swaps each traced function for a wrapper that records
one span (name, start, end, parent) per call and restores the originals on
exit. Functions are replaced where their callers look them up: the ops on the
``jointattn.numerics`` package, the ``AgentCore`` methods on the class, and the
names ``training`` and ``cli`` import from other modules in those modules'
own namespaces. So ``ja_reward.divergence`` counts the divergences
``evaluate`` asks for, not the ones inside ``joint_attention_reward``.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from jointattn import attention_net, cli, training
from jointattn import numerics as nm

FWD_OPS = ("dense", "conv2d", "lstm_step", "attention_scores",
           "attention_apply", "softmax", "log_softmax")
REPLAY_PARENT = "training.ppo_update"

# (owner, attribute, span name)
TRACED = (
    [(nm, op, f"numerics.fwd.{op}") for op in FWD_OPS]
    + [(nm, "backward", "numerics.backward"),
       (nm, "adam_update", "numerics.adam_update"),
       (attention_net.AgentCore, "agent_step", "attention_net.agent_step"),
       (attention_net.AgentCore, "encode_features",
        "attention_net.encode_features"),
       (attention_net.AgentCore, "query_from_state",
        "attention_net.query_from_state"),
       (attention_net.AgentCore, "compute_attention",
        "attention_net.compute_attention"),
       (training, "collect_rollouts", "training.collect_rollouts"),
       (training, "compute_advantages", "training.compute_advantages"),
       (training, "ppo_update", REPLAY_PARENT),
       (training, "evaluate", "training.evaluate"),
       (training, "joint_attention_reward", "ja_reward.joint_attention_reward"),
       (training, "jsd", "ja_reward.divergence"),
       (training, "kl_divergence", "ja_reward.divergence"),
       (training, "clipped_jsd", "ja_reward.divergence"),
       (training, "reset", "gridworlds.reset"),
       (training, "step", "gridworlds.step"),
       (cli, "read_checkpoint_config", "cli.read_checkpoint_config"),
       (cli, "load_checkpoint", "cli.load_checkpoint")]
)


class Tracer:
    """In-memory spans, one per wrapped call, in call order.

    Span i is (names[i], starts[i], ends[i], parents[i]); a parent of -1
    marks a span opened outside every other span. ``tape_nodes`` holds
    ``len(loss.tape)`` for each ``backward`` call.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tape_nodes: list[int] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        open_spans = self._open
        clock = time.perf_counter
        agent_step = name == "attention_net.agent_step"

        def traced(*args, **kwargs):
            i = len(names)
            span = name
            if agent_step:
                # under the tape when called from inside a PPO update
                replay = any(names[j] == REPLAY_PARENT for j in open_spans)
                span = name + (".replay" if replay else ".act")
            elif name == "numerics.backward":
                self.tape_nodes.append(len(args[0].tape))
            names.append(span)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_spans.pop()

        return traced

    def write_tsv(self, path: str) -> None:
        """One line per span: name, start, end (seconds), parent index."""
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\n")
            f.writelines(f"{n}\t{s:.9f}\t{e:.9f}\t{p}\n" for n, s, e, p in
                         zip(self.names, self.starts, self.ends, self.parents))


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, value); restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def instrument(tracer: Tracer):
    return patched([(owner, attr, tracer.wrap(name, getattr(owner, attr)))
                    for owner, attr, name in TRACED])


# span name -> the statistics reported for it: "s" is the spans' whole
# duration, "self_s" that minus what their direct children cover
REPORTED = {
    "training.collect_rollouts": ("s", "self_s"),
    "training.compute_advantages": ("s",),
    "training.ppo_update": ("s", "self_s"),
    "training.evaluate": ("s", "self_s"),
    "numerics.backward": ("s", "calls"),
    "numerics.adam_update": ("s",),
    **{f"numerics.fwd.{op}": ("calls", "s") for op in FWD_OPS},
    "attention_net.agent_step.act": ("calls", "s", "self_s"),
    "attention_net.agent_step.replay": ("calls", "s", "self_s"),
    "attention_net.encode_features": ("s",),
    "attention_net.query_from_state": ("s",),
    "attention_net.compute_attention": ("s",),
    "ja_reward.joint_attention_reward": ("calls", "s"),
    "ja_reward.divergence": ("calls", "s"),
    "gridworlds.step": ("calls", "s"),
    "gridworlds.reset": ("calls", "s"),
    "cli.read_checkpoint_config": ("s",),
    "cli.load_checkpoint": ("s",),
}


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """The ``REPORTED`` statistics, the tape size and the minibatch times,
    each divided by the number of traced units. A layer that never ran
    reports 0."""
    starts = np.asarray(tracer.starts)
    dur = np.asarray(tracer.ends) - starts
    parents = np.asarray(tracer.parents, dtype=np.int64)
    child = np.zeros(len(dur))
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    names = np.asarray(tracer.names, dtype=object)
    per_stat = {"s": dur, "self_s": dur - child, "calls": np.ones(len(dur))}

    out = {}
    for name, stats in REPORTED.items():
        mine = names == name
        for stat in stats:
            out[f"{name}.{stat}"] = float(per_stat[stat][mine].sum()) / units
    out["numerics.tape_nodes_per_minibatch"] = \
        float(np.mean(tracer.tape_nodes)) if tracer.tape_nodes else 0.0

    # a minibatch runs from the end of the previous Adam step (or the start
    # of the update) to the end of its own Adam step
    minibatch_ms = []
    adam = names == "numerics.adam_update"
    for u in np.flatnonzero(names == REPLAY_PARENT):
        mark = starts[u]
        for a in np.flatnonzero(adam & (parents == u)):
            minibatch_ms.append((tracer.ends[a] - mark) * 1e3)
            mark = tracer.ends[a]
    p50, p90 = np.percentile(minibatch_ms, (50, 90)) if minibatch_ms \
        else (0.0, 0.0)
    out["training.ppo_update.minibatch_ms_p50"] = float(p50)
    out["training.ppo_update.minibatch_ms_p90"] = float(p90)
    return out
