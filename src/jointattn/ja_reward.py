"""Shared attention-matching incentive.

Agents are paid (negatively) for disagreement between their head-mean
attention maps: r_ja is the negated double sum of a divergence over all
ordered agent pairs, so each unordered pair counts twice and every agent
receives the same scalar. The weight beta ramps linearly from 0 to its
maximum over the first part of training.

Metrics: ``jsd`` (default), ``kl``, and ``clipped_jsd``. The clipped variant
works on raw logit fields: logits below the threshold are sent to -inf
before normalization, for the bonus computation only; the maps used by the
policy are untouched. A field with no logit at or above the threshold keeps
the cells at its maximum instead.

``pairwise_divergence`` is the one implementation the program runs: every
ordered pair of K fields over E rows at once. The scalar ``kl_divergence``,
``jsd`` and ``clipped_jsd`` are its oracles, and ``joint_attention_reward``
is the kernel on a single row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRICS = ("jsd", "kl", "clipped_jsd")


@dataclass
class IncentiveConfig:
    metric: str = "jsd"
    clip_threshold: float = 0.0
    beta_max: float = 1e-2
    beta_rampup_steps: int = 200_000

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.beta_max < 0:
            raise ValueError(f"beta_max must be >= 0, got {self.beta_max}")
        if self.beta_rampup_steps < 1:
            raise ValueError(
                f"beta_rampup_steps must be >= 1, got {self.beta_rampup_steps}"
            )


def kl_divergence(p, q) -> float:
    """Sum of p * log(p/q), natural log, over matching probability fields.

    A cell with p = 0 adds 0 (0 * log 0 = 0); a cell with q = 0 < p makes the
    divergence +inf. Negative entries are rejected.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"field shapes differ: {p.shape} vs {q.shape}")
    p_min, q_min = p.min(), q.min()
    if p_min < 0.0 or q_min < 0.0:
        raise ValueError("kl_divergence needs non-negative fields")
    if p_min > 0.0 and q_min > 0.0:     # softmax fields: no zero to mask
        return float(np.sum(p * (np.log(p) - np.log(q))))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * (np.log(p) - np.log(q))
    return float(np.sum(np.where(p == 0.0, 0.0, terms)))


def jsd(p, q) -> float:
    """0.5*KL(p, m) + 0.5*KL(q, m) with m the pointwise mean; in [0, ln 2].
    Zero cells are allowed: m > 0 wherever p or q is."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = 0.5 * (p + q)
    return 0.5 * kl_divergence(p, m) + 0.5 * kl_divergence(q, m)


def clipped_jsd(p_logits, q_logits, threshold: float) -> float:
    """JSD of the two fields renormalized over logits >= threshold.

    Cells below the threshold get probability 0. Raises if either field has
    no surviving cell: ``pairwise_divergence`` defines that case, and this
    scalar form is its oracle where cells survive.
    """
    p_logits = np.asarray(p_logits, dtype=np.float64)
    q_logits = np.asarray(q_logits, dtype=np.float64)
    if p_logits.shape != q_logits.shape:
        raise ValueError(
            f"logit shapes differ: {p_logits.shape} vs {q_logits.shape}"
        )

    def renorm(logits):
        keep = logits >= threshold
        if not keep.any():
            raise ValueError(
                f"threshold {threshold} clips every logit; no field remains"
            )
        z = np.where(keep, logits, -np.inf)
        z = z - z.max()
        e = np.exp(z)
        return e / e.sum()

    return jsd(renorm(p_logits), renorm(q_logits))


def _clip_renormalize(logits: np.ndarray, threshold: float) -> np.ndarray:
    """Probability fields over the cells of each logit row at or above
    min(threshold, row max); the rest get 0."""
    top = logits.max(axis=-1, keepdims=True)
    z = np.where(logits >= np.minimum(threshold, top), logits, -np.inf)
    e = np.exp(z - top)
    return e / e.sum(axis=-1, keepdims=True)


def _cell_sums(p: np.ndarray, log_ratio: np.ndarray) -> np.ndarray:
    """Sum of p * log_ratio over the last axis, with 0 where p = 0."""
    return np.where(p == 0.0, 0.0, p * log_ratio).sum(axis=-1)


def pairwise_divergence(fields, metric: str,
                        clip_threshold: float = 0.0) -> np.ndarray:
    """Divergence summed over all ordered pairs of K fields, per row.

    ``fields`` is (K, E, P): E independent rows (environments, episodes or
    stored steps) of one field over P cells for each of K agents. For
    ``jsd`` and ``kl`` the fields are probabilities; for ``clipped_jsd``
    they are logits, each renormalized over its cells at or above the
    threshold before the JSD. Returns the (E,) sums over the K(K-1) ordered
    pairs (i, j), i != j, added j-outer, i-inner, each pair's term equal
    bit for bit to ``kl_divergence(f_i, f_j)``, ``jsd(f_i, f_j)`` or
    ``clipped_jsd(f_i, f_j, clip_threshold)`` on that row. The symmetric
    JSD terms are evaluated once per unordered pair and added at both
    ordered positions.

    A cell with p = 0 adds 0 (0 * log 0 = 0); a KL cell with q = 0 < p
    makes the pair's divergence +inf. A clipped field with no logit at or
    above the threshold keeps the cells at its maximum: survivors are the
    logits >= min(threshold, field max), the limit of the clipping rule as
    the threshold falls to the field's largest logit. So every clipped
    field has at least one survivor, and the result stays in
    [0, K(K-1) ln 2].
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    fields = np.asarray(fields, dtype=np.float64)
    if fields.ndim != 3 or fields.shape[0] == 0:
        raise ValueError(f"fields must be (K >= 1, E, P), got {fields.shape}")
    k = fields.shape[0]
    if metric == "clipped_jsd":
        fields = _clip_renormalize(fields, clip_threshold)
    elif fields.size and fields.min() < 0.0:
        raise ValueError("pairwise_divergence needs non-negative fields")
    i, j = np.array([(a, b) for b in range(k) for a in range(k) if a != b],
                    dtype=np.int64).reshape(-1, 2).T
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(fields)
        if metric == "kl":
            terms = _cell_sums(fields[i], logs[i] - logs[j])
        else:
            # the JSD term of (i, j) equals that of (j, i) bit for bit (its
            # mean and its last sum commute): each unordered pair (a, b)
            # once, gathered back to the ordered pairs
            a, b = np.triu_indices(k, 1)
            log_m = np.log(0.5 * (fields[a] + fields[b]))
            terms = (0.5 * _cell_sums(fields[a], logs[a] - log_m)
                     + 0.5 * _cell_sums(fields[b], logs[b] - log_m))
            slot = np.empty((k, k), dtype=np.int64)
            slot[a, b] = slot[b, a] = np.arange(a.size)
            terms = terms[slot[i, j]]
    # pair by pair, in the scalar double loop's order
    total = np.zeros(fields.shape[1])
    for row in terms:
        total += row
    return total


def joint_attention_reward(mean_maps, cfg: IncentiveConfig,
                           logit_maps=None) -> float:
    """Shared incentive of one step in one environment: minus the double
    sum of the divergence over all ordered agent pairs (each unordered pair
    counted twice); ``pairwise_divergence`` on a single row.

    ``mean_maps`` holds one head-mean probability field per agent. The
    clipped metric reads ``logit_maps`` instead, the per-agent head-mean
    logit fields stored during the rollout.
    """
    maps = [np.asarray(m, dtype=np.float64) for m in mean_maps]
    if len(maps) == 0:
        raise ValueError("joint_attention_reward needs at least one map")
    shape = maps[0].shape
    for m in maps[1:]:
        if m.shape != shape:
            raise ValueError(f"map shapes differ: {m.shape} vs {shape}")
    k = len(maps)
    if k == 1:
        return 0.0
    if cfg.metric == "clipped_jsd":
        if logit_maps is None:
            raise ValueError("clipped_jsd needs the stored logit fields")
        maps = [np.asarray(m, dtype=np.float64) for m in logit_maps]
        if len(maps) != k or any(m.shape != shape for m in maps):
            raise ValueError("one logit field per agent, shaped like the "
                             "maps, is required")
    fields = np.stack(maps).reshape(k, 1, -1)
    return -float(pairwise_divergence(fields, cfg.metric,
                                      cfg.clip_threshold)[0])


def beta_schedule(global_step: int, cfg: IncentiveConfig) -> float:
    """Linear ramp 0 -> beta_max over the first beta_rampup_steps steps."""
    if global_step < 0:
        raise ValueError(f"step must be >= 0, got {global_step}")
    frac = min(1.0, global_step / cfg.beta_rampup_steps)
    return cfg.beta_max * frac

