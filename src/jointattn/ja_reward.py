"""Shared attention-matching incentive.

Agents are paid (negatively) for disagreement between their head-mean
attention maps: r_ja is the negated double sum of a divergence over all
ordered agent pairs, so each unordered pair counts twice and every agent
receives the same scalar. The weight beta ramps linearly from 0 to its
maximum over the first part of training.

Metrics: ``jsd`` (default), ``kl``, and ``clipped_jsd``. The clipped variant
works on raw logit fields: logits below the threshold are sent to -inf
before normalization, for the bonus computation only; the maps used by the
policy are untouched.
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
    no surviving cell (degenerate threshold).
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


def joint_attention_reward(mean_maps, cfg: IncentiveConfig,
                           logit_maps=None) -> float:
    """Shared per-step incentive: minus the double sum of the divergence
    over all ordered agent pairs (each unordered pair counted twice).

    ``mean_maps`` holds one head-mean probability field per agent. The
    clipped metric additionally needs ``logit_maps``, the per-agent
    head-mean logit fields stored during the rollout.
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
        logits = [np.asarray(m, dtype=np.float64) for m in logit_maps]
        if len(logits) != k:
            raise ValueError("one logit field per agent is required")

        def div(a, b):
            return clipped_jsd(logits[a], logits[b], cfg.clip_threshold)
    elif cfg.metric == "kl":
        def div(a, b):
            return kl_divergence(maps[a], maps[b])
    else:
        def div(a, b):
            return jsd(maps[a], maps[b])

    total = 0.0
    for j in range(k):
        for i in range(k):
            if i == j:
                continue
            total += div(i, j)
    return -total


def beta_schedule(global_step: int, cfg: IncentiveConfig) -> float:
    """Linear ramp 0 -> beta_max over the first beta_rampup_steps steps."""
    if global_step < 0:
        raise ValueError(f"step must be >= 0, got {global_step}")
    frac = min(1.0, global_step / cfg.beta_rampup_steps)
    return cfg.beta_max * frac


def combine_rewards(r_env, r_ja: float, beta: float) -> np.ndarray:
    """Per-agent totals r_env[k] + beta * r_ja; the bonus term is shared."""
    r_env = np.asarray(r_env, dtype=np.float64)
    return r_env + beta * r_ja
