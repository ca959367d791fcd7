"""Bias-corrected Adam over one flat parameter vector."""

from __future__ import annotations

import numpy as np


class AdamState:
    """Moment vectors ``m`` and ``v`` for ``size`` parameters, laid out as
    the flat vector they update and starting at zero, and the step counter."""

    def __init__(self, size: int, lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)


def adam_update(flat: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One Adam step on ``flat`` in place, from ``grad`` of its shape."""
    if grad.shape != flat.shape or state.m.shape != flat.shape:
        raise ValueError(f"adam_update: grad {grad.shape}, moments "
                         f"{state.m.shape}, params {flat.shape}")
    state.step += 1
    assert state.step < 2 ** 53, "step counter exceeded exact float range"
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * (grad * grad)
    flat -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
