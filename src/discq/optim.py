"""Minimal adaptive-moment optimizer with decoupled weight decay."""

from __future__ import annotations

import math

import numpy as np


class AdamW:
    """Standard AdamW on a flat parameter vector.

    ``step`` returns the updated vector; an explicit ``lr`` overrides the
    stored one (used for schedules).
    """

    def __init__(self, n: int, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, x: np.ndarray, grad: np.ndarray, lr: float | None = None) -> np.ndarray:
        lr = self.lr if lr is None else lr
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad ** 2
        mhat = self.m / (1 - self.beta1 ** self.t)
        vhat = self.v / (1 - self.beta2 ** self.t)
        out = x - lr * mhat / (np.sqrt(vhat) + self.eps)
        if self.weight_decay:
            out = out - lr * self.weight_decay * x
        return out


def warmup_cosine_lr(peak: float, warmup: int, total: int, step: int) -> float:
    """Linear warmup to ``peak`` then cosine decay to 0 at ``total``.

    ``step`` is 1-based; with ``warmup == 0`` the schedule starts at peak.
    """
    if not 1 <= step <= total:
        raise ValueError(f"step {step} outside [1, {total}]")
    if warmup and step <= warmup:
        return peak * step / warmup
    frac = (step - warmup) / (total - warmup)
    return peak * 0.5 * (1.0 + math.cos(math.pi * frac))
