"""Minimal adaptive-moment optimizer with decoupled weight decay."""

from __future__ import annotations

import math

import numpy as np


class AdamW:
    """Standard AdamW on a flat parameter vector.

    ``step`` returns the updated vector, written into ``out`` if given (``x``
    itself updates in place); an explicit ``lr`` overrides the stored one
    (used for schedules).
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
        self._step, self._tmp = np.empty((2, n))

    def step(self, x: np.ndarray, grad: np.ndarray, lr: float | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
        lr = self.lr if lr is None else lr
        # m, v and the step update in buffers built once; every operation rounds
        # as in x - lr * mhat / (sqrt(vhat) + eps) - lr * wd * x
        self.t += 1
        step, tmp = self._step, self._tmp
        np.multiply(1 - self.beta1, grad, out=tmp)
        self.m *= self.beta1
        self.m += tmp
        np.multiply(grad, grad, out=tmp)
        tmp *= 1 - self.beta2
        self.v *= self.beta2
        self.v += tmp
        np.divide(self.m, 1 - self.beta1 ** self.t, out=step)
        step *= lr
        np.divide(self.v, 1 - self.beta2 ** self.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        step /= tmp
        if self.weight_decay:
            np.multiply(lr * self.weight_decay, x, out=tmp)  # before out overwrites x
        out = np.subtract(x, step, out=out)
        if self.weight_decay:
            out -= tmp
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
