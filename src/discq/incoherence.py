"""Randomized Hadamard Transform incoherence processing.

A weight matrix is conjugated by random orthogonal sign-flipped Hadamard
matrices before grid construction and rounding, and the rounding is
transported back afterwards.  The conjugation is exactly invertible (up to
float round-off) and norm-preserving, so the layer function is unchanged in
exact arithmetic; its point is to flatten outlier weights so symmetric
block-scaling grids waste less range.

Matrices whose sides are not powers of two are zero-padded up to the next
power; padded rows/columns are dropped again on the way back.  Block scales
are always recomputed on the transformed weights (the transform changes the
dynamic range, which is its entire purpose).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .serialize import child_seed
from .toymodel import ToyArch

Array = np.ndarray


def is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


def next_power_of_two(k: int) -> int:
    out = 1
    while out < k:
        out *= 2
    return out


_STAGED_MAX = 64  # longest stage matrix; a longer axis is split into blocks of this length


def fwht(a: Array, axis: int = -1) -> Array:
    """Unnormalized fast Walsh-Hadamard transform along ``axis``.

    The implied matrix is the Sylvester Hadamard matrix H_n, applied in
    log2(n) butterfly stages; stage ``half`` maps each pair (u, v) that sits
    ``half`` apart to (u + v, u - v).  Each stage is one matmul with a
    cached +-1/0 stage matrix whose rows hold two nonzeros, so each output is
    still one rounded add of two entries (the +-1 products and the added
    zeros are exact) and equals the butterfly's for finite inputs; only a
    -0.0 + -0.0 may come out +0.0, and a non-finite input spreads NaN through
    the zero products.  One dense H_n product would round differently.  An
    axis longer than ``_STAGED_MAX`` is viewed as (n / 64, 64): the stages
    ``half`` < 64 run on the inner factor, then a recursive call runs the
    rest along the block index, in the butterfly's own stage order.
    """
    a = np.asarray(a, dtype=np.float64)
    axis = range(a.ndim)[axis]
    n = a.shape[axis]
    if not is_power_of_two(n):
        raise ValueError(f"transform length {n} is not a power of two")
    if n == 1:
        return a.copy()
    before, after = math.prod(a.shape[:axis]), math.prod(a.shape[axis + 1:])
    inner = min(n, _STAGED_MAX)
    x = a.reshape(before * (n // inner), inner, after)
    if after == 1:
        x = x[:, :, 0]
        for stage in _stage_matrices(inner):
            x = x @ stage.T
    else:
        for stage in _stage_matrices(inner):
            x = stage @ x
    if n > inner:
        x = fwht(x.reshape(before, n // inner, inner * after), axis=1)
    return x.reshape(a.shape)


@functools.lru_cache(maxsize=None)
def _stage_matrices(n: int) -> tuple[Array, ...]:
    """The butterfly's stages as read-only n x n matrices, ``half`` = 1, 2, ..., n/2."""
    rows = np.arange(n)
    stages = []
    half = 1
    while half < n:
        stage = np.zeros((n, n))
        stage[rows, rows] = np.where(rows & half, -1.0, 1.0)  # u - v on the v rows
        stage[rows, rows ^ half] = 1.0
        stage.flags.writeable = False
        stages.append(stage)
        half *= 2
    return tuple(stages)


@dataclass(frozen=True)
class RHT:
    """Orthogonal transform (1/sqrt(dim)) * H_dim * diag(signs)."""

    dim: int
    signs: Array
    seed: int = 0

    def __post_init__(self):
        if not is_power_of_two(self.dim):
            raise ValueError(f"dim {self.dim} is not a power of two")
        signs = np.asarray(self.signs, dtype=np.float64)
        if signs.shape != (self.dim,) or not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be a +/-1 vector of length dim")
        object.__setattr__(self, "signs", signs)

    @classmethod
    def from_seed(cls, dim: int, seed: int) -> "RHT":
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5147]))
        signs = rng.integers(0, 2, size=dim) * 2.0 - 1.0
        return cls(dim=dim, signs=signs, seed=int(seed))

    def matrix(self) -> Array:
        """Explicit dim x dim matrix (test-scale sizes only)."""
        return fwht(np.diag(self.signs), axis=0) / np.sqrt(self.dim)


def rht_apply(t: RHT, v: Array, axis: int = -1) -> Array:
    """Apply the transform along ``axis``; preserves 2-norms to round-off."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[axis] != t.dim:
        raise ValueError(f"axis length {v.shape[axis]} != transform dim {t.dim}")
    signed = v * _shaped(t.signs, v.ndim, axis)
    return fwht(signed, axis=axis) / np.sqrt(t.dim)


def rht_inverse(t: RHT, v: Array, axis: int = -1) -> Array:
    """Inverse (= transpose) of :func:`rht_apply` along ``axis``."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[axis] != t.dim:
        raise ValueError(f"axis length {v.shape[axis]} != transform dim {t.dim}")
    return _shaped(t.signs, v.ndim, axis) * fwht(v, axis=axis) / np.sqrt(t.dim)


def _shaped(signs: Array, ndim: int, axis: int) -> Array:
    shape = [1] * ndim
    shape[axis] = signs.shape[0]
    return signs.reshape(shape)


@dataclass(frozen=True)
class TransformedLayer:
    """Transformed padded matrix plus everything needed to undo it."""

    matrix: Array  # (rows_padded, cols_padded)
    rows: int  # original row count
    cols: int  # original column count
    left: RHT
    right: RHT
    max_abs: float = 0.0  # incoherence statistic of the transformed matrix


def transform_layer(w: Array, left: RHT, right: RHT) -> TransformedLayer:
    """W' = U_left @ pad(W) @ U_right^T with zero padding to the RHT dims."""
    w = np.asarray(w, dtype=np.float64)
    r, c = w.shape
    if left.dim < r or right.dim < c:
        raise ValueError("transform dims must cover the matrix")
    padded = np.zeros((left.dim, right.dim))
    padded[:r, :c] = w
    out = rht_apply(left, padded, axis=0)
    out = rht_apply(right, out, axis=1)
    return TransformedLayer(matrix=out, rows=r, cols=c, left=left, right=right,
                            max_abs=float(np.max(np.abs(out))))


def untransform_layer(layer: TransformedLayer) -> Array:
    """Exact inverse of :func:`transform_layer`, cropped to the original shape."""
    back = rht_inverse(layer.left, layer.matrix, axis=0)
    back = rht_inverse(layer.right, back, axis=1)
    return back[:layer.rows, :layer.cols]


class Identity:
    """Rounding in model space: q-space is the weights, and every map returns its input.

    ``blocks`` holds one ``(name, start, stop, shape, left, right, q_start,
    q_stop)`` tuple per parameter block, here with no RHTs and q-spans equal
    to the model spans.
    """

    def __init__(self, arch: ToyArch):
        self.arch = arch
        self.n_params = arch.n_params
        self.blocks = []
        at = 0
        for idx, (name, (a, b, shape)) in enumerate(arch.layout().items()):
            left, right = self._rhts(idx, shape)
            size = b - a if left is None else left.dim * right.dim
            self.blocks.append((name, a, b, shape, left, right, at, at + size))
            at += size
        self.n_q = at

    def _rhts(self, idx: int, shape: tuple) -> tuple[RHT | None, RHT | None]:
        """Block ``idx``'s (left, right) RHTs; (None, None) passes it through."""
        return None, None

    @staticmethod
    def to_q(w):
        return w

    from_q = grad_to_q = to_q


class ModelIncoherence(Identity):
    """Per-layer transforms for a toy model's flat parameter vector.

    Every 2-D parameter block is conjugated by seeded RHTs (padded to powers
    of two); 1-D blocks pass through unchanged.  Per-layer sign seeds derive
    from one master seed via a counter, so one integer reproduces the whole
    transform.  Gradients transport with the same forward map because the
    conjugation is linear and orthogonal.
    """

    def __init__(self, arch: ToyArch, seed: int = 0):
        self.seed = int(seed)
        super().__init__(arch)

    def _rhts(self, idx: int, shape: tuple) -> tuple[RHT | None, RHT | None]:
        if len(shape) != 2:
            return None, None
        return tuple(RHT.from_seed(next_power_of_two(side), child_seed(self.seed, idx, k))
                     for k, side in enumerate(shape))

    def to_q(self, w: Array) -> Array:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.n_params,):
            raise ValueError(f"weights must have length {self.n_params}, got {w.shape}")
        out = np.empty(self.n_q)
        for name, a, b, shape, left, right, qa, qb in self.blocks:
            if left is None:
                out[qa:qb] = w[a:b]
            else:
                padded = np.zeros((left.dim, right.dim))
                padded[:shape[0], :shape[1]] = w[a:b].reshape(shape)
                out[qa:qb] = rht_apply(right, rht_apply(left, padded, axis=0), axis=1).ravel()
        return out

    def from_q(self, q: Array) -> Array:
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.n_q,):
            raise ValueError(f"q vectors must have length {self.n_q}, got {q.shape}")
        out = np.empty(self.n_params)
        for name, a, b, shape, left, right, qa, qb in self.blocks:
            if left is None:
                out[a:b] = q[qa:qb]
            else:
                back = rht_inverse(left, q[qa:qb].reshape(left.dim, right.dim), axis=0)
                out[a:b] = rht_inverse(right, back, axis=1)[:shape[0], :shape[1]].ravel()
        return out

    # the conjugation is linear, so gradients transport exactly like weights
    grad_to_q = to_q

