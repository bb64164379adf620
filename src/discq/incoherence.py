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

Each transform is one dense product with its matrix, built once by the
butterfly :func:`fwht` and cached; a model's blocks run theirs inline, with
each block's matrices and scratch arrays looked up once per instance.
"""

from __future__ import annotations

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


def fwht(a: Array, axis: int = -1) -> Array:
    """Unnormalized fast Walsh-Hadamard transform along ``axis``.

    The implied matrix is the Sylvester Hadamard matrix H_n, applied as the
    O(n log n) butterfly: stage ``half`` = 1, 2, ..., n/2 views the axis as
    pairs of ``half``-long runs (u, v) and stacks u + v above u - v.  It
    builds :meth:`RHT.matrix`; the transport itself is a dense product.
    """
    a = np.asarray(a, dtype=np.float64)
    axis = range(a.ndim)[axis]
    n = a.shape[axis]
    if not is_power_of_two(n):
        raise ValueError(f"transform length {n} is not a power of two")
    if n == 1:
        return a.copy()
    before, after = math.prod(a.shape[:axis]), math.prod(a.shape[axis + 1:])
    x, half = a, 1
    while half < n:
        s = x.reshape(before, n // (2 * half), 2, half, after)
        x = np.stack((s[:, :, 0] + s[:, :, 1], s[:, :, 0] - s[:, :, 1]), axis=2)
        half *= 2
    return x.reshape(a.shape)


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
        """The dim x dim matrix, built once, cached on the instance and read-only."""
        m = self.__dict__.get("_matrix")
        if m is None:
            m = fwht(np.diag(self.signs), axis=0) / np.sqrt(self.dim)
            m.flags.writeable = False
            self.__dict__["_matrix"] = m
        return m


def rht_apply(t: RHT, v: Array, axis: int = -1) -> Array:
    """Apply the transform along ``axis``; preserves 2-norms to round-off.

    One dense product with :meth:`RHT.matrix` (cached, dim**2 * 8 bytes) for every dim.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[axis] != t.dim:
        raise ValueError(f"axis length {v.shape[axis]} != transform dim {t.dim}")
    return (v.swapaxes(axis, -1) @ t.matrix().T).swapaxes(axis, -1)


def rht_inverse(t: RHT, v: Array, axis: int = -1) -> Array:
    """Inverse (= transpose) of :func:`rht_apply` along ``axis``."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[axis] != t.dim:
        raise ValueError(f"axis length {v.shape[axis]} != transform dim {t.dim}")
    return (v.swapaxes(axis, -1) @ t.matrix()).swapaxes(axis, -1)


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
    def to_q(w, out=None):
        """``w`` itself; ``out``, where a transform that moves values writes them, goes unused."""
        return w

    from_q = grad_to_q = to_q


class ModelIncoherence(Identity):
    """Per-layer transforms for a toy model's flat parameter vector.

    Every 2-D parameter block is conjugated by seeded RHTs (padded to powers
    of two); 1-D blocks pass through unchanged.  Per-layer sign seeds derive
    from one master seed via a counter, so one integer reproduces the whole
    transform.  Gradients transport with the same forward map because the
    conjugation is linear and orthogonal.  The maps write through scratch
    arrays the instance owns, so one instance serves one thread at a time.
    """

    def __init__(self, arch: ToyArch, seed: int = 0):
        self.seed = int(seed)
        super().__init__(arch)
        # per 2-D block: its spans and shape, its RHT matrices, the zero-padded
        # block to_q fills and the one from_q crops (None where no side pads),
        # and the product both take between their two
        self._plan = []
        for _, a, b, shape, left, right, qa, qb in self.blocks:
            if left is not None:
                pads = shape != (left.dim, right.dim)
                self._plan.append((a, b, shape, qa, qb, left.matrix(), right.matrix(),
                                   *(np.zeros((left.dim, right.dim)) if pads else None
                                     for _ in range(2)),
                                   np.empty((right.dim, left.dim))))
        self._spans = [(a, b, qa, qb) for _, a, b, _, left, _, qa, qb in self.blocks
                       if left is None]

    def _rhts(self, idx: int, shape: tuple) -> tuple[RHT | None, RHT | None]:
        if len(shape) != 2:
            return None, None
        return tuple(RHT.from_seed(next_power_of_two(side), child_seed(self.seed, idx, k))
                     for k, side in enumerate(shape))

    def to_q(self, w: Array, out: Array | None = None) -> Array:
        """``w`` in q-space, written into ``out`` (length ``n_q``) if given."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.n_params,):
            raise ValueError(f"weights must have length {self.n_params}, got {w.shape}")
        out = np.empty(self.n_q) if out is None else out
        for a, b, qa, qb in self._spans:
            out[qa:qb] = w[a:b]
        for a, b, shape, qa, qb, lm, rm, padded, _, turned in self._plan:
            # rht_apply along axis 0, then along axis 1: the same products with the
            # same operand layouts, so the same bits (the BLAS picks its kernel by both)
            block = w[a:b].reshape(shape)
            if padded is not None:
                padded[:shape[0], :shape[1]] = block
                block = padded
            np.matmul(block.T, lm.T, out=turned)
            np.matmul(turned.T, rm.T, out=out[qa:qb].reshape(block.shape))
        return out

    def from_q(self, q: Array, out: Array | None = None) -> Array:
        """Model weights of ``q``, written into ``out`` (length ``n_params``) if given."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.n_q,):
            raise ValueError(f"q vectors must have length {self.n_q}, got {q.shape}")
        out = np.empty(self.n_params) if out is None else out
        for a, b, qa, qb in self._spans:
            out[a:b] = q[qa:qb]
        for a, b, shape, qa, qb, lm, rm, _, back, turned in self._plan:
            # rht_inverse along axis 0, then along axis 1, as in to_q
            block = out[a:b].reshape(shape)
            np.matmul(q[qa:qb].reshape(turned.shape[::-1]).T, lm, out=turned)
            np.matmul(turned.T, rm, out=block if back is None else back)
            if back is not None:
                block[...] = back[:shape[0], :shape[1]]
        return out

    # the conjugation is linear, so gradients transport exactly like weights
    grad_to_q = to_q
