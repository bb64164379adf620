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

import math
from dataclasses import dataclass

import numpy as np

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

    O(dim log dim) butterfly recursion; the implied matrix is the Sylvester
    Hadamard matrix H_dim.  Stages alternate between two buffers, viewed as
    (before, blocks, 2, half, after) around the transformed axis.
    """
    a = np.asarray(a, dtype=np.float64)
    axis = range(a.ndim)[axis]
    n = a.shape[axis]
    if not is_power_of_two(n):
        raise ValueError(f"transform length {n} is not a power of two")
    if n == 1:
        return a.copy()
    before, after = math.prod(a.shape[:axis]), math.prod(a.shape[axis + 1:])
    bufs = (np.empty(a.shape), np.empty(a.shape))
    src, half, k = a, 1, 0
    while half < n:
        s = src.reshape(before, n // (2 * half), 2, half, after)
        d = bufs[k].reshape(s.shape)
        np.add(s[:, :, 0], s[:, :, 1], out=d[:, :, 0])
        np.subtract(s[:, :, 0], s[:, :, 1], out=d[:, :, 1])
        src, half, k = bufs[k], 2 * half, 1 - k
    return src


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


class ModelIncoherence:
    """Per-layer transforms for a toy model's flat parameter vector.

    Every 2-D parameter block is conjugated by seeded RHTs (padded to powers
    of two); 1-D blocks pass through unchanged.  Per-layer sign seeds derive
    from one master seed via a counter, so one integer reproduces the whole
    transform.  Gradients transport with the same forward map because the
    conjugation is linear and orthogonal.
    """

    def __init__(self, arch: ToyArch, seed: int = 0):
        self.arch = arch
        self.seed = int(seed)
        self.blocks = []  # (name, start, stop, shape, left | None, right | None)
        at = 0
        for idx, (name, (a, b, shape)) in enumerate(arch.layout().items()):
            if len(shape) == 2:
                left = RHT.from_seed(next_power_of_two(shape[0]), self._child(idx, 0))
                right = RHT.from_seed(next_power_of_two(shape[1]), self._child(idx, 1))
                size = left.dim * right.dim
            else:
                left = right = None
                size = b - a
            self.blocks.append((name, a, b, shape, left, right, at, at + size))
            at += size
        self.n_q = at

    def _child(self, idx: int, side: int) -> int:
        ss = np.random.SeedSequence([self.seed, idx, side])
        return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)

    def to_q(self, w: Array) -> Array:
        w = np.asarray(w, dtype=np.float64)
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
        out = np.empty(max(b for _, _, b, *_ in self.blocks))
        for name, a, b, shape, left, right, qa, qb in self.blocks:
            if left is None:
                out[a:b] = q[qa:qb]
            else:
                back = rht_inverse(left, q[qa:qb].reshape(left.dim, right.dim), axis=0)
                out[a:b] = rht_inverse(right, back, axis=1)[:shape[0], :shape[1]].ravel()
        return out

    # the conjugation is linear, so gradients transport exactly like weights
    grad_to_q = to_q


def pipeline_with_incoherence(teacher, bits: int, groupsize, method: str,
                              seeds, incoh_seed: int = 0, heldout_count: int = 256,
                              seq_length: int = 8, **quantize_kwargs) -> dict:
    """Round a teacher with and without incoherence processing; compare KL.

    One row per trial seed, carrying the held-out KL of both arms and the
    max-entry statistics of the transformed layers.  Combining group-wise
    scales with incoherence is allowed but flagged in the rows (both features
    act on outliers and can interfere).
    """
    from .pipeline import quantize_model
    from .toymodel import kl_term, sample_sequences

    rows = []
    for trial, seed in enumerate(seeds):
        heldout = sample_sequences(teacher, heldout_count, seq_length, seed=int(seed))
        transform = ModelIncoherence(teacher.arch, seed=incoh_seed + trial)
        plain = quantize_model(teacher, bits, groupsize, method, seed=int(seed),
                               transform=None, heldout=heldout, **quantize_kwargs)
        rotated = quantize_model(teacher, bits, groupsize, method, seed=int(seed),
                                 transform=transform, heldout=heldout, **quantize_kwargs)
        rows.append({
            "seed": int(seed),
            "kl_plain": plain.heldout_kl,
            "kl_incoherent": rotated.heldout_kl,
            "flags": list(rotated.flags),
        })
    kl_plain = [r["kl_plain"] for r in rows]
    kl_rot = [r["kl_incoherent"] for r in rows]
    return {
        "rows": rows,
        "median_plain": float(np.median(kl_plain)),
        "median_incoherent": float(np.median(kl_rot)),
    }
