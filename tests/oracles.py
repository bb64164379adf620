"""Independent reference implementations used to check the library.

Everything here is deliberately naive: finite differences for gradients,
Gram-Schmidt for projectors, exhaustive active-set enumeration for polytope
vertices, and dense matrix products for transforms.  None of it shares code
with the paths it verifies, except the last group: earlier, loop-based
implementations of vectorized paths, kept as bit-exact references.  They
reuse the library's forward pass and transforms because the paths they pin
must agree with them to the last bit, not to a tolerance.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg


def central_diff(f, x: np.ndarray, indices, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x, on chosen coords."""
    out = np.zeros(len(indices))
    for k, j in enumerate(indices):
        plus = x.copy()
        plus[j] += h
        minus = x.copy()
        minus[j] -= h
        out[k] = (f(plus) - f(minus)) / (2 * h)
    return out


def gram_schmidt_projector(normals: np.ndarray) -> np.ndarray:
    """P = I - Q Q^T by classical Gram-Schmidt over the normal vectors."""
    n = normals.shape[1]
    basis = []
    for v in normals:
        w = v.astype(np.float64).copy()
        for q in basis:
            w -= (q @ w) * q
        for q in basis:  # second pass for numerical hygiene
            w -= (q @ w) * q
        norm = np.linalg.norm(w)
        if norm > 1e-10:
            basis.append(w / norm)
    p = np.eye(n)
    for q in basis:
        p -= np.outer(q, q)
    return p


def brute_force_vertices(matrix: np.ndarray, y: np.ndarray, tol: float = 1e-9) -> list[np.ndarray]:
    """All vertices of [0,1]^n intersected with {x : M(x-y) = 0}.

    Fix every size-(n-m) subset of coordinates to every 0/1 pattern, solve the
    remaining m x m system, keep feasible solutions, and deduplicate.  Only
    intended for n around 10.
    """
    m, n = matrix.shape
    rhs_full = matrix @ y
    seen: list[np.ndarray] = []
    for free in itertools.combinations(range(n), m):
        fixed = [j for j in range(n) if j not in free]
        m_free = matrix[:, list(free)]
        if np.linalg.matrix_rank(m_free) < m:
            continue
        for pattern in itertools.product((0.0, 1.0), repeat=len(fixed)):
            x = np.empty(n)
            x[fixed] = pattern
            rhs = rhs_full - matrix[:, fixed] @ np.asarray(pattern)
            sol = np.linalg.solve(m_free, rhs)
            if np.any(sol < -tol) or np.any(sol > 1 + tol):
                continue
            x[list(free)] = np.clip(sol, 0.0, 1.0)
            if np.max(np.abs(matrix @ (x - y))) > 1e-7:
                continue
            if not any(np.allclose(x, v, atol=1e-7) for v in seen):
                seen.append(x)
    return seen


def naive_hadamard_apply(signs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(1/sqrt(d)) H_d diag(signs) v via the dense Sylvester matrix."""
    d = signs.shape[0]
    h = scipy.linalg.hadamard(d).astype(np.float64)
    return (h @ (signs * v)) / np.sqrt(d)


def nearest_point_bruteforce(w: float, points: np.ndarray) -> float:
    """Nearest point with the smaller-magnitude tie rule, by full scan."""
    dist = np.abs(points - w)
    best = dist.min()
    candidates = points[np.isclose(dist, best, rtol=0, atol=1e-12)]
    return float(candidates[np.argmin(np.abs(candidates))])


def direct_kl(p_teacher: np.ndarray, p_student: np.ndarray) -> float:
    """Plain sum over the vocabulary of p log(p/q)."""
    return float(np.sum(p_teacher * (np.log(p_teacher) - np.log(p_student))))


# --- earlier implementations, kept as bit-exact references -----------------


def loop_rows(batch, arch) -> tuple[np.ndarray, np.ndarray]:
    """Prefix windows and targets built one position at a time."""
    seqs = batch.sequences
    count, length = seqs.shape
    possets = batch.positions or tuple(tuple(range(length)) for _ in range(count))
    prefixes, targets = [], []
    for s in range(count):
        for i in possets[s]:
            window = seqs[s, max(0, i - arch.context):i]
            pad = np.full(arch.context - len(window), arch.pad_id, dtype=np.int64)
            prefixes.append(np.concatenate([pad, window]))
            targets.append(seqs[s, i])
    return np.array(prefixes, dtype=np.int64), np.array(targets, dtype=np.int64)


def per_position_sample(model, count: int, length: int, rng) -> np.ndarray:
    """Autoregressive sampling with one uniform draw per position."""
    from discq.toymodel import _forward

    arch = model.arch
    seqs = np.empty((count, length), dtype=np.int64)
    for i in range(length):
        window = seqs[:, max(0, i - arch.context):i]
        pad = np.full((count, arch.context - window.shape[1]), arch.pad_id, dtype=np.int64)
        cache = _forward(model, np.concatenate([pad, window], axis=1))
        u = rng.random(count)
        seqs[:, i] = (cache["p"].cumsum(axis=1) < u[:, None]).sum(axis=1)
    np.clip(seqs, 0, arch.vocab - 1, out=seqs)
    return seqs


def per_step_teacher_stream(teacher, cfg, steps: int) -> list[np.ndarray]:
    """The DiscQuant default stream sampled one step at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x57E4]))
    return [per_position_sample(teacher, cfg.batch_size, cfg.seq_length, rng)
            for _ in range(steps)]


def stack_fwht(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Walsh-Hadamard butterfly that restacks its halves at every stage."""
    moved = np.moveaxis(np.asarray(a, dtype=np.float64), axis, -1).copy()
    n = moved.shape[-1]
    lead = moved.shape[:-1]
    half = 1
    while half < n:
        v = moved.reshape(*lead, n // (2 * half), 2, half)
        lo = v[..., 0, :] + v[..., 1, :]
        hi = v[..., 0, :] - v[..., 1, :]
        moved = np.stack((lo, hi), axis=-2).reshape(*lead, n)
        half *= 2
    return np.moveaxis(moved, -1, axis)


def layerwise_to_q(incoherence, w: np.ndarray) -> np.ndarray:
    """ModelIncoherence.to_q through transform_layer, block by block."""
    from discq.incoherence import transform_layer

    out = np.empty(incoherence.n_q)
    for _, a, b, shape, left, right, qa, qb in incoherence.blocks:
        if left is None:
            out[qa:qb] = w[a:b]
        else:
            out[qa:qb] = transform_layer(w[a:b].reshape(shape), left, right).matrix.ravel()
    return out


def layerwise_from_q(incoherence, q: np.ndarray) -> np.ndarray:
    """ModelIncoherence.from_q through untransform_layer, block by block."""
    from discq.incoherence import TransformedLayer, untransform_layer

    out = np.empty(incoherence.arch.n_params)
    for _, a, b, shape, left, right, qa, qb in incoherence.blocks:
        if left is None:
            out[a:b] = q[qa:qb]
        else:
            layer = TransformedLayer(matrix=q[qa:qb].reshape(left.dim, right.dim),
                                     rows=shape[0], cols=shape[1], left=left, right=right)
            out[a:b] = untransform_layer(layer).ravel()
    return out
