"""Independent reference implementations used to check the library.

Everything here is deliberately naive: finite differences for gradients,
Gram-Schmidt for projectors, exhaustive active-set enumeration for polytope
vertices, and dense matrix products for transforms.  None of it shares code
with the paths it verifies, except the last group: earlier, loop-based or
allocating implementations of vectorized or in-place paths, kept as
bit-exact references.  They reuse the library's forward pass and transforms
because the paths they pin must agree with them to the last bit, not to a
tolerance.  The earlier walk phases are the exception, and all three reuse
the library's kept projector, which is checked against Gram-Schmidt on its
own.  The doubling walk draws its Gaussians differently, so it is a
reference for the step law in distribution.  The block walk takes the same
draws in the same order and differs in round-off only, so it agrees with
the library's walk to a tolerance until round-off flips a freeze.  The
reference walk phase screens the row after a freeze as a one-row matrix,
where the library's walk takes it as a vector; the products are the same,
so it agrees with the library's walk to the last bit.  The calibration
stream's earlier path samples in products of ``batch_size`` rows and scores
the teacher with a second, stacked forward of ``batch_size *
seq_length``-row products, where the library keeps its sampler's own scores
from products of that second shape; it pins them to the last bit.  The
reference DiscQuant loop builds a new student and allocates every array at
every step, where the library's rewrites one student and its buffers in
place.  The rounder chains at the end are the if/elif dispatch that
``quantize_model`` and the first-order study ran before both read
``pipeline.ROUNDERS``; they call the same rounders, so they pin the table's
seeds and wiring byte for byte.
"""

from __future__ import annotations

import itertools
import math

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
    kept = np.empty((0, n))  # ``seen`` stacked, for one vectorized duplicate test
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
            # np.allclose(x, v, atol=1e-7) against every kept vertex v at once
            if not np.any(np.all(np.abs(x - kept) <= 1e-7 + 1e-5 * np.abs(kept), axis=1)):
                seen.append(x)
                kept = np.vstack([kept, x])
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
        seqs[:, i] = np.minimum((cache["p"].cumsum(axis=1) < u[:, None]).sum(axis=1),
                                arch.vocab - 1)
    return seqs


def per_step_teacher_stream(teacher, cfg, steps: int) -> list[np.ndarray]:
    """The DiscQuant default stream sampled one step at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x57E4]))
    return [per_position_sample(teacher, cfg.batch_size, cfg.seq_length, rng)
            for _ in range(steps)]


_TEACHER_STACK = 32  # steps per stacked teacher forward in :func:`kl_inputs`


def teacher_chunks(teacher, cfg, mix: float = 0.0):
    """The DiscQuant calibration stream as sequences: ``(batch, k)`` per chunk.

    A chunk holds up to ``STREAM_CHUNK`` steps' ``batch_size`` sequences, step
    by step, from the library's uniforms, sampled as a (steps, batch_size)
    stack and mixed.
    """
    from discq.discquant import STREAM_CHUNK
    from discq.toymodel import SampleBatch, _sample_tokens, _swap_uniform

    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x57E4]))
    size, length = cfg.batch_size, cfg.seq_length
    for start in range(0, cfg.iterations, STREAM_CHUNK):
        k = min(STREAM_CHUNK, cfg.iterations - start)
        tokens = _sample_tokens(teacher, rng.random((k, length, size)).transpose(1, 0, 2))[0]
        _swap_uniform(tokens, mix, teacher.arch.vocab, rng)
        yield SampleBatch(sequences=tokens.reshape(k * size, length)), k


def kl_inputs(teacher, batches):
    """Per step: prefixes and the teacher's log-probs and probs from a second forward.

    ``batches`` yields ``(batch, k)``, a batch holding k steps' rows in step
    order and in equal shares.  One ``rows`` call serves all k steps, and the
    teacher's forward runs on stacks of up to ``_TEACHER_STACK`` steps, shaped
    (steps, rows, ·), so each step's slices equal what ``kl_term`` computes
    from that step's own batch.
    """
    from discq.toymodel import _forward

    for batch, k in batches:
        prefixes = batch.rows(teacher.arch)[0].reshape(k, -1, teacher.arch.context)
        for stack in np.split(prefixes, range(_TEACHER_STACK, k, _TEACHER_STACK)):
            cache = _forward(teacher, stack)
            yield from zip(stack, cache["logp"], cache["p"])


def _teacher_stream(teacher, cfg, mix: float = 0.0):
    """The DiscQuant calibration stream, one ``SampleBatch`` per step.

    It splits the chunks of :func:`teacher_chunks`, so it checks how they are
    consumed, not how they are sampled.
    """
    from discq.toymodel import SampleBatch

    for chunk, k in teacher_chunks(teacher, cfg, mix):
        yield from map(SampleBatch, np.split(chunk.sequences, k))


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


def buffered_fwht(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Walsh-Hadamard butterfly into two ping-pong buffers viewed around the axis."""
    a = np.asarray(a, dtype=np.float64)
    axis = range(a.ndim)[axis]
    n = a.shape[axis]
    if n == 1:
        return a.copy()
    before, after = int(np.prod(a.shape[:axis])), int(np.prod(a.shape[axis + 1:]))
    bufs = (np.empty(a.shape), np.empty(a.shape))
    src, half, k = a, 1, 0
    while half < n:
        s = src.reshape(before, n // (2 * half), 2, half, after)
        d = bufs[k].reshape(s.shape)
        np.add(s[:, :, 0], s[:, :, 1], out=d[:, :, 0])
        np.subtract(s[:, :, 0], s[:, :, 1], out=d[:, :, 1])
        src, half, k = bufs[k], 2 * half, 1 - k
    return src


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


def _resolve_step(xf: np.ndarray, s: np.ndarray, eps: float):
    """One proposed step ``xf -> xf + s`` against the face bands: the point it
    reaches, the coordinates it lands on a face (None if none) and the share
    ``t`` of the step taken to land."""
    prop = xf + s
    toward = ((s > 0) & (prop >= 1.0 - eps)) | ((s < 0) & (prop <= eps))
    if not np.any(toward):
        return prop, None, 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_face = np.where(s > 0, (1.0 - xf) / s, np.where(s < 0, -xf / s, np.inf))
    t = float(t_face.min())
    landed = xf + t * s
    on_face = t_face == t
    landed[on_face & (s > 0)] = 1.0
    landed[on_face & (s < 0)] = 0.0
    return landed, on_face, t


def doubling_walk_phase(m_unit: np.ndarray, x: np.ndarray, frozen: np.ndarray,
                        cfg, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One walk phase that restarts its Gaussian block after every freeze.

    Blocks start at 8 rows and double up to 256 while no row freezes a
    coordinate; the rows after a freeze are discarded.  Every proposed step
    that enters a face band is resolved on its own.  Returns ``(x, frozen)``.
    This is the same step law as ``lmwalk._run_phase`` with other draws, so
    the two agree in distribution, not bit for bit.
    """
    from discq.lmwalk import _KeptProjector

    x, frozen = x.copy(), frozen.copy()
    frozen |= (x == 0.0) | (x == 1.0)
    free = np.flatnonzero(~frozen)
    if free.size == 0:
        return x, frozen
    proj = _KeptProjector(m_unit, free)
    if proj.saturated:
        return x, frozen
    xf = x[free]
    steps_left, block = cfg.steps_per_phase, 8
    while steps_left > 0:
        nsteps = min(block, math.ceil(steps_left))
        moves = cfg.delta * proj.project(rng.standard_normal((nsteps, free.size)))
        path = xf + np.cumsum(moves, axis=0)
        in_band = (path <= cfg.eps) | (path >= 1.0 - cfg.eps)
        for k in np.flatnonzero(in_band.any(axis=1)):
            landed, on_face, t = _resolve_step(path[k - 1] if k > 0 else xf, moves[k], cfg.eps)
            if on_face is None:
                continue
            steps_left -= int(k) + t
            x[free] = landed
            frozen[free[on_face]] = True
            proj.drop(on_face)
            free = proj.free
            xf = x[free]
            if proj.saturated:
                steps_left = 0
            block = 8
            break
        else:
            xf = path[-1]
            steps_left -= nsteps
            block = min(block * 2, 256)
    x[free] = xf
    return x, frozen


def block_walk_phase(m_unit: np.ndarray, x: np.ndarray, frozen: np.ndarray,
                     cfg, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One walk phase that screens every carried row after a freeze.

    Raw rows are drawn 8 at a time and carried across freezes, as in
    ``lmwalk._run_phase``, but each screen projects all carried rows, not
    one.  The walk takes the same raw rows in the same order, so the two
    agree to round-off until round-off flips a freeze.  Returns ``(x, frozen)``.
    """
    from discq.lmwalk import _BLOCK, _TRIL, _KeptProjector, _without

    x, frozen = x.copy(), frozen.copy()
    frozen |= (x == 0.0) | (x == 1.0)
    free = np.flatnonzero(~frozen)
    proj = _KeptProjector(m_unit, free)
    if proj.saturated:
        return x, frozen
    xf = x[free]
    delta, band, steps_left = cfg.delta, 0.5 - cfg.eps, cfg.steps_per_phase
    partial_sums = delta * _TRIL
    raw = xf[None, :0]
    with np.errstate(divide="ignore"):
        while steps_left > 0:
            if not raw.size:
                raw = rng.standard_normal((min(_BLOCK, math.ceil(steps_left)), free.size))
            rows = len(raw)
            g = proj.project(raw)
            path = partial_sums[:rows, :rows] @ g + xf
            hits = ((path - 0.5) * g > band * np.abs(g)).any(axis=1)
            k = int(hits.argmax())
            if not hits[k]:
                xf = path[-1]
                steps_left -= rows
                raw = raw[:0]
                continue
            cur, s = (path[k - 1] if k else xf), delta * g[k]
            t_face = np.abs(((s > 0) - cur) / s)
            j = int(t_face.argmin())
            on_face = t_face == t_face[j]
            xf = cur + t_face[j] * s
            steps_left -= k + float(t_face[j])
            raw = raw[k + 1:]
            gone = j if np.count_nonzero(on_face) == 1 else on_face
            x[free[gone]] = s[gone] > 0
            frozen[free[gone]] = True
            xf, raw = _without(xf, gone), _without(raw, gone)
            proj.drop(gone)
            free = proj.free
            if proj.saturated:
                break
    x[free] = xf
    return x, frozen


def reference_walk_phase(m_unit: np.ndarray, x: np.ndarray, frozen: np.ndarray,
                         cfg, rng: np.random.Generator):
    """``lmwalk._run_phase`` as it was before the row after a freeze was screened
    as a vector: every screen projects a ``(rows, f)`` block, takes the partial
    sums by matmul and picks the hit row by ``argmax``.  The same draws through
    the same products, so it pins the library's walk to the last bit.  Returns a
    ``PhaseResult``."""
    from discq.lmwalk import _BLOCK, _TRIL, PhaseResult, _KeptProjector, _without

    x = x.copy()
    frozen = frozen | (x == 0.0) | (x == 1.0)
    start_frozen = int(frozen.sum())
    free = np.flatnonzero(~frozen)
    proj = _KeptProjector(m_unit, free)
    if proj.saturated:
        return PhaseResult(x, frozen, True, 0)
    xf = x[free]
    delta, band, steps_left = cfg.delta, 0.5 - cfg.eps, cfg.steps_per_phase
    partial_sums = delta * _TRIL
    raw, screen = xf[None, :0], _BLOCK
    with np.errstate(divide="ignore"):
        while steps_left > 0:
            if not raw.size:
                raw = rng.standard_normal((min(_BLOCK, math.ceil(steps_left)), free.size))
            g = proj.project(raw[:screen])
            rows = len(g)
            path = partial_sums[:rows, :rows] @ g + xf
            hits = ((path - 0.5) * g > band * np.abs(g)).any(axis=1)
            k = int(hits.argmax())
            if not hits[k]:
                xf = path[-1]
                steps_left -= rows
                raw, screen = raw[rows:], _BLOCK
                continue
            cur, s = (path[k - 1] if k else xf), delta * g[k]
            t_face = np.abs(((s > 0) - cur) / s)
            j = int(t_face.argmin())
            on_face = t_face == t_face[j]
            xf = cur + t_face[j] * s
            steps_left -= k + float(t_face[j])
            raw, screen = raw[k + 1:], 1
            gone = j if np.count_nonzero(on_face) == 1 else on_face
            x[free[gone]] = s[gone] > 0
            frozen[free[gone]] = True
            xf, raw = _without(xf, gone), _without(raw, gone)
            proj.drop(gone)
            free = proj.free
            if proj.saturated:
                break
    x[free] = xf
    return PhaseResult(x, frozen, False, int(frozen.sum()) - start_frozen)

def allocating_forward(model, prefixes: np.ndarray) -> dict:
    """The toy forward pass with every bias add and ``tanh`` in a new array."""
    from discq.toymodel import _HIDDEN, _log_softmax

    v = model.views()
    acts = [v["embed"][prefixes].reshape(*prefixes.shape[:-1], -1)]
    for w, b in _HIDDEN[:model.arch.layers]:
        acts.append(np.tanh(acts[-1] @ v[w].T + v[b]))
    logits = acts[-1] @ v["wout"].T + v["bout"]
    logp = _log_softmax(logits)
    return {"acts": acts, "logits": logits, "logp": logp, "p": np.exp(logp)}


def keeping_kl_term(teacher, student, batch):
    """``kl_term`` with the teacher's whole forward cache alive through the
    student's forward and backward."""
    from discq.toymodel import _forward, _kl_core

    prefixes, _ = batch.rows(teacher.arch)
    tc = _forward(teacher, prefixes)
    return _kl_core(student, prefixes, tc["logp"], tc["p"])


def add_at_backward(model, cache: dict, dlogits: np.ndarray) -> np.ndarray:
    """Summed parameter gradient, block by block, embedding rows by ``np.add.at``."""
    from discq.toymodel import _HIDDEN

    arch, v = model.arch, model.views()
    layout = arch.layout()
    grad = np.zeros(arch.n_params)

    def put(name, g):
        a, b, _ = layout[name]
        grad[a:b] = g.ravel()

    acts = cache["acts"]
    put("wout", dlogits.T @ acts[-1])
    put("bout", dlogits.sum(axis=0))
    dh = dlogits @ v["wout"]
    for i in reversed(range(arch.layers)):
        w, b = _HIDDEN[i]
        da = dh * (1.0 - acts[i + 1] ** 2)
        put(w, da.T @ acts[i])
        put(b, da.sum(axis=0))
        dh = da @ v[w]
    dx = dh.reshape(-1, arch.context, arch.emb)
    dembed = np.zeros((arch.vocab + 1, arch.emb))
    np.add.at(dembed, cache["prefixes"], dx)
    put("embed", dembed)
    return grad


def add_at_per_row_grads(model, cache: dict, dlogits: np.ndarray) -> np.ndarray:
    """One gradient row per batch row, embedding rows by ``np.add.at``."""
    from discq.toymodel import _HIDDEN

    arch, v = model.arch, model.views()
    layout = arch.layout()
    nrows = dlogits.shape[0]
    grads = np.zeros((nrows, arch.n_params))

    def put(name, g):
        a, b, _ = layout[name]
        grads[:, a:b] = g.reshape(nrows, -1)

    acts = cache["acts"]
    put("wout", np.einsum("rv,rh->rvh", dlogits, acts[-1]))
    put("bout", dlogits)
    dh = dlogits @ v["wout"]
    for i in reversed(range(arch.layers)):
        w, b = _HIDDEN[i]
        da = dh * (1.0 - acts[i + 1] ** 2)
        put(w, np.einsum("ri,rj->rij", da, acts[i]))
        put(b, da)
        dh = da @ v[w]
    dx = dh.reshape(nrows, arch.context, arch.emb)
    demb = np.zeros((nrows, arch.vocab + 1, arch.emb))
    np.add.at(demb, (np.arange(nrows)[:, None], cache["prefixes"]), dx)
    put("embed", demb)
    return grads


class AllocatingAdamW:
    """AdamW with every moment and step term in a new array."""

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


def reference_optimize(teacher, grid, cfg, heldout=None, transform=None, data_mix: float = 0.0):
    """``discquant.optimize`` as its step loop stood before it rewrote one student
    in place: every step builds a new student and allocates every array.

    It reads the same calibration stream, through ``discquant._teacher_chunks``,
    and the same kernels, each in its allocating form, so it pins the loop's
    buffer reuse to the last bit.
    """
    from discq import discquant
    from discq.grid import bracket_of
    from discq.incoherence import Identity
    from discq.optim import warmup_cosine_lr
    from discq.toymodel import _check_data_mix, _kl_core, kl_term

    _check_data_mix(data_mix)
    transform = transform or Identity(teacher.arch)
    wq = transform.to_q(teacher.params)
    bracket = bracket_of(wq, grid)
    cvec = discquant.cstar(bracket.position())
    x = discquant.init_x(cfg.init, bracket, cfg.seed)
    opt = AllocatingAdamW(bracket.n, lr=cfg.lr, weight_decay=cfg.weight_decay)
    w_lin, w_kl = (cfg.lam, 1.0) if cfg.lambda_on == "linear" else (1.0, cfg.lam)
    lin_grad = w_lin * cvec
    trace_linear, trace_kl, trace_frac = [], [], []
    kl_inputs = discquant._teacher_chunks(teacher, cfg, data_mix)
    for step, (prefixes, t_logp, t_p) in enumerate(kl_inputs, start=1):
        wq_x = bracket.w_down * (1.0 - x) + bracket.w_up * x
        student = teacher.with_params(transform.from_q(wq_x))
        kl_value, kl_grad_model = _kl_core(student, prefixes, t_logp, t_p)
        grad = transform.grad_to_q(kl_grad_model) * bracket.delta
        np.maximum(grad, -cfg.clamp, out=grad)
        np.minimum(grad, cfg.clamp, out=grad)
        grad *= w_kl
        grad += lin_grad
        lin_value, kl_weighted = w_lin * float(cvec @ x), w_kl * kl_value
        if not (np.isfinite(lin_value) and np.isfinite(kl_weighted)
                and np.isfinite(grad).all()):
            raise discquant.NonFiniteObjective(f"non-finite objective at step {step}",
                                               trace_linear, trace_kl)
        trace_linear.append(lin_value)
        trace_kl.append(kl_weighted)
        x = opt.step(x, grad, lr=warmup_cosine_lr(cfg.lr, cfg.warmup, cfg.iterations, step))
        np.maximum(x, 0.0, out=x)
        np.minimum(x, 1.0, out=x)
        trace_frac.append(np.count_nonzero(np.minimum(x, 1.0 - x) > cfg.tau) / x.size)

    quantized = discquant.finalize(x, bracket, cfg.tau)
    model_params = transform.from_q(quantized)
    heldout_kl = None
    if heldout is not None:
        heldout_kl, _ = kl_term(teacher, teacher.with_params(model_params), heldout)
    return discquant.RoundingReport(
        x=x, fractional_fraction=trace_frac[-1], trace_linear=np.array(trace_linear),
        trace_kl=np.array(trace_kl), trace_fractional=np.array(trace_frac),
        quantized=quantized, model_params=model_params, heldout_kl=heldout_kl)


def _walk_constraints(teacher, bracket, transform, m: int, seq_length: int, mix: float,
                      seed: int):
    """Rows: per-sequence mean loss gradients, grid-spacing scaled."""
    from discq import lmwalk, toymodel
    from discq.serialize import child_seed

    seed = child_seed(seed, 0xDA)
    tokens = toymodel.sample_sequences(teacher, m, seq_length, seed=seed).sequences
    swap_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x313]))
    toymodel._swap_uniform(tokens, mix, teacher.arch.vocab, swap_rng)
    rows = toymodel.gradient_rows(teacher, toymodel.SampleBatch(tokens))
    per_seq = rows.reshape(m, -1, rows.shape[1]).mean(axis=1)
    per_seq = np.stack([transform.grad_to_q(r) for r in per_seq])
    return lmwalk.ConstraintSet(per_seq * bracket.delta, bracket.position())


def chain_quantize_model(teacher, bits: int, groupsize, method: str, seed: int = 0,
                         transform=None, dq_cfg=None, walk_cfg=None, walk_samples: int = 48,
                         heldout=None, data_mix: float = 0.0):
    """``quantize_model`` as an if/elif chain over the rounders, seeding each in its arm."""
    import dataclasses

    from discq import discquant, grid as gridmod, lmwalk, toymodel
    from discq.incoherence import Identity, ModelIncoherence
    from discq.pipeline import _MODEL_WALK, QuantizeOutcome
    from discq.serialize import child_seed

    walk_cfg = walk_cfg or _MODEL_WALK
    transform = transform or Identity(teacher.arch)
    wq = transform.to_q(teacher.params)
    qgrid = gridmod.build_block_scaling(wq, bits=bits, groupsize=groupsize,
                                        blocks=[(qa, qb) for *_, qa, qb in transform.blocks])
    flags = ()
    if isinstance(transform, ModelIncoherence) and qgrid.groupsize is not None:
        flags = ("groupwise-scales-with-incoherence",)
    fractional = 0
    dq_cfg = dq_cfg or discquant.DiscQuantConfig()
    if method == "rtn":
        rounded_q = gridmod.rtn(wq, qgrid)
    elif method == "discquant":
        cfg = dataclasses.replace(dq_cfg, seed=child_seed(seed, 0xD9))
        report = discquant.optimize(teacher, qgrid, cfg, transform=transform,
                                    data_mix=data_mix)
        rounded_q = report.quantized
        fractional = int(np.count_nonzero(np.minimum(report.x, 1.0 - report.x) > cfg.tau))
    else:
        bracket = gridmod.bracket_of(wq, qgrid)
        cs = _walk_constraints(teacher, bracket, transform, walk_samples,
                               dq_cfg.seq_length, data_mix, seed)
        cfg = dataclasses.replace(walk_cfg, seed=child_seed(seed, 0x31))
        result = lmwalk.lm_round(cs, cfg)
        fractional = result.fractional
        rounded_q = discquant.finalize(result.x, bracket, tau=1e-3)
    model = teacher.with_params(transform.from_q(rounded_q))
    heldout_kl = None
    if heldout is not None:
        heldout_kl, _ = toymodel.kl_term(teacher, model, heldout)
    return QuantizeOutcome(model=model, bits_per_param=gridmod.bits_per_param(qgrid),
                           fractional=fractional, heldout_kl=heldout_kl, flags=flags)


def chain_first_order_trial(cfg, trial: int) -> list[dict]:
    """The first-order study's rows for one trial, each arm rounded in an if/elif chain."""
    from discq.discquant import DiscQuantConfig, optimize
    from discq.grid import rtn
    from discq.harness import _uniform_grid_for
    from discq.serialize import child_seed
    from discq.toymodel import first_order_study, random_model, sample_sequences

    p = cfg.params
    seed = child_seed(cfg.seed, trial)
    teacher = random_model(p.arch, seed=seed)
    batch = sample_sequences(teacher, p.sequences, p.seq_length, seed=child_seed(seed, 0xF0))
    methods = list(p.methods) + (["identity"] if p.include_zero_arm else [])
    rows = []
    for spacing in p.deltas:
        qgrid = _uniform_grid_for(teacher.params, spacing, teacher.params.shape[0])
        for method in methods:
            if method == "rtn":
                rounded = rtn(teacher.params, qgrid)
            elif method == "identity":
                rounded = teacher.params
            else:
                dq_cfg = DiscQuantConfig(iterations=256, warmup=32, seed=child_seed(seed, 0xD0))
                rounded = optimize(teacher, qgrid, dq_cfg).quantized
            pairs = first_order_study(teacher, qgrid, rounded, batch)
            for idx, (df, first) in enumerate(pairs):
                rows.append({"seed": seed, "trial": trial, "spacing": spacing,
                             "method": method, "sample": idx,
                             "loss_change": float(df), "first_order": float(first)})
    return rows
