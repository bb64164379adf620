"""Data-dependent rounding by projected stochastic gradient descent.

The rounding is parameterized by interpolation variables ``x`` in ``[0,1]^n``
between the two bracketing grid points of every weight.  The objective
combines a linear vertex-steering term ``<c*, x>`` with ``c* = 1 - 2y`` (its
minimum over almost-integral ``x`` is the vertex nearest the original
weights) and the KL divergence from the original model's next-token
distributions to the interpolated model's.  After every optimizer step ``x``
is projected back onto the hypercube by entrywise clamping; leftover
fractional coordinates are rounded to the nearest bracket endpoint at the
end.

Only the KL-term gradient is clamped entrywise; the linear term's gradient
is exact and bounded already.  ``lambda_on`` selects which term the weight
``lam`` multiplies.  The two placements differ only by a global objective
rescaling, but that rescaling interacts with the optimizer's per-coordinate
adaptivity and the gradient clamp: at the stock ``lam = 200``, weighting the
linear term makes the vertex pressure swamp the clamped KL signal and the
output collapses to plain nearest rounding, while weighting the KL term (the
default here, and the placement the stock hyperparameters were tuned for)
leaves room for the data to steer near-tied coordinates.  Cranking ``lam``
up under ``lambda_on="linear"`` recovers nearest rounding exactly.

The calibration stream samples fresh teacher sequences for every step, a
``data_mix`` share of them swapped for uniform ones, and presamples them in
chunks of ``STREAM_CHUNK`` steps: one draw of uniforms per chunk, in the
same order as per-step draws, and one sampler pass, whose teacher log-probs
and probs at each position are the KL term's; only swapped sequences are
scored again.  Every teacher product has a per-step :func:`kl_term`'s
``batch_size * seq_length`` rows, as a row's bits depend on how many rows
share its product (see :func:`_forward`), so every KL value and gradient is
bit for bit that of per-step :func:`kl_term`.  Each step then runs only the
student's forward and backward.

A run builds its step state once: one student, made at step 1 and then
rewritten in place (by the interpolation on the plain arm, by ``from_q`` on
the incoherent one), and arrays for its forward and backward, the q-space
gradient, the optimizer update and the step's temporaries.  Every product
keeps its shape and operand layout, so a report is byte for byte that of a
loop allocating anew every step, and it shares no memory with those arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from .grid import Bracket, QuantGrid, bracket_of, interp_weights, nearer_up
from .incoherence import Identity
from .optim import AdamW, warmup_cosine_lr
from .serialize import (AT_LEAST_1, BELOW_HALF, FINITE_NONNEGATIVE, FINITE_POSITIVE,
                        NONNEGATIVE, POSITIVE, _check_fields, seeded_rng)
from .toymodel import (SampleBatch, ToyModel, _check_data_mix, _forward, _kl_core,
                       _new_cache, _sample_tokens, _swap_uniform, kl_term)

# unused here; kept importable because bench/spans.py traces it at this name
from .toymodel import sample_sequences  # noqa: F401

Array = np.ndarray

STREAM_CHUNK = 128  # steps of the default stream sampled per pass
SNAP_TAU = 1e-3  # x within this of 0 or 1 snaps there; others go to the nearer point


@dataclass(frozen=True)
class DiscQuantConfig:
    lam: Annotated[float, FINITE_NONNEGATIVE] = 200.0
    lr: Annotated[float, FINITE_POSITIVE] = 0.1
    batch_size: Annotated[int, AT_LEAST_1] = 4
    iterations: Annotated[int, AT_LEAST_1] = 1024
    warmup: Annotated[int, NONNEGATIVE] = 128
    clamp: Annotated[float, POSITIVE] = 1.0  # inf means no clamp
    tau: Annotated[float, BELOW_HALF] = SNAP_TAU  # integrality report threshold, not a knob
    lambda_on: Literal["linear", "kl"] = "kl"
    init: Literal["uniform-random", "original-weights"] = "uniform-random"
    seq_length: Annotated[int, AT_LEAST_1] = 8
    weight_decay: Annotated[float, FINITE_NONNEGATIVE] = 0.0
    seed: Annotated[int, NONNEGATIVE] = 0

    def __post_init__(self):
        _check_fields(self)
        if self.warmup > self.iterations:
            raise ValueError("need warmup <= iterations")


@dataclass
class RoundingReport:
    x: Array
    fractional_fraction: float  # share of coordinates with min(x, 1-x) > tau
    trace_linear: Array  # per-step linear-term value (weighted as configured)
    trace_kl: Array  # per-step KL-term value (weighted as configured)
    trace_fractional: Array  # per-step fractional share
    quantized: Array  # final on-grid vector in quantization space
    model_params: Array  # final weights in model space
    heldout_kl: float | None = None


class NonFiniteObjective(FloatingPointError):
    """Objective or gradient became non-finite; traces so far attached."""

    def __init__(self, message: str, trace_linear, trace_kl):
        super().__init__(message)
        self.trace_linear = np.asarray(trace_linear)
        self.trace_kl = np.asarray(trace_kl)


def cstar(y) -> Array:
    """Vertex-steering direction 1 - 2y.

    For integral x, <c*, x> + |y|^2 equals |x - y|^2, so minimizing the
    linear form finds the vertex nearest y.
    """
    y = np.asarray(y, dtype=np.float64)
    if np.any(y < 0) or np.any(y > 1):
        raise ValueError("y must lie in [0, 1]^n")
    return 1.0 - 2.0 * y


def init_x(mode: str, bracket: Bracket, seed: int = 0) -> Array:
    """Starting point: i.i.d. uniform, or the original weights' position."""
    if mode == "original-weights":
        return bracket.position()
    if mode == "uniform-random":
        rng = seeded_rng(seed, 0x1217)
        return rng.random(bracket.n)
    raise ValueError(f"unknown init mode {mode!r}")


def finalize(x, bracket: Bracket, tau: float) -> Array:
    """Snap x to bracket endpoints: threshold at tau, then nearest-by-value.

    Midpoint ties follow the grid tie rule (smaller-magnitude point wins).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (bracket.n,) or not np.all((x >= 0) & (x <= 1)):  # NaN fails both
        raise ValueError(f"x must be a vector in [0, 1]^{bracket.n}, got shape {x.shape}")
    near_up = nearer_up(interp_weights(bracket, x), bracket.w_down, bracket.w_up)
    take_up = np.where(x >= 1.0 - tau, True, np.where(x <= tau, False, near_up))
    return np.where(take_up, bracket.w_up, bracket.w_down)


def _in_products(a: Array, per: int) -> Array:
    """``a`` (n, ...) zero-padded to whole products of ``per`` rows: (-1, per, ...)."""
    return np.pad(a, [(0, -len(a) % per)] + [(0, 0)] * (a.ndim - 1)).reshape(-1, per, *a.shape[1:])


def _teacher_chunks(teacher: ToyModel, cfg: DiscQuantConfig, mix: float = 0.0):
    """Per step: the prefixes of ``cfg.batch_size`` calibration sequences, in
    :meth:`SampleBatch.rows` order, and the teacher's log-probs and probs there.

    ``rng.random((k, seq_length, batch_size))`` holds the uniforms of k
    per-step samplings from ``rng`` in their order.  The sampler runs their
    sequences in products of ``batch_size * seq_length`` rows; per-step
    sampling, in products of ``batch_size`` rows, draws the same tokens unless
    the two round apart and a uniform lies within the last bits of a
    cumulative probability.  A ``mix`` share of the sequences is then swapped
    for uniform ones, drawn from ``rng`` after the chunk's uniforms, and scored
    again.  A chunk holds its scores, (k, batch_size * seq_length, vocab) twice.
    """
    rng = seeded_rng(cfg.seed, 0x57E4)
    size, length, arch = cfg.batch_size, cfg.seq_length, teacher.arch
    rows = size * length
    for start in range(0, cfg.iterations, STREAM_CHUNK):
        k = min(STREAM_CHUNK, cfg.iterations - start)
        uniforms = rng.random((k, length, size)).transpose(0, 2, 1).reshape(k * size, length)
        tokens, windows, logp, p = (
            a.reshape(-1, size, *a.shape[2:])[:k]
            for a in _sample_tokens(teacher, _in_products(uniforms, rows).transpose(2, 0, 1)))
        swap = _swap_uniform(tokens, mix, arch.vocab, rng)
        if swap.any():
            cache = _forward(teacher, _in_products(windows[swap].reshape(-1, arch.context), rows))
            logp[swap], p[swap] = (cache[key].reshape(-1, length, arch.vocab)[:swap.sum()]
                                   for key in ("logp", "p"))
        yield from zip(*(a.reshape(k, rows, -1) for a in (windows, logp, p)))


def optimize(teacher: ToyModel, grid: QuantGrid, cfg: DiscQuantConfig,
             heldout: SampleBatch | None = None, transform=None,
             data_mix: float = 0.0) -> RoundingReport:
    """Round the teacher's weights on ``grid`` by projected SGD, then snap.

    ``grid`` must be built over the teacher weights as seen in quantization
    space (an ``incoherence.Identity`` by default; pass ``transform`` to round
    in a transformed space).  Each step reads ``cfg.batch_size`` teacher
    samples, a ``data_mix`` share of them swapped for uniform ones, presampled
    in chunks of ``STREAM_CHUNK`` steps with the teacher's distributions on
    them (see :func:`_teacher_chunks`).
    """
    _check_data_mix(data_mix)
    transform = transform or Identity(teacher.arch)
    wq = transform.to_q(teacher.params)
    if grid.n != wq.shape[0]:
        raise ValueError(f"grid covers {grid.n} coordinates, weights have {wq.shape[0]}")
    bracket = bracket_of(wq, grid)
    y = bracket.position()
    cvec = cstar(y)
    x = init_x(cfg.init, bracket, cfg.seed)
    opt = AdamW(bracket.n, lr=cfg.lr, weight_decay=cfg.weight_decay)
    kl_inputs = _teacher_chunks(teacher, cfg, data_mix)

    # lam weights one term; the other is multiplied by 1.0, which is exact
    w_lin, w_kl = (cfg.lam, 1.0) if cfg.lambda_on == "linear" else (1.0, cfg.lam)
    lin_grad = w_lin * cvec
    trace_linear, trace_kl, trace_frac = [], [], []
    # every step rewrites these, built once: the interpolated q-space weights,
    # the student (made at step 1 around from_q's output, which on the plain arm
    # is wq_x itself) with its forward and backward cache, and the step's arrays
    wq_x, grad, tmp = np.empty((3, bracket.n))
    live = np.empty(bracket.n, dtype=bool)
    student = cache = None
    for step, (prefixes, t_logp, t_p) in enumerate(kl_inputs, start=1):
        # interp_weights(bracket, x) in place, bit for bit: each operation rounds as written
        np.subtract(1.0, x, out=tmp)
        tmp *= bracket.w_down
        np.multiply(bracket.w_up, x, out=wq_x)
        wq_x += tmp
        params = transform.from_q(wq_x, out=None if student is None else student.params)
        if student is None:
            student = teacher.with_params(params)
            cache = _new_cache(student, prefixes.shape[:-1])
        kl_value, kl_grad_model = _kl_core(student, prefixes, t_logp, t_p, cache)
        np.multiply(transform.grad_to_q(kl_grad_model, out=grad), bracket.delta, out=grad)
        np.maximum(grad, -cfg.clamp, out=grad)  # clamp the KL gradient entrywise
        np.minimum(grad, cfg.clamp, out=grad)
        grad *= w_kl
        grad += lin_grad
        lin_value, kl_weighted = w_lin * float(cvec @ x), w_kl * kl_value
        if not (math.isfinite(lin_value) and math.isfinite(kl_weighted)
                and np.isfinite(grad, out=live).all()):
            raise NonFiniteObjective(f"non-finite objective at step {step}",
                                     trace_linear, trace_kl)
        trace_linear.append(lin_value)
        trace_kl.append(kl_weighted)
        opt.step(x, grad, lr=warmup_cosine_lr(cfg.lr, cfg.warmup, cfg.iterations, step), out=x)
        np.maximum(x, 0.0, out=x)  # project onto the box
        np.minimum(x, 1.0, out=x)
        np.subtract(1.0, x, out=tmp)
        np.greater(np.minimum(x, tmp, out=tmp), cfg.tau, out=live)
        trace_frac.append(np.count_nonzero(live) / x.size)

    quantized = finalize(x, bracket, cfg.tau)
    model_params = transform.from_q(quantized)
    heldout_kl = None
    if heldout is not None:
        heldout_kl, _ = kl_term(teacher, teacher.with_params(model_params), heldout,
                                gradient=False)
    return RoundingReport(
        x=x,
        fractional_fraction=trace_frac[-1],
        trace_linear=np.array(trace_linear),
        trace_kl=np.array(trace_kl),
        trace_fractional=np.array(trace_frac),
        quantized=quantized,
        model_params=model_params,
        heldout_kl=heldout_kl,
    )
