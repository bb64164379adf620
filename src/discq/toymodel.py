"""Desk-scale next-token models with hand-rolled reverse-mode gradients.

The model embeds a fixed-length context window, passes it through one or two
tanh layers, and emits a softmax distribution over the vocabulary.  Sizes are
tiny (a few thousand parameters) so every gradient quantity can be computed
in closed form with numpy and cross-checked against finite differences.

Weights are initialized with a heavy-tailed (Student-t) distribution: trained
networks carry outlier weights, and several downstream experiments (notably
outlier-flattening transforms) are vacuous on exactly-Gaussian weights.

All functions are pure and models are value objects, so a fixed seed
reproduces parameters, data, and gradients bit-identically.  The exception
is the student private to ``discquant.optimize``: that loop rewrites its
weights, and its forward and backward arrays, in place every step.

Two options skip what the quantize ops would throw away.
``kl_term(..., gradient=False)`` returns the value alone and runs no
backward: held-out scoring uses it.  ``gradient_rows(..., per_sequence=True)``
returns one mean gradient row per sequence, built one layout block at a time,
so the (rows, n_params) matrix never exists: the walk's constraint rows use
it.  At the default arch, held-out KL over 2048 rows then peaks at 2.7 MiB
(tracemalloc, above its inputs): one forward's arrays (2 MiB) and the
teacher's log-probs and probs (0.5 MiB).  The walk's rows, 48 sequences of
8, peak at 4.5 MiB, 3 MiB of it the per-row outer products of ``w1``, the
largest block.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import Annotated, Literal, Mapping

import numpy as np

from .grid import QuantGrid, bracket_of
from .optim import AdamW
from .serialize import (AT_LEAST_1, AT_LEAST_2, UNIT_INTERVAL, _check_fields, _check_value,
                        dump_record, floats_to_hex, hex_to_floats, load_record, seeded_rng)

Array = np.ndarray

# (weight, bias) names of the hidden tanh layers, input side first; an arch
# with ``layers`` hidden layers uses the first ``layers`` entries
_HIDDEN = (("w1", "b1"), ("w2", "b2"))


@dataclass(frozen=True)
class ToyArch:
    """Architecture hyperparameters. ``layers`` counts hidden tanh layers."""

    vocab: Annotated[int, AT_LEAST_2] = 16
    context: Annotated[int, AT_LEAST_1] = 4
    hidden: Annotated[int, AT_LEAST_1] = 32
    layers: Literal[1, 2] = 1
    emb: Annotated[int, AT_LEAST_1] = 8

    def __post_init__(self):
        _check_fields(self)

    @property
    def pad_id(self) -> int:
        """Reserved left-padding token (one extra embedding row)."""
        return self.vocab

    def layout(self) -> Mapping[str, tuple[int, int, tuple[int, ...]]]:
        """name -> (start, stop, shape); slices partition [0, n_params).

        Built once per arch and shared, hence read-only.
        """
        return _layout(self)

    def split(self, flat: Array) -> dict[str, Array]:
        """Views of a flat (n_params,) vector, one per layout entry, in its shape."""
        return {name: flat[a:b].reshape(shape) for name, (a, b, shape) in _layout(self).items()}

    @functools.cached_property
    def n_params(self) -> int:
        return max(stop for _, stop, _ in self.layout().values())

    def to_dict(self) -> dict:
        return asdict(self)


@functools.lru_cache(maxsize=None)
def _layout(arch: ToyArch) -> Mapping[str, tuple[int, int, tuple[int, ...]]]:
    shapes = [("embed", (arch.vocab + 1, arch.emb))]
    fan_in = arch.context * arch.emb
    for w, b in _HIDDEN[:arch.layers]:
        shapes += [(w, (arch.hidden, fan_in)), (b, (arch.hidden,))]
        fan_in = arch.hidden
    shapes += [("wout", (arch.vocab, arch.hidden)), ("bout", (arch.vocab,))]
    out, at = {}, 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        out[name] = (at, at + size, shape)
        at += size
    return MappingProxyType(out)


@dataclass(frozen=True)
class ToyModel:
    arch: ToyArch
    params: Array

    def __post_init__(self):
        p = np.asarray(self.params, dtype=np.float64)
        if p.shape != (self.arch.n_params,):
            raise ValueError(f"params must have length {self.arch.n_params}, got {p.shape}")
        object.__setattr__(self, "params", p)

    def views(self) -> dict[str, Array]:
        return self.arch.split(self.params)

    def with_params(self, params) -> "ToyModel":
        return ToyModel(self.arch, np.asarray(params, dtype=np.float64))


@dataclass(frozen=True)
class SampleBatch:
    """Rectangular token sequences plus the prediction positions per sequence."""

    sequences: Array  # (num_sequences, length) integer tokens
    positions: tuple[tuple[int, ...], ...] | None = None  # default: every position

    def __post_init__(self):
        seq = np.asarray(self.sequences, dtype=np.int64)
        if seq.ndim != 2 or seq.size == 0:
            raise ValueError("sequences must be a nonempty (count, length) array")
        object.__setattr__(self, "sequences", seq)
        if self.positions is not None and len(self.positions) != seq.shape[0]:
            raise ValueError("one position set per sequence required")

    def rows(self, arch: ToyArch) -> tuple[Array, Array]:
        """Expand into padded prefix windows (R, context) and targets (R,)."""
        seqs = self.sequences
        if np.any(seqs < 0) or np.any(seqs >= arch.vocab):
            raise ValueError("token out of range")
        count, length = seqs.shape
        if self.positions is None:
            seq_ids = np.repeat(np.arange(count), length)
            pos = np.tile(np.arange(length), count)
        else:
            seq_ids = np.repeat(np.arange(count), [len(p) for p in self.positions])
            pos = np.array([i for p in self.positions for i in p], dtype=np.int64)
            bad = (pos < 0) | (pos >= length)
            if bad.any():
                raise ValueError(f"position {pos[bad][0]} outside sequence of length {length}")
        # position i of a sequence left-padded by `context` pads sits at column
        # i + context, so its prefix window is columns i .. i + context - 1
        padded = np.concatenate(
            [np.full((count, arch.context), arch.pad_id, dtype=np.int64), seqs], axis=1)
        prefixes = padded[seq_ids[:, None], pos[:, None] + np.arange(arch.context)]
        return prefixes, seqs[seq_ids, pos]


@dataclass(frozen=True)
class GradRecord:
    """Per-sample gradients with their first two norm statistics."""

    grads: Array  # (samples, n)
    mean_grad: Array = field(init=False)
    mean_sq_norm: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mean_grad", self.grads.mean(axis=0))
        object.__setattr__(self, "mean_sq_norm", float((self.grads ** 2).sum(axis=1).mean()))

    @property
    def sq_norm_of_mean(self) -> float:
        return float(self.mean_grad @ self.mean_grad)


def random_model(arch: ToyArch = ToyArch(), seed: int = 0, scale: float = 1.0) -> ToyModel:
    """Seeded model with heavy-tailed fan-in-scaled weights and zero biases."""
    rng = seeded_rng(seed, 0x70F)
    params = np.zeros(arch.n_params)
    for name, (a, b, shape) in arch.layout().items():
        if len(shape) == 2:  # matrices; biases stay zero
            gain = 1.0 if name == "embed" else 1.0 / np.sqrt(shape[1])
            params[a:b] = rng.standard_t(df=5, size=b - a) * gain * scale
    return ToyModel(arch, params)


def _log_softmax(logits: Array, out: Array | None = None, exps: Array | None = None,
                 norm: Array | None = None) -> Array:
    """Log-softmax over the last axis, into ``out``; ``exps`` (shaped like
    ``logits``) and ``norm`` (last axis 1) take the intermediates."""
    shifted = np.subtract(logits, logits.max(axis=-1, keepdims=True, out=norm), out=out)
    total = np.exp(shifted, out=exps).sum(axis=-1, keepdims=True, out=norm)
    shifted -= np.log(total, out=total)
    return shifted


def _new_cache(model: ToyModel, lead: tuple[int, ...]) -> dict:
    """The model's weight views and empty arrays for the forward over a
    (*lead, context) prefix stack, and for d(loss)/d(logits) there."""
    arch = model.arch
    return {"views": model.views(),
            "acts": [np.empty((*lead, arch.context * arch.emb))]
            + [np.empty((*lead, arch.hidden)) for _ in range(arch.layers)],
            **{key: np.empty((*lead, arch.vocab)) for key in ("logits", "logp", "p", "dlogits")},
            "norm": np.empty((*lead, 1))}


def _forward(model: ToyModel, prefixes: Array, cache: dict | None = None) -> dict:
    """``acts`` holds the flattened embeddings, then each hidden layer's output.

    ``prefixes`` is (rows, context), or a stack (..., rows, context) whose
    slices come out bit-identical to separate calls, one product per slice.
    A row's bits depend on how many rows share its product, not on which:
    the BLAS picks its kernel by shape (OpenBLAS 0.3.31 rounds 1, 2–32 and
    48 rows three ways).  Every product and bias add writes into an array of
    the cache, rounding as the allocating expression would.  ``views`` holds
    the model's weight views for the backward passes.

    Tokens must already be in range: :meth:`SampleBatch.rows` and
    :func:`_prefix_window` check them, and the sampler draws them in range.
    The embedding lookup clips rather than checks, since ``np.take``'s
    checking mode fills a buffer of the whole output before writing it.

    Without ``cache`` every array is new.  A cache an earlier call on the same
    model returned, for prefixes of the same shape, is rewritten in place and
    returned, its weight views kept: they see weights rewritten in place.
    """
    if cache is None:
        cache = _new_cache(model, prefixes.shape[:-1])
    v, acts = cache["views"], cache["acts"]
    np.take(v["embed"], prefixes, axis=0, out=acts[0].reshape(*prefixes.shape, -1), mode="clip")
    for (w, b), x, h in zip(_HIDDEN, acts, acts[1:]):
        np.matmul(x, v[w].T, out=h)
        h += v[b]
        np.tanh(h, out=h)
    logits = np.matmul(acts[-1], v["wout"].T, out=cache["logits"])
    logits += v["bout"]
    logp = _log_softmax(logits, cache["logp"], cache["p"], cache["norm"])
    np.exp(logp, out=cache["p"])
    cache["prefixes"] = prefixes
    return cache


def _embed_grad(index: Array, dx: Array, slots: int) -> Array:
    """(slots, emb) sums of the rows ``dx`` (..., emb) by their ``index`` (...).

    ``np.bincount`` adds each slot's terms in index order, as ``np.add.at``
    would, so the sums are the same to the last bit.
    """
    emb = dx.shape[-1]
    flat = (index[..., None] * emb + np.arange(emb)).ravel()
    return np.bincount(flat, weights=dx.ravel(), minlength=slots * emb).reshape(slots, emb)


def _backward(model: ToyModel, cache: dict, dlogits: Array) -> Array:
    """Accumulate d(loss)/d(params) given d(loss)/d(logits), summed over rows.

    The gradient and every intermediate are written into arrays of ``cache``,
    made by its first backward (a forward alone needs none), so the next
    backward on the same cache overwrites the returned gradient.
    """
    arch, v, acts = model.arch, cache["views"], cache["acts"]
    if "grad" not in cache:
        grad = np.empty(arch.n_params)
        cache.update(grad=grad, grads=arch.split(grad), dh=np.empty_like(acts[-1]),
                     da=np.empty_like(acts[-1]), dx=np.empty_like(acts[0]))
    g, dh, da = cache["grads"], cache["dh"], cache["da"]
    np.matmul(dlogits.T, acts[-1], out=g["wout"])
    dlogits.sum(axis=0, out=g["bout"])
    np.matmul(dlogits, v["wout"], out=dh)
    for i in reversed(range(arch.layers)):
        w, b = _HIDDEN[i]
        # da = dh * (1 - acts[i + 1] ** 2), each operation rounding as written
        np.square(acts[i + 1], out=da)
        np.subtract(1.0, da, out=da)
        da *= dh
        np.matmul(da.T, acts[i], out=g[w])
        da.sum(axis=0, out=g[b])
        np.matmul(da, v[w], out=dh if i else cache["dx"])
    g["embed"][...] = _embed_grad(cache["prefixes"],
                                  cache["dx"].reshape(-1, arch.context, arch.emb), arch.vocab + 1)
    return cache["grad"]


def _row_grad_blocks(model: ToyModel, cache: dict, dlogits: Array):
    """Yield (layout name, per-row gradient block (rows, ...)) for every layout
    entry: the math of :func:`_backward` without the sum over rows.

    Every matmul runs over all rows; only the outer products are per block.
    """
    arch, v, acts = model.arch, cache["views"], cache["acts"]
    nrows = dlogits.shape[0]
    yield "wout", np.einsum("rv,rh->rvh", dlogits, acts[-1])
    yield "bout", dlogits
    dh = dlogits @ v["wout"]
    for i in reversed(range(arch.layers)):
        w, b = _HIDDEN[i]
        da = dh * (1.0 - acts[i + 1] ** 2)
        yield w, np.einsum("ri,rj->rij", da, acts[i])
        yield b, da
        dh = da @ v[w]
    slots = arch.vocab + 1
    index = cache["prefixes"] + slots * np.arange(nrows)[:, None]
    yield "embed", _embed_grad(index, dh.reshape(nrows, arch.context, arch.emb), nrows * slots)


def _per_row_grads(model: ToyModel, cache: dict, dlogits: Array) -> Array:
    """One gradient row per batch row; same math as _backward without the sum."""
    layout, nrows = model.arch.layout(), dlogits.shape[0]
    grads = np.zeros((nrows, model.arch.n_params))
    for name, g in _row_grad_blocks(model, cache, dlogits):
        a, b, _ = layout[name]
        grads[:, a:b] = g.reshape(nrows, -1)
    return grads


def _jvp_logits(model: ToyModel, cache: dict, tangent: Array) -> Array:
    """Directional derivative of the logits along a parameter tangent."""
    arch, v = model.arch, cache["views"]
    t = arch.split(tangent)
    acts = cache["acts"]
    dh = t["embed"][cache["prefixes"]].reshape(acts[0].shape)
    for i, (w, b) in enumerate(_HIDDEN[:arch.layers]):
        da = acts[i] @ t[w].T + dh @ v[w].T + t[b]
        dh = (1.0 - acts[i + 1] ** 2) * da
    return acts[-1] @ t["wout"].T + dh @ v["wout"].T + t["bout"]


def _check_finite(value, what: str):
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(f"non-finite {what}")


def _prefix_window(arch: ToyArch, prefix) -> Array:
    """Check a prefix of length <= context and left-pad it to one (1, context) row."""
    prefix = np.asarray(prefix, dtype=np.int64).ravel()
    if prefix.size > arch.context:
        raise ValueError(f"prefix longer than context {arch.context}")
    if prefix.size and (prefix.min() < 0 or prefix.max() >= arch.vocab):
        raise ValueError("token out of range")
    pad = np.full(arch.context - prefix.size, arch.pad_id, dtype=np.int64)
    return np.concatenate([pad, prefix])[None, :]


def forward_next_token(model: ToyModel, prefix) -> Array:
    """Next-token distribution given a prefix of length <= context.

    Shorter prefixes are left-padded with the reserved pad token.
    """
    return _forward(model, _prefix_window(model.arch, prefix))["p"][0]


def sample_sequences(model: ToyModel, count: int, length: int = 8, seed: int = 0) -> SampleBatch:
    """Autoregressively sample token sequences from the model itself."""
    _check_value("count", count, AT_LEAST_1)
    _check_value("length", length, AT_LEAST_1)
    rng = seeded_rng(seed, 0xDA7A)
    uniforms = rng.random((length, count))
    return SampleBatch(sequences=_sample_tokens(model, uniforms, scores=False)[0])


def _sample_tokens(model: ToyModel, uniforms: Array, scores: bool = True) -> tuple:
    """Sample sequences by inverse CDF: tokens, prefix windows and, unless
    ``scores`` is false, the model's log-probs and probs at each position.

    ``uniforms`` is (length, *lead), lead (count,) or (k, count) for k stacked
    batches; ``uniforms[i]`` drives position i.  Returns (*lead, length)
    tokens and per position its window (the prefix :meth:`SampleBatch.rows`
    builds, as tokens are clipped as written; both view one buffer), then
    the log-probs and probs.  A stacked batch is a slice of each
    :func:`_forward`, so it equals a separate call bit for bit; every position
    reuses the first one's cache.
    """
    arch = model.arch
    length = uniforms.shape[0]
    buf = np.full((*uniforms.shape[1:], arch.context + length), arch.pad_id, dtype=np.int64)
    kept = np.empty((2, *uniforms.shape[1:], length, arch.vocab)) if scores else ()
    cache = None
    for i in range(length):
        cache = _forward(model, buf[..., i:i + arch.context], cache)
        for out, key in zip(kept, ("logp", "p")):
            out[..., i, :] = cache[key]
        drawn = (cache["p"].cumsum(axis=-1) < uniforms[i][..., None]).sum(axis=-1)
        np.minimum(drawn, arch.vocab - 1, out=buf[..., arch.context + i])
    windows = np.lib.stride_tricks.sliding_window_view(buf[..., :-1], arch.context, axis=-1)
    return buf[..., arch.context:], windows, *kept


def _check_data_mix(share: float) -> None:
    """The share of calibration sequences :func:`_swap_uniform` swaps must lie
    in [0, 1], the bound ``ComparisonParams.data_mix`` declares."""
    _check_value("data_mix", share, UNIT_INTERVAL)


def _swap_uniform(tokens: Array, share: float, vocab: int, rng: np.random.Generator) -> Array:
    """Swap a ``share`` of the (..., length) ``tokens`` for uniform ones in place; return a mask."""
    swap = rng.random(tokens.shape[:-1]) < share if share > 0 else np.zeros(tokens.shape[:-1], bool)
    tokens[swap] = rng.integers(0, vocab, size=(int(swap.sum()), tokens.shape[-1]))  # none at 0
    return swap


def _ce_head(model: ToyModel, prefixes: Array, targets: Array) -> tuple[dict, Array, Array]:
    """Forward cache, per-row loss -log p(target) and dlogits = p - onehot(target)."""
    cache = _forward(model, prefixes)
    rows = np.arange(len(targets))
    dlogits = cache["p"].copy()
    dlogits[rows, targets] -= 1.0
    return cache, -cache["logp"][rows, targets], dlogits


def ce_loss_rows(model: ToyModel, batch: SampleBatch) -> Array:
    """Per-row cross-entropy -log p(target | prefix)."""
    return _ce_head(model, *batch.rows(model.arch))[1]


def gradient_rows(model: ToyModel, batch: SampleBatch, per_sequence: bool = False) -> Array:
    """Per-row cross-entropy gradients, one row of length n_params per sample.

    With ``per_sequence``, one row per sequence of a batch that predicts every
    position: the mean over its positions, bit for bit ``gradient_rows(...)
    .reshape(count, length, -1).mean(axis=1)``, built one layout block at a
    time so the (rows, n_params) matrix never exists.  That mean adds the
    positions in order onto 0.0, then divides; each block does the same, as a
    one-column block's own ``mean`` would sum pairwise.
    """
    if per_sequence and batch.positions is not None:
        raise ValueError("per_sequence needs a batch without explicit positions")
    cache, _, dlogits = _ce_head(model, *batch.rows(model.arch))
    if not per_sequence:
        return _per_row_grads(model, cache, dlogits)
    count, length = batch.sequences.shape
    layout = model.arch.layout()
    out = np.zeros((count, model.arch.n_params))
    for name, g in _row_grad_blocks(model, cache, dlogits):
        a, b, _ = layout[name]
        block = out[:, a:b]
        for at_position in g.reshape(count, length, -1).swapaxes(0, 1):
            block += at_position
    out /= length
    return out


def per_sample_grad(model: ToyModel, sample: tuple) -> Array:
    """Cross-entropy gradient for a single (prefix, target) sample."""
    prefix, target = sample
    window = _prefix_window(model.arch, prefix)
    if not 0 <= int(target) < model.arch.vocab:
        raise ValueError("target out of range")
    cache, loss, dlogits = _ce_head(model, window, np.array([int(target)]))
    _check_finite(loss, "loss")
    return _backward(model, cache, dlogits)


def mean_ce_grad(model: ToyModel, batch: SampleBatch) -> tuple[float, Array]:
    """(mean cross-entropy, gradient of the mean) over all batch rows."""
    cache, losses, dlogits = _ce_head(model, *batch.rows(model.arch))
    loss = float(losses.mean())
    _check_finite(loss, "loss")
    return loss, _backward(model, cache, dlogits / len(losses))


def kl_term(teacher: ToyModel, student: ToyModel, batch: SampleBatch,
            gradient: bool = True) -> tuple[float, Array | None]:
    """Mean KL(teacher || student) over batch positions and its student-gradient.

    With ``gradient=False`` the gradient is None and no backward runs.
    """
    if teacher.arch != student.arch:
        raise ValueError("teacher and student must share an architecture")
    prefixes, _ = batch.rows(teacher.arch)
    tc = _forward(teacher, prefixes)
    t_logp, t_p = tc["logp"], tc["p"]
    del tc  # the teacher's other forward arrays go before the student's are made
    value, grad = _kl_core(student, prefixes, t_logp, t_p, gradient=gradient)
    _check_finite(value, "KL value")
    return value, grad


def _kl_core(student: ToyModel, prefixes: Array, t_logp: Array, t_p: Array,
             cache: dict | None = None, gradient: bool = True) -> tuple[float, Array | None]:
    """:func:`kl_term` from the teacher's log-probs and probs, without its finite check.

    ``cache`` is the student's, as for :func:`_forward`; the gradient is its array.
    """
    sc = _forward(student, prefixes, cache)
    rows = prefixes.shape[0]
    d = np.subtract(t_logp, sc["logp"], out=sc["dlogits"])
    d *= t_p
    value = float(d.sum(axis=1, out=sc["norm"][:, 0]).sum() / rows)
    if not gradient:
        return value, None
    np.subtract(sc["p"], t_p, out=d)
    d /= rows
    return value, _backward(student, sc, d)


def hessian_quadratic_form(teacher: ToyModel, batch: SampleBatch, direction) -> float:
    """Mean over positions of Var_{t ~ p}(logit tangent along ``direction``).

    Equals the expectation, with the next token enumerated exactly over the
    vocabulary, of the squared inner product between the per-token log-prob
    gradient and ``direction`` -- the curvature that drives the small-
    perturbation KL divergence.
    """
    direction = np.asarray(direction, dtype=np.float64)
    if not np.all(np.isfinite(direction)):
        raise ValueError("direction must be finite")
    prefixes, _ = batch.rows(teacher.arch)
    cache = _forward(teacher, prefixes)
    u = _jvp_logits(teacher, cache, direction)
    mean_u = (cache["p"] * u).sum(axis=1)
    second = (cache["p"] * u ** 2).sum(axis=1)
    return float((second - mean_u ** 2).mean())


def grad_stats(model: ToyModel, batch: SampleBatch) -> GradRecord:
    """Per-sample gradient record exposing |mean g|^2 and mean |g|^2."""
    return GradRecord(grads=gradient_rows(model, batch))


def first_order_study(model: ToyModel, grid: QuantGrid, rounding, batch: SampleBatch) -> Array:
    """Per-sample pairs (actual loss change, first-order prediction).

    ``rounding`` must stay inside the bracket of the model's weights on the
    given grid; the first-order prediction is the inner product of the
    per-sample gradient with the weight perturbation.
    """
    rounding = np.asarray(rounding, dtype=np.float64)
    br = bracket_of(model.params, grid)
    if np.any(rounding < br.w_down - 1e-12) or np.any(rounding > br.w_up + 1e-12):
        raise ValueError("rounding leaves the bracket of the model weights")
    move = rounding - model.params
    base = ce_loss_rows(model, batch)
    perturbed = ce_loss_rows(model.with_params(rounding), batch)
    firsts = gradient_rows(model, batch) @ move
    pairs = np.column_stack([perturbed - base, firsts])
    _check_finite(pairs, "first-order study pairs")
    return pairs


def train_to_convergence(model: ToyModel, batch: SampleBatch, max_steps: int = 2000,
                         grad_tol: float = 1e-4, lr: float = 0.05) -> ToyModel:
    """Full-batch adaptive-moment descent on mean cross-entropy.

    Stops after ``max_steps`` steps or when the full-batch gradient 2-norm
    drops below ``grad_tol``, whichever comes first.
    """
    params = model.params.copy()
    opt = AdamW(params.shape[0], lr=lr)
    for _ in range(max_steps):
        _, g = mean_ce_grad(model.with_params(params), batch)
        if np.linalg.norm(g) < grad_tol:
            break
        params = opt.step(params, g)
    return model.with_params(params)


def model_to_record(model: ToyModel) -> dict:
    return {"arch": model.arch.to_dict(), "params": floats_to_hex(model.params)}


def model_from_record(rec: dict) -> ToyModel:
    return ToyModel(ToyArch(**rec["arch"]), hex_to_floats(rec["params"]))


def save_checkpoint(model: ToyModel, path) -> None:
    dump_record(model_to_record(model), path)


def load_checkpoint(path) -> ToyModel:
    return model_from_record(load_record(path))
