"""Desk-scale next-token models with hand-rolled reverse-mode gradients.

The model embeds a fixed-length context window, passes it through one or two
tanh layers, and emits a softmax distribution over the vocabulary.  Sizes are
tiny (a few thousand parameters) so every gradient quantity can be computed
in closed form with numpy and cross-checked against finite differences.

Weights are initialized with a heavy-tailed (Student-t) distribution: trained
networks carry outlier weights, and several downstream experiments (notably
outlier-flattening transforms) are vacuous on exactly-Gaussian weights.

All functions are pure; models are immutable value objects, so a fixed seed
reproduces parameters, data, and gradients bit-identically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .grid import QuantGrid, bracket_of
from .serialize import dump_record, floats_to_hex, hex_to_floats, load_record

Array = np.ndarray


@dataclass(frozen=True)
class ToyArch:
    """Architecture hyperparameters. ``layers`` counts hidden tanh layers."""

    vocab: int = 16
    context: int = 4
    hidden: int = 32
    layers: int = 1
    emb: int = 8

    def __post_init__(self):
        if self.vocab < 2 or self.context < 1 or self.hidden < 1 or self.emb < 1:
            raise ValueError("arch sizes must be positive (vocab >= 2)")
        if self.layers not in (1, 2):
            raise ValueError("layers must be 1 or 2")

    @property
    def pad_id(self) -> int:
        """Reserved left-padding token (one extra embedding row)."""
        return self.vocab

    def layout(self) -> Mapping[str, tuple[int, int, tuple[int, ...]]]:
        """name -> (start, stop, shape); slices partition [0, n_params).

        Built once per arch and shared, hence read-only.
        """
        return _layout(self)

    @property
    def n_params(self) -> int:
        return max(stop for _, stop, _ in self.layout().values())

    def to_dict(self) -> dict:
        return {"vocab": self.vocab, "context": self.context, "hidden": self.hidden,
                "layers": self.layers, "emb": self.emb}


@functools.lru_cache(maxsize=None)
def _layout(arch: ToyArch) -> Mapping[str, tuple[int, int, tuple[int, ...]]]:
    shapes = [("embed", (arch.vocab + 1, arch.emb)),
              ("w1", (arch.hidden, arch.context * arch.emb)),
              ("b1", (arch.hidden,))]
    if arch.layers == 2:
        shapes += [("w2", (arch.hidden, arch.hidden)), ("b2", (arch.hidden,))]
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
        return {name: self.params[a:b].reshape(shape)
                for name, (a, b, shape) in self.arch.layout().items()}

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
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x70F]))
    layout = arch.layout()
    params = np.zeros(arch.n_params)
    gains = {"embed": 1.0, "w1": 1.0 / np.sqrt(arch.context * arch.emb),
             "w2": 1.0 / np.sqrt(arch.hidden), "wout": 1.0 / np.sqrt(arch.hidden)}
    for name, (a, b, shape) in layout.items():
        if name in gains:
            params[a:b] = rng.standard_t(df=5, size=b - a) * gains[name] * scale
    return ToyModel(arch, params)


def _log_softmax(logits: Array) -> Array:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _forward(model: ToyModel, prefixes: Array) -> dict:
    v = model.views()
    x = v["embed"][prefixes].reshape(prefixes.shape[0], -1)
    h1 = np.tanh(x @ v["w1"].T + v["b1"])
    hs = [h1]
    if model.arch.layers == 2:
        hs.append(np.tanh(h1 @ v["w2"].T + v["b2"]))
    logits = hs[-1] @ v["wout"].T + v["bout"]
    logp = _log_softmax(logits)
    return {"prefixes": prefixes, "x": x, "hs": hs, "logits": logits,
            "logp": logp, "p": np.exp(logp)}


def _backward(model: ToyModel, cache: dict, dlogits: Array) -> Array:
    """Accumulate d(loss)/d(params) given d(loss)/d(logits), summed over rows."""
    arch, v = model.arch, model.views()
    layout = arch.layout()
    grad = np.zeros(arch.n_params)

    def put(name, g):
        a, b, _ = layout[name]
        grad[a:b] = g.ravel()

    hs = cache["hs"]
    put("wout", dlogits.T @ hs[-1])
    put("bout", dlogits.sum(axis=0))
    dh = dlogits @ v["wout"]
    if arch.layers == 2:
        da = dh * (1.0 - hs[1] ** 2)
        put("w2", da.T @ hs[0])
        put("b2", da.sum(axis=0))
        dh = da @ v["w2"]
    da = dh * (1.0 - hs[0] ** 2)
    put("w1", da.T @ cache["x"])
    put("b1", da.sum(axis=0))
    dx = (da @ v["w1"]).reshape(-1, arch.context, arch.emb)
    dembed = np.zeros((arch.vocab + 1, arch.emb))
    np.add.at(dembed, cache["prefixes"], dx)
    put("embed", dembed)
    return grad


def _per_row_grads(model: ToyModel, cache: dict, dlogits: Array) -> Array:
    """One gradient row per batch row; same math as _backward without the sum."""
    arch, v = model.arch, model.views()
    layout = arch.layout()
    nrows = dlogits.shape[0]
    grads = np.zeros((nrows, arch.n_params))

    def put(name, g):
        a, b, _ = layout[name]
        grads[:, a:b] = g.reshape(nrows, -1)

    hs = cache["hs"]
    put("wout", np.einsum("rv,rh->rvh", dlogits, hs[-1]))
    put("bout", dlogits)
    dh = dlogits @ v["wout"]
    if arch.layers == 2:
        da = dh * (1.0 - hs[1] ** 2)
        put("w2", np.einsum("ri,rj->rij", da, hs[0]))
        put("b2", da)
        dh = da @ v["w2"]
    da = dh * (1.0 - hs[0] ** 2)
    put("w1", np.einsum("ri,rj->rij", da, cache["x"]))
    put("b1", da)
    dx = (da @ v["w1"]).reshape(nrows, arch.context, arch.emb)
    demb = np.zeros((nrows, arch.vocab + 1, arch.emb))
    np.add.at(demb, (np.arange(nrows)[:, None], cache["prefixes"]), dx)
    put("embed", demb)
    return grads


def _jvp_logits(model: ToyModel, cache: dict, tangent: Array) -> Array:
    """Directional derivative of the logits along a parameter tangent."""
    arch, v = model.arch, model.views()
    layout = arch.layout()
    t = {name: tangent[a:b].reshape(shape) for name, (a, b, shape) in layout.items()}
    dx = t["embed"][cache["prefixes"]].reshape(cache["x"].shape)
    hs = cache["hs"]
    da = cache["x"] @ t["w1"].T + dx @ v["w1"].T + t["b1"]
    dh = (1.0 - hs[0] ** 2) * da
    hprev = hs[0]
    if arch.layers == 2:
        da = hprev @ t["w2"].T + dh @ v["w2"].T + t["b2"]
        dh = (1.0 - hs[1] ** 2) * da
        hprev = hs[1]
    return hprev @ t["wout"].T + dh @ v["wout"].T + t["bout"]


def _check_finite(value, what: str):
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(f"non-finite {what}")


def forward_next_token(model: ToyModel, prefix) -> Array:
    """Next-token distribution given a prefix of length <= context.

    Shorter prefixes are left-padded with the reserved pad token.
    """
    arch = model.arch
    prefix = np.asarray(prefix, dtype=np.int64).ravel()
    if prefix.size > arch.context:
        raise ValueError(f"prefix longer than context {arch.context}")
    if prefix.size and (prefix.min() < 0 or prefix.max() >= arch.vocab):
        raise ValueError("token out of range")
    pad = np.full(arch.context - prefix.size, arch.pad_id, dtype=np.int64)
    cache = _forward(model, np.concatenate([pad, prefix])[None, :])
    return cache["p"][0]


def sample_sequences(model: ToyModel, count: int, length: int = 8, seed: int = 0,
                     rng: np.random.Generator | None = None) -> SampleBatch:
    """Autoregressively sample token sequences from the model itself."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    return SampleBatch(sequences=_sample_tokens(model, rng.random((length, count))))


def _sample_tokens(model: ToyModel, uniforms: Array) -> Array:
    """Sample ``count`` sequences of ``length`` tokens by inverse CDF.

    ``uniforms`` has shape (length, count): row i drives position i of every
    sequence.  Rows of the result depend only on their own column of
    ``uniforms``, so one call over many sequences equals separate calls.
    """
    arch = model.arch
    length, count = uniforms.shape
    buf = np.full((count, arch.context + length), arch.pad_id, dtype=np.int64)
    for i in range(length):
        cache = _forward(model, buf[:, i:i + arch.context])
        buf[:, arch.context + i] = (cache["p"].cumsum(axis=1)
                                    < uniforms[i][:, None]).sum(axis=1)
    return np.clip(buf[:, arch.context:], 0, arch.vocab - 1)


def ce_loss_rows(model: ToyModel, batch: SampleBatch) -> Array:
    """Per-row cross-entropy -log p(target | prefix)."""
    prefixes, targets = batch.rows(model.arch)
    cache = _forward(model, prefixes)
    return -cache["logp"][np.arange(len(targets)), targets]


def gradient_rows(model: ToyModel, batch: SampleBatch) -> Array:
    """Per-row cross-entropy gradients, one row of length n_params per sample."""
    prefixes, targets = batch.rows(model.arch)
    cache = _forward(model, prefixes)
    dlogits = cache["p"].copy()
    dlogits[np.arange(len(targets)), targets] -= 1.0
    return _per_row_grads(model, cache, dlogits)


def per_sample_grad(model: ToyModel, sample: tuple) -> Array:
    """Cross-entropy gradient for a single (prefix, target) sample."""
    prefix, target = sample
    arch = model.arch
    prefix = np.asarray(prefix, dtype=np.int64).ravel()
    if prefix.size > arch.context:
        raise ValueError(f"prefix longer than context {arch.context}")
    if prefix.size and (prefix.min() < 0 or prefix.max() >= arch.vocab):
        raise ValueError("token out of range")
    if not 0 <= int(target) < arch.vocab:
        raise ValueError("target out of range")
    pad = np.full(arch.context - prefix.size, arch.pad_id, dtype=np.int64)
    cache = _forward(model, np.concatenate([pad, prefix])[None, :])
    loss = -cache["logp"][0, int(target)]
    _check_finite(loss, "loss")
    dlogits = cache["p"].copy()
    dlogits[0, int(target)] -= 1.0
    return _backward(model, cache, dlogits)


def mean_ce_grad(model: ToyModel, batch: SampleBatch) -> tuple[float, Array]:
    """(mean cross-entropy, gradient of the mean) over all batch rows."""
    prefixes, targets = batch.rows(model.arch)
    cache = _forward(model, prefixes)
    nrows = len(targets)
    loss = float(-cache["logp"][np.arange(nrows), targets].mean())
    _check_finite(loss, "loss")
    dlogits = cache["p"].copy()
    dlogits[np.arange(nrows), targets] -= 1.0
    return loss, _backward(model, cache, dlogits / nrows)


def kl_term(teacher: ToyModel, student: ToyModel, batch: SampleBatch) -> tuple[float, Array]:
    """Mean KL(teacher || student) over batch positions and its student-gradient."""
    if teacher.arch != student.arch:
        raise ValueError("teacher and student must share an architecture")
    prefixes, _ = batch.rows(teacher.arch)
    tc = _forward(teacher, prefixes)
    sc = _forward(student, prefixes)
    nrows = prefixes.shape[0]
    value = float((tc["p"] * (tc["logp"] - sc["logp"])).sum(axis=1).mean())
    _check_finite(value, "KL value")
    grad = _backward(student, sc, (sc["p"] - tc["p"]) / nrows)
    return value, grad


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
    from .optim import AdamW

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
