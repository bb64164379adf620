"""Model-level rounding pipelines: grid construction over a (possibly
transformed) flat weight vector, one of three rounders, and held-out KL
evaluation.

The grid is always rebuilt from the weights actually being rounded -- the
original vector, or its incoherence-transformed image -- never from
intermediate iterates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import discquant, grid as gridmod, lmwalk, toymodel
from .incoherence import Identity, ModelIncoherence
from .serialize import child_seed

Array = np.ndarray

METHODS = ("rtn", "discquant", "lmwalk")
# the walk's step for model rounding: quantize_model's and the comparison's default
_MODEL_WALK = lmwalk.WalkConfig(delta=0.04)


@dataclass
class QuantizeOutcome:
    model: toymodel.ToyModel
    bits_per_param: float
    fractional: int  # fractional coordinates left before the final snap
    heldout_kl: float | None = None
    flags: tuple[str, ...] = ()


def _walk_constraints(teacher: toymodel.ToyModel, bracket, transform, m: int,
                      seq_length: int, mix: float, seed: int) -> lmwalk.ConstraintSet:
    """Rows: per-sequence mean loss gradients, grid-spacing scaled."""
    seed = child_seed(seed, 0xDA)
    tokens = toymodel.sample_sequences(teacher, m, seq_length, seed=seed).sequences
    swap_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x313]))
    toymodel._swap_uniform(tokens, mix, teacher.arch.vocab, swap_rng)
    rows = toymodel.gradient_rows(teacher, toymodel.SampleBatch(tokens))
    per_seq = rows.reshape(m, -1, rows.shape[1]).mean(axis=1)
    per_seq = np.stack([transform.grad_to_q(r) for r in per_seq])
    return lmwalk.ConstraintSet(per_seq * bracket.delta, bracket.position())


def quantize_model(teacher: toymodel.ToyModel, bits: int, groupsize, method: str,
                   seed: int = 0, transform=None,
                   dq_cfg: discquant.DiscQuantConfig | None = None,
                   walk_cfg: lmwalk.WalkConfig = _MODEL_WALK,
                   walk_samples: int = 48,
                   heldout: toymodel.SampleBatch | None = None,
                   data_mix: float = 0.0) -> QuantizeOutcome:
    """Round a whole model onto a block-scaling grid with one of the rounders.

    ``transform`` (an :class:`~discq.incoherence.Identity` by default, or a
    :class:`~discq.incoherence.ModelIncoherence`) names the weight space the
    rounding runs in; scales are computed on the weights as seen there, one
    run of groups per block.

    Both data-dependent rounders calibrate on ``dq_cfg.seq_length``-token
    teacher samples, a ``data_mix`` share of them swapped for uniform ones.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    toymodel._check_data_mix(data_mix)
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
