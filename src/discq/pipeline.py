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
                      seq_length: int, seed: int) -> lmwalk.ConstraintSet:
    """Rows: per-sequence mean loss gradients, grid-spacing scaled."""
    batch = toymodel.sample_sequences(teacher, m, seq_length,
                                      seed=child_seed(seed, 0xDA))
    rows = toymodel.gradient_rows(teacher, batch)
    length = batch.sequences.shape[1]
    per_seq = rows.reshape(m, length, -1).mean(axis=1)
    if transform is not None:
        per_seq = np.stack([transform.grad_to_q(r) for r in per_seq])
    return lmwalk.ConstraintSet(per_seq * bracket.delta, bracket.position())


def quantize_model(teacher: toymodel.ToyModel, bits: int, groupsize, method: str,
                   seed: int = 0, transform=None,
                   dq_cfg: discquant.DiscQuantConfig | None = None,
                   walk_cfg: lmwalk.WalkConfig = _MODEL_WALK,
                   walk_samples: int = 48,
                   heldout: toymodel.SampleBatch | None = None,
                   data_stream=None) -> QuantizeOutcome:
    """Round a whole model onto a block-scaling grid with one of the rounders.

    ``transform`` (an object with to_q / from_q / grad_to_q) moves the
    rounding into an orthogonally transformed weight space; scales are then
    computed on the transformed weights.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if transform is None:
        wq = teacher.params
        blocks = [(a, b) for a, b, _ in teacher.arch.layout().values()]
    else:
        wq = transform.to_q(teacher.params)
        blocks = [(qa, qb) for *_, qa, qb in transform.blocks]
    qgrid = gridmod.build_block_scaling(wq, bits=bits, groupsize=groupsize,
                                        blocks=blocks)
    flags = ()
    if transform is not None and qgrid.groupsize is not None:
        flags = ("groupwise-scales-with-incoherence",)

    fractional = 0
    if method == "rtn":
        rounded_q = gridmod.rtn(wq, qgrid)
    elif method == "discquant":
        cfg = dq_cfg or discquant.DiscQuantConfig()
        cfg = dataclasses.replace(cfg, seed=child_seed(seed, 0xD9))
        report = discquant.optimize(teacher, qgrid, cfg, transform=transform,
                                    data_stream=data_stream)
        rounded_q = report.quantized
        fractional = int(np.count_nonzero(np.minimum(report.x, 1.0 - report.x) > cfg.tau))
    else:
        bracket = gridmod.bracket_of(wq, qgrid)
        cs = _walk_constraints(teacher, bracket, transform, walk_samples,
                               seq_length=8, seed=seed)
        cfg = dataclasses.replace(walk_cfg, seed=child_seed(seed, 0x31))
        result = lmwalk.lm_round(cs, cfg)
        fractional = result.fractional
        rounded_q = discquant.finalize(result.x, bracket, tau=1e-3)

    params = rounded_q if transform is None else transform.from_q(rounded_q)
    model = teacher.with_params(params)
    heldout_kl = None
    if heldout is not None:
        heldout_kl, _ = toymodel.kl_term(teacher, model, heldout)
    return QuantizeOutcome(model=model, bits_per_param=gridmod.bits_per_param(qgrid),
                           fractional=fractional, heldout_kl=heldout_kl, flags=flags)
