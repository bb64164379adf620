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
from .serialize import AT_LEAST_1, NONNEGATIVE, _check_value, child_seed, seeded_rng


# the walk's step for model rounding: quantize_model's and the comparison's default
_MODEL_WALK = lmwalk.WalkConfig(delta=0.04)


@dataclass
class QuantizeOutcome:
    model: toymodel.ToyModel
    bits_per_param: float
    fractional: int  # fractional coordinates left before the final snap
    heldout_kl: float | None = None
    flags: tuple[str, ...] = ()


def _rtn(teacher, wq, qgrid, transform, opts):
    return gridmod.rtn(wq, qgrid), 0


def _discquant(teacher, wq, qgrid, transform, opts):
    cfg = opts["dq_cfg"]
    report = discquant.optimize(teacher, qgrid, cfg, transform=transform,
                                data_mix=opts["data_mix"])
    return report.quantized, int(np.count_nonzero(np.minimum(report.x, 1.0 - report.x) > cfg.tau))


def _lmwalk(teacher, wq, qgrid, transform, opts):
    """Walk on rows of per-sequence mean loss gradients, grid-spacing scaled."""
    m, seed = opts["walk_samples"], opts["sample_seed"]
    bracket = gridmod.bracket_of(wq, qgrid)
    tokens = toymodel.sample_sequences(teacher, m, opts["dq_cfg"].seq_length, seed=seed).sequences
    swap_rng = seeded_rng(seed, 0x313)
    toymodel._swap_uniform(tokens, opts["data_mix"], teacher.arch.vocab, swap_rng)
    rows = toymodel.gradient_rows(teacher, toymodel.SampleBatch(tokens))
    per_seq = rows.reshape(m, -1, rows.shape[1]).mean(axis=1)
    per_seq = np.stack([transform.grad_to_q(r) for r in per_seq])
    cs = lmwalk.ConstraintSet(per_seq * bracket.delta, bracket.position())
    result = lmwalk.lm_round(cs, opts["walk_cfg"])
    return discquant.finalize(result.x, bracket, tau=1e-3), result.fractional


# Every rounder maps (teacher, q-space weights, grid, transform, opts) to
# (rounded q-space weights, fractional coordinates left before the final snap).
# opts holds seeded configs; each call looks its callee up on the module at
# call time, so wrappers installed there see it.
ROUNDERS = {"rtn": _rtn, "discquant": _discquant, "lmwalk": _lmwalk}
METHODS = tuple(ROUNDERS)


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
    _check_value("seed", seed, NONNEGATIVE)
    _check_value("walk_samples", walk_samples, AT_LEAST_1)
    toymodel._check_data_mix(data_mix)
    transform = transform or Identity(teacher.arch)
    wq = transform.to_q(teacher.params)
    qgrid = gridmod.build_block_scaling(wq, bits=bits, groupsize=groupsize,
                                        blocks=[(qa, qb) for *_, qa, qb in transform.blocks])
    flags = ()
    if isinstance(transform, ModelIncoherence) and qgrid.groupsize is not None:
        flags = ("groupwise-scales-with-incoherence",)

    dq_cfg = dq_cfg or discquant.DiscQuantConfig()
    opts = {"dq_cfg": dataclasses.replace(dq_cfg, seed=child_seed(seed, 0xD9)),
            "walk_cfg": dataclasses.replace(walk_cfg, seed=child_seed(seed, 0x31)),
            "sample_seed": child_seed(seed, 0xDA), "walk_samples": walk_samples,
            "data_mix": data_mix}
    rounded_q, fractional = ROUNDERS[method](teacher, wq, qgrid, transform, opts)
    model = teacher.with_params(transform.from_q(rounded_q))
    heldout_kl = None
    if heldout is not None:
        heldout_kl, _ = toymodel.kl_term(teacher, model, heldout)
    return QuantizeOutcome(model=model, bits_per_param=gridmod.bits_per_param(qgrid),
                           fractional=fractional, heldout_kl=heldout_kl, flags=flags)
