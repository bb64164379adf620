"""Command line entry point: experiments, single walks, spectrum studies,
and whole-model quantization over toy checkpoints."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .discquant import DiscQuantConfig
from .grid import PER_TENSOR
from .harness import ExperimentConfig, ScalingParams, emit, run_experiment, worker_count
from .incoherence import ModelIncoherence
from .lmwalk import ConstraintSet, WalkConfig, lm_round
from .pipeline import METHODS, quantize_model
from .serialize import AT_LEAST_1, NONNEGATIVE, Bound, dump_record, floats_to_hex
from .speclab import (SpectrumSpec, _check_gen_m_grid, _check_m_grid, falpha_scaling_study,
                      generalization_study, jl_spectrum)
from .toymodel import (ToyArch, gradient_rows, load_checkpoint, random_model,
                       sample_sequences, save_checkpoint)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _int_in(bound: Bound):
    """An argparse ``type``: an int that ``bound`` holds, so a flag given a value
    outside it exits naming the flag, before any work."""
    def parse(text: str) -> int:
        value = int(text)
        if value not in bound:
            raise argparse.ArgumentTypeError(f"must be {bound.text}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" for a non-int
    return parse


def _m_grid(check):
    """An argparse ``type``: a comma-separated m grid that ``check`` accepts, so a
    bad grid exits naming the flag, before any work."""
    def parse(text: str) -> list[int]:
        try:
            return check(_int_list(text))
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return parse


_seed, _count = _int_in(NONNEGATIVE), _int_in(AT_LEAST_1)


def _config(cls, args):
    """``cls`` built from the flags given whose ``dest`` names one of its fields;
    a flag left out is absent from ``args``, so its field keeps its default."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in dataclasses.fields(cls) if f.name in given})


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        cfg = ExperimentConfig.from_dict(json.load(fh))
    outdir = args.out or cfg.outdir
    formats = args.format.split(",")
    if not set(formats) <= {"json", "csv"}:
        raise ValueError(f"--format takes json and csv, got {args.format!r}")
    if outdir and not os.path.isdir(outdir):
        raise ValueError(f"output directory {outdir!r} does not exist")
    worker_count()
    report = run_experiment(cfg)
    for fmt in formats:
        out = f"{outdir}/{cfg.experiment}.{fmt}" if outdir else f"{cfg.experiment}.{fmt}"
        emit(report, fmt, out)
        print(f"wrote {out}")
    failures = report.failed_rows
    if failures:
        print(f"{len(failures)} trial rows failed", file=sys.stderr)
        return 1
    return 0


def _cmd_walk(args) -> int:
    cfg = _config(WalkConfig, args)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0x11]))
    matrix = rng.standard_normal((args.m, args.n))
    y = rng.random(args.n)
    cs = ConstraintSet(matrix, y)
    result = lm_round(cs, cfg)
    record = {
        "n": args.n, "m": args.m, "seed": args.seed,
        "fractional": result.fractional,
        "phases": result.phases,
        "accepted_freeze_counts": result.accepted_freeze_counts,
        "residual_l2": result.residual_l2,
        "residual_inf": cs.residual(result.x),
        "frozen": [bool(b) for b in result.frozen],
        "x": floats_to_hex(result.x),
    }
    dump_record(record, args.out)
    print(f"wrote {args.out} (fractional={result.fractional}, phases={result.phases})")
    return 0


def _cmd_speclab(args) -> int:
    if args.study in ("falpha", "gen"):
        spec = SpectrumSpec(n=args.n, alpha=args.alpha)
        if args.study == "falpha":
            res = falpha_scaling_study(spec, args.m_grid, args.trials, seed=args.seed)
            rows = res.rows(seed=args.seed, alpha=args.alpha)
        else:
            res = generalization_study(spec, args.m_grid, args.trials,
                                       _config(WalkConfig, args), seed=args.seed)
            rows = res.rows("mean_quad", "median_quad", seed=args.seed, alpha=args.alpha)
        emit({"rows": rows}, "csv", args.out)
        print(f"slope={res.slope:.4f} stderr={res.stderr:.4f} -> {args.out}")
    else:  # jl
        model = load_checkpoint(args.ckpt)
        batch = sample_sequences(model, args.samples, seed=args.seed)
        grads = gradient_rows(model, batch)
        evals = jl_spectrum(grads, d=args.d, seed=args.seed)
        rows = [{"seed": args.seed, "rank": k + 1, "eigenvalue": float(v)}
                for k, v in enumerate(evals)]
        emit({"rows": rows}, "csv", args.out)
        print(f"wrote {args.out} ({len(rows)} eigenvalues)")
    return 0


def _cmd_quantize(args) -> int:
    dq_cfg = _config(DiscQuantConfig, args)
    if args.teacher:
        teacher = load_checkpoint(args.teacher)
    else:
        teacher = random_model(ToyArch(), seed=args.seed)
    transform = None
    if args.incoherence == "on":
        transform = ModelIncoherence(teacher.arch, seed=args.incoh_seed)
    heldout = sample_sequences(teacher, args.heldout, seed=args.seed + 1)
    outcome = quantize_model(teacher, args.bits, args.groupsize, args.method,
                             seed=args.seed, transform=transform,
                             dq_cfg=dq_cfg, heldout=heldout)
    record = {
        "method": args.method,
        "bits": args.bits,
        "groupsize": args.groupsize if args.groupsize else PER_TENSOR,
        "bits_per_param": outcome.bits_per_param,
        "incoherence": args.incoherence,
        "fractional": outcome.fractional,
        "heldout_kl": outcome.heldout_kl,
        "flags": list(outcome.flags),
        "params": floats_to_hex(outcome.model.params),
    }
    dump_record(record, args.out)
    print(f"wrote {args.out} (held-out KL {outcome.heldout_kl:.6f})")
    return 0


def _cmd_teacher(args) -> int:
    save_checkpoint(random_model(_config(ToyArch, args), seed=args.seed), args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dq", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment from a JSON config")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory (default: cwd)")
    p.add_argument("--format", default="json", help="comma-separated: json,csv")
    p.set_defaults(fn=_cmd_run)

    # walk, quantize and teacher: a flag without a default sets the config
    # field its dest names, and only when it is given (see _config)
    p = sub.add_parser("walk", help="round a random constrained instance",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--m", type=_count, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--delta", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--steps", dest="steps_per_phase", metavar="STEPS", type=int)
    p.add_argument("--max-phases", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_walk)

    p = sub.add_parser("speclab", help="spectrum studies")
    ssub = p.add_subparsers(dest="study", required=True)
    q = ssub.add_parser("falpha", help="covariance estimator error rate")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--n", type=_count, default=ScalingParams.estimator_n)
    q.add_argument("--m-grid", type=_m_grid(_check_m_grid),
                   default=ScalingParams.estimator_m_grid)
    q.add_argument("--trials", type=_count, default=ScalingParams.estimator_trials)
    q.add_argument("--seed", type=_seed, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_speclab)
    q = ssub.add_parser("gen", help="rounding generalization scaling")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--n", type=_count, default=ScalingParams.gen_n)
    q.add_argument("--m-grid", type=_m_grid(_check_gen_m_grid), default=ScalingParams.gen_m_grid)
    q.add_argument("--trials", type=_count, default=ScalingParams.gen_trials)
    q.add_argument("--delta", type=float, default=ScalingParams.walk.delta)
    q.add_argument("--seed", type=_seed, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_speclab)
    q = ssub.add_parser("jl", help="projected gradient spectrum of a checkpoint")
    q.add_argument("--ckpt", required=True)
    q.add_argument("--d", type=_count, default=64)
    q.add_argument("--samples", type=_count, default=128)
    q.add_argument("--seed", type=_seed, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_speclab)

    p = sub.add_parser("quantize", help="quantize a toy checkpoint",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--groupsize", type=int, default=None)
    p.add_argument("--method", choices=METHODS, default="discquant")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--iters", dest="iterations", metavar="ITERS", type=int)
    p.add_argument("--warmup", type=int)
    p.add_argument("--clamp", type=float)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--teacher", default=None, help="checkpoint path (default: seeded)")
    p.add_argument("--heldout", type=_count, default=256)
    p.add_argument("--incoherence", choices=("on", "off"), default="off")
    p.add_argument("--incoh-seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_quantize)

    p = sub.add_parser("teacher", help="write a seeded teacher checkpoint",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--vocab", type=int)
    p.add_argument("--context", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--emb", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_teacher)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
