"""Experiment orchestration: validated configs, seeded trials, three headline
studies, and deterministic report emission.

Per-trial seeds derive from the master seed through a counter, so growing the
trial count never perturbs existing trials.  Reports carry one row per
measurement with its seed; summaries are recomputable from the rows, and
re-running an experiment with the same config reproduces the rows byte for
byte (wall-clock time lives outside the rows).
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from . import __version__
from .discquant import DiscQuantConfig
from .incoherence import Identity, ModelIncoherence
from .lmwalk import WalkConfig
from .pipeline import _MODEL_WALK, METHODS, ROUNDERS, quantize_model
from .serialize import (AT_LEAST_1, AT_LEAST_2, NONNEGATIVE, UNIT_INTERVAL, _check_arms,
                        _check_fields, _json_value, _type_hints, child_seed, dump_record)
from .speclab import (SpectrumSpec, _check_falpha_args, _check_generalization_args,
                      falpha_scaling_study, generalization_study)
from .toymodel import ToyArch, first_order_study, random_model, sample_sequences
from .grid import PER_TENSOR, explicit_grid, groupsize_of

SCHEMA_VERSION = 1
WORKERS_ENV = "DQ_WORKERS"


@dataclass(frozen=True)
class ComparisonParams:
    bits_levels: tuple[Annotated[int, AT_LEAST_2], ...] = (2, 3, 4)
    groupsize: int | str | None = 16  # "per-tensor" is stored as None
    methods: tuple[Literal[METHODS], ...] = ("rtn", "discquant")
    heldout: Annotated[int, AT_LEAST_1] = 256
    # held-out length; calibration uses discquant.seq_length
    seq_length: Annotated[int, AT_LEAST_1] = 8
    walk_samples: Annotated[int, AT_LEAST_1] = 48
    incoherence: bool = False
    incoh_seed: Annotated[int, NONNEGATIVE] = 0
    # share of calibration sequences drawn uniformly at random
    data_mix: Annotated[float, UNIT_INTERVAL] = 0.0
    arch: ToyArch = ToyArch()
    discquant: DiscQuantConfig = DiscQuantConfig()
    walk: WalkConfig = _MODEL_WALK

    def __post_init__(self):
        object.__setattr__(self, "groupsize", groupsize_of(self.groupsize))
        _check_fields(self)
        _check_arms("params.bits_levels", self.bits_levels)
        _check_arms("params.methods", self.methods)


@dataclass(frozen=True)
class FirstOrderParams:
    deltas: tuple[float, ...] = (0.08, 0.04, 0.02)
    sequences: Annotated[int, AT_LEAST_2] = 24
    seq_length: Annotated[int, AT_LEAST_1] = 8
    methods: tuple[Literal["rtn", "discquant"], ...] = ("rtn",)
    include_zero_arm: bool = False
    arch: ToyArch = ToyArch()

    def __post_init__(self):
        _check_fields(self)
        # each spacing positive and finer than the one before it, the first finite
        coarser = (np.inf, *self.deltas)
        if not self.deltas or not all(0 < b < a for a, b in zip(coarser, self.deltas)):
            raise ValueError("grid spacings must be positive and finite, listed coarsest first")
        _check_arms("params.methods", self.arms)

    @property
    def arms(self) -> tuple[str, ...]:
        return self.methods + (("identity",) if self.include_zero_arm else ())


@dataclass(frozen=True)
class ScalingParams:
    estimator_alphas: tuple[float, ...] = (1.25, 2.5)
    estimator_n: int = 256
    estimator_m_grid: tuple[int, ...] = (32, 64, 128, 256, 512)
    estimator_trials: int = 24
    gen_alpha: float = 2.0
    gen_n: int = 1024
    gen_m_grid: tuple[int, ...] = (8, 16, 32, 64)
    gen_trials: int = 20
    walk: WalkConfig = WalkConfig(delta=0.04)
    run_estimator: bool = True
    run_generalization: bool = True

    def __post_init__(self):
        _check_fields(self)
        if self.run_estimator:
            _check_arms("params.estimator_alphas", self.estimator_alphas)
            for alpha in self.estimator_alphas:
                SpectrumSpec(n=self.estimator_n, alpha=alpha)
            _check_falpha_args(self.estimator_m_grid, self.estimator_trials)
        if self.run_generalization:
            SpectrumSpec(n=self.gen_n, alpha=self.gen_alpha)
            _check_generalization_args(self.gen_n, self.gen_m_grid, self.gen_trials)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: Literal[tuple(EXPERIMENTS)]
    seed: Annotated[int, NONNEGATIVE] = 0
    trials: Annotated[int, AT_LEAST_1] = 8
    outdir: str | None = None  # default output directory for emitted reports
    params: ComparisonParams | FirstOrderParams | ScalingParams | None = None

    def __post_init__(self):
        _check_fields(self)
        expected = EXPERIMENTS[self.experiment][0]
        object.__setattr__(self, "params", expected() if self.params is None else self.params)
        if not isinstance(self.params, expected):
            raise ValueError(f"params must be a {expected.__name__}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        experiment = _json_value("experiment", raw.pop("experiment", None),
                                 _type_hints(cls)["experiment"])
        unknown = set(raw) - {"seed", "trials", "outdir", "params"}
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        params = _json_value("params", raw.pop("params", {}), EXPERIMENTS[experiment][0])
        return cls(experiment=experiment, params=params, **raw)


# the report's echo of its config: every value is already a plain Python value
_config_echo = dataclasses.asdict


@dataclass(kw_only=True)
class Report:
    """One experiment's record; the fields are in the record's key order."""

    schema_version: int = SCHEMA_VERSION
    experiment: str
    artifact_version: str = __version__
    config: dict
    rows: list[dict]
    summary: dict
    wall_clock: float = 0.0

    def to_record(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @property
    def failed_rows(self) -> list[dict]:
        return [r for r in self.rows if r.get("error")]


def worker_count() -> int:
    """The trial process count from ``DQ_WORKERS``, 1 when it is unset."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an int, got {raw!r}") from None


def _trial_rows(fn, cfg: ExperimentConfig) -> list[dict]:
    """Rows of ``fn((cfg, trial))`` over every trial, optionally in a process pool."""
    jobs = [(cfg, trial) for trial in range(cfg.trials)]
    workers = worker_count()
    if workers <= 1 or len(jobs) <= 1:
        chunks = [fn(job) for job in jobs]
    else:
        # imported here: it pulls in multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(fn, jobs))
    return [row for chunk in chunks for row in chunk]


def _comparison_trial(args) -> list[dict]:
    cfg, trial = args
    p: ComparisonParams = cfg.params
    seed = child_seed(cfg.seed, trial)
    teacher = random_model(p.arch, seed=seed)
    heldout = sample_sequences(teacher, p.heldout, p.seq_length,
                               seed=child_seed(seed, 0xE7A1))
    transform = ModelIncoherence(p.arch, seed=child_seed(p.incoh_seed, trial)) \
        if p.incoherence else None
    rows = []
    for bits in p.bits_levels:
        for method in p.methods:
            row = {"seed": seed, "trial": trial, "bits": bits, "method": method,
                   "groupsize": PER_TENSOR if p.groupsize is None else p.groupsize,
                   "incoherence": p.incoherence}
            try:
                outcome = quantize_model(
                    teacher, bits, p.groupsize, method, seed=seed,
                    transform=transform, dq_cfg=p.discquant, walk_cfg=p.walk,
                    walk_samples=p.walk_samples, heldout=heldout, data_mix=p.data_mix)
                row.update(bits_per_param=outcome.bits_per_param,
                           heldout_kl=outcome.heldout_kl,
                           fractional=outcome.fractional,
                           flags=list(outcome.flags), error=None)
            except Exception as exc:  # record the failure, keep the run alive
                row.update(bits_per_param=None, heldout_kl=None, fractional=None,
                           flags=[], error=f"{type(exc).__name__}: {exc}")
            rows.append(row)
    return rows


def run_comparison(cfg: ExperimentConfig) -> Report:
    """RTN / DiscQuant / walk arms over seeded teachers and bit widths."""
    if cfg.experiment != "comparison":
        raise ValueError("config is not a comparison experiment")
    start = time.perf_counter()
    p: ComparisonParams = cfg.params
    rows = _trial_rows(_comparison_trial, cfg)
    rows.sort(key=lambda r: (r["seed"], r["bits"], r["method"]))
    summary = {}
    for bits in p.bits_levels:
        for method in p.methods:
            kls = [r["heldout_kl"] for r in rows
                   if r["bits"] == bits and r["method"] == method and r["error"] is None]
            summary[f"median_kl_bits{bits}_{method}"] = _median_or_none(kls)
    return Report(experiment="comparison", config=_config_echo(cfg), rows=rows,
                  summary=summary, wall_clock=time.perf_counter() - start)


def pipeline_with_incoherence(teacher, bits: int, groupsize, method: str,
                              seeds, incoh_seed: int = 0, heldout_count: int = 256,
                              seq_length: int = 8, **quantize_kwargs) -> dict:
    """Round a teacher with and without incoherence processing; compare KL.

    One row per trial seed, carrying the held-out KL of both arms and the
    incoherent arm's flags.  Combining group-wise scales with incoherence is
    allowed but flagged in the rows (both features act on outliers and can
    interfere).
    """
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
    if not rows:
        raise ValueError("seeds must name at least one trial")
    kl_plain = [r["kl_plain"] for r in rows]
    kl_rot = [r["kl_incoherent"] for r in rows]
    return {
        "rows": rows,
        "median_plain": float(np.median(kl_plain)),
        "median_incoherent": float(np.median(kl_rot)),
    }


def _uniform_grid_for(params: np.ndarray, spacing: float, n: int):
    lo = int(np.floor(params.min() / spacing)) - 1
    hi = int(np.ceil(params.max() / spacing)) + 1
    return explicit_grid(np.arange(lo, hi + 1, dtype=np.float64) * spacing, n=n)


def _pearson(a: np.ndarray, b: np.ndarray) -> float | None:
    if a.std() == 0 or b.std() == 0:
        return None
    return float(np.corrcoef(a, b)[0, 1])


def _first_order_trial(args) -> list[dict]:
    cfg, trial = args
    p: FirstOrderParams = cfg.params
    seed = child_seed(cfg.seed, trial)
    teacher = random_model(p.arch, seed=seed)
    batch = sample_sequences(teacher, p.sequences, p.seq_length,
                             seed=child_seed(seed, 0xF0))
    opts = {"dq_cfg": DiscQuantConfig(iterations=256, warmup=32, seed=child_seed(seed, 0xD0)),
            "data_mix": 0.0}
    rows = []
    for spacing in p.deltas:
        qgrid = _uniform_grid_for(teacher.params, spacing, teacher.params.shape[0])
        for method in p.arms:
            rounded = teacher.params if method == "identity" else ROUNDERS[method](
                teacher, teacher.params, qgrid, Identity(p.arch), opts)[0]
            pairs = first_order_study(teacher, qgrid, rounded, batch)
            for idx, (df, first) in enumerate(pairs):
                rows.append({"seed": seed, "trial": trial, "spacing": spacing,
                             "method": method, "sample": idx,
                             "loss_change": float(df), "first_order": float(first)})
    return rows


def run_first_order(cfg: ExperimentConfig) -> Report:
    """Scatter of actual vs first-order-predicted loss change per sample."""
    if cfg.experiment != "first_order":
        raise ValueError("config is not a first_order experiment")
    start = time.perf_counter()
    p: FirstOrderParams = cfg.params
    rows = _trial_rows(_first_order_trial, cfg)
    rows.sort(key=lambda r: (r["seed"], r["spacing"], r["method"], r["sample"]))
    per_arm = {}  # (spacing, method) -> {seed: its rows, in sample order}
    for r in rows:
        per_arm.setdefault((r["spacing"], r["method"]), {}).setdefault(r["seed"], []).append(r)
    summary = {}
    for spacing in p.deltas:
        for method in p.arms:
            per_seed_corr, per_seed_slope = [], []
            for sel in per_arm[spacing, method].values():
                df = np.array([r["loss_change"] for r in sel])
                fo = np.array([r["first_order"] for r in sel])
                corr = _pearson(df, fo)
                if corr is not None:
                    per_seed_corr.append(corr)
                    per_seed_slope.append(float(np.polyfit(fo, df, 1)[0]))
            key = f"spacing{spacing}_{method}"
            summary[f"median_corr_{key}"] = _median_or_none(per_seed_corr)
            summary[f"median_slope_{key}"] = _median_or_none(per_seed_slope)
    return Report(experiment="first_order", config=_config_echo(cfg), rows=rows,
                  summary=summary, wall_clock=time.perf_counter() - start)


def run_scaling(cfg: ExperimentConfig) -> Report:
    """Estimator-error and rounding-generalization slopes against m."""
    if cfg.experiment != "scaling":
        raise ValueError("config is not a scaling experiment")
    start = time.perf_counter()
    p: ScalingParams = cfg.params
    rows, summary = [], {}
    if p.run_estimator:
        for alpha in p.estimator_alphas:
            spec = SpectrumSpec(n=p.estimator_n, alpha=alpha)
            res = falpha_scaling_study(spec, p.estimator_m_grid, p.estimator_trials,
                                       seed=child_seed(cfg.seed, 0xA1))
            rows += res.rows(seed=cfg.seed, study="estimator", alpha=alpha)
            summary[f"estimator_slope_alpha{alpha}"] = res.slope
            summary[f"estimator_stderr_alpha{alpha}"] = res.stderr
    if p.run_generalization:
        spec = SpectrumSpec(n=p.gen_n, alpha=p.gen_alpha)
        res = generalization_study(spec, p.gen_m_grid, p.gen_trials, p.walk,
                                   seed=child_seed(cfg.seed, 0xA2))
        rows += res.rows(seed=cfg.seed, study="generalization", alpha=p.gen_alpha)
        summary["generalization_slope"] = res.slope
        summary["generalization_stderr"] = res.stderr
    return Report(experiment="scaling", config=_config_echo(cfg), rows=rows,
                  summary=summary, wall_clock=time.perf_counter() - start)


# experiment name -> (params class, runner)
EXPERIMENTS = {"comparison": (ComparisonParams, run_comparison),
               "first_order": (FirstOrderParams, run_first_order),
               "scaling": (ScalingParams, run_scaling)}


def run_experiment(cfg: ExperimentConfig) -> Report:
    return EXPERIMENTS[cfg.experiment][1](cfg)


def _median_or_none(values) -> float | None:
    values = [v for v in values if v is not None]
    return float(np.median(values)) if values else None


def emit(report, fmt: str, path) -> None:
    """Write a report (or an already-parsed record dict) as JSON or CSV.

    JSON output is canonical: emitting a parsed record reproduces the bytes.
    CSV holds the rows only, one line per row plus a header.
    """
    record = report.to_record() if isinstance(report, Report) else report
    if fmt == "json":
        dump_record(record, path)
    elif fmt == "csv":
        rows = record["rows"]
        columns = list(rows[0].keys()) if rows else []
        lines = [",".join(columns)] + [",".join(_csv_cell(row.get(c)) for c in columns)
                                       for row in rows]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)
