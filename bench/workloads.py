"""The benchmark's four workloads.

Each workload makes its inputs from the workload seed when it is built, and
every op then does the same fixed bundle of work on those inputs, so every
op of a run yields the same output.  An op is the calls ``parts()`` returns,
run in order; its output is the list of their results.  The runner reads
its yardstick between parts, so a long op is measured against the machine's
speed at more than its two ends.  ``check`` re-derives what the
output must satisfy without trusting the program's own bookkeeping, and
``digest`` feeds the output bytes into a hash for the run fingerprint.

Calls into discq go through module attributes, looked up when a part runs
(``lmwalk.lm_round``, not a name bound earlier), so the tracer's wrappers
see them.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from discq import harness, incoherence, lmwalk, pipeline, serialize, toymodel

BITS, GROUPSIZE = 3, 16
LMAX = (1 << (BITS - 1)) - 1
BITS_PER_PARAM = BITS + 16 / GROUPSIZE
HELDOUT_SEQUENCES, SEQ_LENGTH = 256, 8
WALK_N, WALK_MS = 1024, (8, 16, 32)


def _child(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([int(seed), tag]).generate_state(1)[0])


class WalkSweep:
    """``lm_round`` on three Gaussian constraint sets, n=1024, m=8/16/32.

    m=64 is left out: at n=1024 it returns after 0 phases (16m = n).
    """

    name = "walk_sweep"

    def __init__(self, seed: int, scratch: str):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5A1]))
        self.sets = [lmwalk.ConstraintSet(rng.standard_normal((m, WALK_N)),
                                          rng.random(WALK_N)) for m in WALK_MS]
        self.cfg = lmwalk.WalkConfig()
        self.sizes = {"n": WALK_N, "m": list(WALK_MS), "delta": self.cfg.delta}

    def parts(self):
        return [lambda cs=cs: lmwalk.lm_round(cs, self.cfg) for cs in self.sets]

    def check(self, results) -> list[str]:
        problems = []
        for cs, res in zip(self.sets, results):
            x, tag = res.x, f"m={cs.m}"
            fractional = int(np.sum((x > 0) & (x < 1)))
            if not cs.residual(x) <= 1e-6:
                problems.append(f"{tag}: residual {cs.residual(x):.3g} > 1e-6")
            if fractional > 16 * cs.m or res.fractional != fractional:
                problems.append(f"{tag}: {fractional} fractional coordinates "
                                f"(reported {res.fractional}, limit {16 * cs.m})")
            if np.any(x < 0) or np.any(x > 1):
                problems.append(f"{tag}: x leaves [0, 1]")
            if not np.all(np.isin(x[res.frozen], (0.0, 1.0))):
                problems.append(f"{tag}: a frozen coordinate is not exactly 0 or 1")
        return problems

    def digest(self, results, h) -> None:
        for res in results:
            h.update(res.x.tobytes())
            h.update(res.frozen.tobytes())
            h.update(repr((res.phases, res.accepted_freeze_counts)).encode())

    def heldout_kls(self, results) -> list[float]:
        return []


class _Quantize:
    """One seeded default-arch teacher rounded by ``quantize_model`` per arm.

    Arms are ``(method, incoherent)`` pairs; each gets held-out KL on 256
    sequences.  Plain arms are checked on the grid; the incoherent arm only
    for a finite KL and its bit count, because the outcome drops the q-space
    codes and in model space the padded ``embed`` block sits up to 0.5
    levels off the grid.
    """

    arms: tuple[tuple[str, bool], ...] = ()

    def __init__(self, seed: int, scratch: str):
        self.teacher = toymodel.random_model(seed=_child(seed, 1))
        self.heldout = toymodel.sample_sequences(self.teacher, HELDOUT_SEQUENCES,
                                                 SEQ_LENGTH, seed=_child(seed, 2))
        self.transform = None
        if any(incoherent for _, incoherent in self.arms):
            self.transform = incoherence.ModelIncoherence(self.teacher.arch,
                                                          seed=_child(seed, 3))
        self.seed = _child(seed, 4)
        self.scales = _group_scales(self.teacher)
        self.sizes = {"n_params": int(self.teacher.params.size), "bits": BITS,
                      "groupsize": GROUPSIZE, "heldout_sequences": HELDOUT_SEQUENCES,
                      "arms": [f"{m}{'+incoherence' if inc else ''}" for m, inc in self.arms]}

    def parts(self):
        return [lambda method=method, incoherent=incoherent: pipeline.quantize_model(
                    self.teacher, BITS, GROUPSIZE, method, seed=self.seed,
                    heldout=self.heldout, transform=self.transform if incoherent else None)
                for method, incoherent in self.arms]

    def check(self, outcomes) -> list[str]:
        problems = []
        for (method, incoherent), out in zip(self.arms, outcomes):
            tag = f"{method}{'+incoherence' if incoherent else ''}"
            if out.heldout_kl is None or not math.isfinite(out.heldout_kl) \
                    or out.heldout_kl < 0:
                problems.append(f"{tag}: held-out KL {out.heldout_kl}")
            if out.bits_per_param != BITS_PER_PARAM:
                problems.append(f"{tag}: {out.bits_per_param} bits per parameter")
            if incoherent:
                continue
            codes = out.model.params / self.scales
            off = np.abs(codes - np.rint(codes))
            if not np.all(off <= 1e-9 * np.maximum(1.0, np.abs(codes))):
                problems.append(f"{tag}: weights off the grid by up to {off.max():.3g} levels")
            if np.any(np.abs(np.rint(codes)) > LMAX):
                problems.append(f"{tag}: a code exceeds +-{LMAX}")
        return problems

    def digest(self, outcomes, h) -> None:
        for out in outcomes:
            h.update(out.model.params.tobytes())
            h.update(repr((float(out.heldout_kl).hex(), out.fractional,
                           out.bits_per_param)).encode())

    def heldout_kls(self, outcomes) -> list[float]:
        return [out.heldout_kl for out in outcomes]


def _group_scales(teacher) -> np.ndarray:
    """Per-coordinate scale max|w| / lmax over 16-groups inside layer blocks.

    Computed here rather than taken from the grid, so the check does not
    trust the code it checks; an all-zero group gets scale 1.
    """
    w = teacher.params
    scales = np.empty_like(w)
    for start, stop, _ in teacher.arch.layout().values():
        for lo in range(start, stop, GROUPSIZE):
            hi = min(lo + GROUPSIZE, stop)
            peak = float(np.max(np.abs(w[lo:hi])))
            scales[lo:hi] = peak / LMAX if peak > 0 else 1.0
    return scales


class QuantizeDQ(_Quantize):
    """DiscQuant plain, then with a ``ModelIncoherence``: the SGD loop."""

    name = "quantize_dq"
    arms = (("discquant", False), ("discquant", True))


class QuantizeWalk(_Quantize):
    """Nearest rounding, then the walk on correlated per-sequence gradients."""

    name = "quantize_walk"
    arms = (("rtn", False), ("lmwalk", False))


class Spectral:
    """One small ``run_scaling`` call, emitted to JSON and CSV.

    The generalization m-grid tops out at n/32, so no walk is vacuous.
    """

    name = "spectral"
    params = harness.ScalingParams(
        estimator_alphas=(2.5,), estimator_n=256, estimator_m_grid=(32, 64, 128, 256),
        estimator_trials=20, gen_n=1024, gen_m_grid=(4, 8, 16, 32), gen_trials=1)

    def __init__(self, seed: int, scratch: str):
        self.cfg = harness.ExperimentConfig("scaling", seed=int(seed), params=self.params)
        self.json_path = os.path.join(scratch, "report.json")
        self.csv_path = os.path.join(scratch, "report.csv")
        self.reemit_path = os.path.join(scratch, "reemit.json")
        p = self.params
        self.sizes = {"estimator_alpha": p.estimator_alphas[0], "estimator_n": p.estimator_n,
                      "estimator_m_grid": list(p.estimator_m_grid),
                      "estimator_trials": p.estimator_trials, "gen_alpha": p.gen_alpha,
                      "gen_n": p.gen_n, "gen_m_grid": list(p.gen_m_grid),
                      "gen_trials": p.gen_trials}

    def parts(self):
        return [self.run_and_emit]

    def run_and_emit(self):
        report = harness.run_scaling(self.cfg)
        harness.emit(report, "json", self.json_path)
        harness.emit(report, "csv", self.csv_path)
        return report

    def check(self, outputs) -> list[str]:
        report, = outputs
        problems = [f"summary {key} = {value}" for key, value in report.summary.items()
                    if "slope" in key and not math.isfinite(value)]
        harness.emit(serialize.load_record(self.json_path), "json", self.reemit_path)
        if _read(self.json_path) != _read(self.reemit_path):
            problems.append("emitted JSON does not re-emit byte-identically")
        return problems

    def digest(self, outputs, h) -> None:
        report, = outputs
        # wall_clock is a timing, so it stays out of the fingerprint
        h.update(serialize.canonical_json({"rows": report.rows,
                                           "summary": report.summary}).encode())
        h.update(_read(self.csv_path))

    def heldout_kls(self, outputs) -> list[float]:
        return []


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


WORKLOADS = {cls.name: cls for cls in (WalkSweep, QuantizeDQ, QuantizeWalk, Spectral)}


def output_digest(workload, output) -> str:
    h = hashlib.sha256()
    workload.digest(output, h)
    return h.hexdigest()
