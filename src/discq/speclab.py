"""Synthetic gradient distributions with power-law spectra and the studies
that measure covariance-estimator error rates and rounding generalization.

The model distribution has covariance eigenvalues lam1 / k^alpha in either an
axis-aligned or a seeded random-orthogonal eigenbasis, with Gaussian or
scaled sign-vector samples.  Both families have bounded fourth-to-second
moment ratios, which is what the estimator-error rates require.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Annotated, Literal

import numpy as np

from .lmwalk import ConstraintSet, WalkConfig, lm_round
from .serialize import (ABOVE_1, AT_LEAST_1, FINITE_POSITIVE, NONNEGATIVE, _check_fields,
                        child_seed, seeded_rng)

Array = np.ndarray


@dataclass(frozen=True)
class SpectrumSpec:
    """Power-law covariance profile: eigenvalue k is lam1 / k^alpha."""

    n: Annotated[int, AT_LEAST_1]
    alpha: Annotated[float, ABOVE_1]
    lam1: Annotated[float, FINITE_POSITIVE] = 1.0
    basis: Literal["axis-aligned", "random-orthogonal"] = "axis-aligned"
    basis_seed: Annotated[int, NONNEGATIVE] = 0
    family: Literal["gaussian", "scaled-rademacher"] = "gaussian"

    def __post_init__(self):
        _check_fields(self)

    def eigenvalues(self) -> Array:
        return self.lam1 / np.arange(1, self.n + 1, dtype=np.float64) ** self.alpha

    def basis_matrix(self) -> Array | None:
        """Eigenbasis Q (columns), or None for the axis-aligned case."""
        if self.basis == "axis-aligned":
            return None
        rng = seeded_rng(self.basis_seed, 0x0B)
        q, r = np.linalg.qr(rng.standard_normal((self.n, self.n)))
        return q * np.sign(np.diag(r))

    def sigma(self) -> Array:
        lam = self.eigenvalues()
        q = self.basis_matrix()
        if q is None:
            return np.diag(lam)
        return (q * lam) @ q.T

    def quad_form(self, v: Array) -> float:
        """v^T Sigma v through the eigenrepresentation (no n x n product)."""
        q = self.basis_matrix()
        coords = v if q is None else q.T @ v
        return float(self.eigenvalues() @ coords ** 2)


def sample_gradients(spec: SpectrumSpec, m: int, seed: int = 0) -> Array:
    """m i.i.d. zero-mean rows with covariance exactly Sigma."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = seeded_rng(seed, 0x9AD5)
    if spec.family == "gaussian":
        raw = rng.standard_normal((m, spec.n))
    else:
        raw = rng.integers(0, 2, size=(m, spec.n)) * 2.0 - 1.0
    rows = raw * np.sqrt(spec.eigenvalues())
    q = spec.basis_matrix()
    return rows if q is None else rows @ q.T


def empirical_covariance(gradients: Array) -> Array:
    g = np.asarray(gradients, dtype=np.float64)
    return g.T @ g / g.shape[0]


def schatten1_error(x: Array, sigma: Array) -> float:
    """Schatten-1 (nuclear) norm of X - Sigma via symmetric eigenvalues."""
    x = np.asarray(x, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if x.shape != sigma.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("inputs must be square matrices of the same shape")
    diff = x - sigma
    if np.max(np.abs(diff - diff.T)) > 1e-8:
        raise ValueError("input difference is not symmetric")
    return float(np.abs(np.linalg.eigvalsh((diff + diff.T) / 2)).sum())


@dataclass(frozen=True)
class EstimatorRun:
    """One covariance-estimator draw and its Schatten-1 error."""

    m: int
    empirical: Array
    error: float
    seed: int


def estimator_run(spec: SpectrumSpec, m: int, seed: int) -> EstimatorRun:
    grads = sample_gradients(spec, m, seed)
    emp = empirical_covariance(grads)
    return EstimatorRun(m=m, empirical=emp, error=schatten1_error(emp, spec.sigma()), seed=seed)


def _ols_loglog(m_values, means) -> tuple[float, float]:
    """Slope and its standard error for log(mean) against log(m).

    Points with an exactly-zero mean carry no log-scale information (they
    arise when a sample count reaches n/16 and the rounder returns its input
    unchanged) and are excluded from the fit.
    """
    mv = np.asarray(m_values, dtype=np.float64)
    my = np.asarray(means, dtype=np.float64)
    keep = my > 0
    if keep.sum() < 2:
        raise ValueError("degenerate fit: fewer than 2 positive data points")
    lx = np.log(mv[keep])
    ly = np.log(my[keep])
    lx_c = lx - lx.mean()
    denom = float(lx_c @ lx_c)
    if denom == 0 or np.allclose(ly, ly[0]):
        raise ValueError("degenerate fit: no spread in the data")
    slope = float(lx_c @ ly) / denom
    resid = ly - (ly.mean() + slope * lx_c)
    dof = max(len(lx) - 2, 1)
    stderr = float(np.sqrt((resid @ resid) / dof / denom))
    return slope, stderr


def _check_m_grid(m_grid) -> list[int]:
    ms = [int(m) for m in m_grid]
    if len(ms) < 4:
        raise ValueError("m grid needs at least 4 points")
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError("m grid must be strictly increasing")
    if ms[0] < 1:
        raise ValueError("m grid must be positive")
    ratios = [b / a for a, b in zip(ms, ms[1:])]
    if max(ratios) > 1.25 * min(ratios):
        raise ValueError("m grid must be (approximately) geometrically spaced")
    return ms


@dataclass(frozen=True)
class ScalingResult:
    m_grid: tuple[int, ...]
    means: Array
    medians: Array
    slope: float
    stderr: float

    def rows(self, mean: str = "mean_error", median: str = "median_error",
             **fixed) -> list[dict]:
        """One report row per m: the ``fixed`` columns, then m, mean and median."""
        return [{**fixed, "m": m, mean: float(self.means[i]), median: float(self.medians[i])}
                for i, m in enumerate(self.m_grid)]


def _fit(ms: list[int], values: Array) -> ScalingResult:
    """Per-m mean and median of the (m, trial) ``values``; log-log fit of the nonzero means."""
    means = values.mean(axis=1)
    slope, stderr = _ols_loglog(ms, means)
    return ScalingResult(tuple(ms), means, np.median(values, axis=1), slope, stderr)


def _check_falpha_args(m_grid, trials: int) -> list[int]:
    """The m grid of :func:`falpha_scaling_study`, checked with its trial count."""
    ms = _check_m_grid(m_grid)
    if trials < 20:
        raise ValueError("need at least 20 trials per grid point")
    return ms


def falpha_scaling_study(spec: SpectrumSpec, m_grid, trials: int, seed: int = 0) -> ScalingResult:
    """Log-log slope of the mean Schatten-1 estimator error against m."""
    ms = _check_falpha_args(m_grid, trials)
    sigma = spec.sigma()
    errors = np.empty((len(ms), trials))
    for i, m in enumerate(ms):
        for t in range(trials):
            trial_seed = child_seed(seed, i, t)
            emp = empirical_covariance(sample_gradients(spec, m, trial_seed))
            errors[i, t] = schatten1_error(emp, sigma)
    return _fit(ms, errors)


def _check_gen_m_grid(m_grid) -> list[int]:
    """The m grid of :func:`generalization_study`: its positive entries form a
    checked grid, and m = 0 entries may sit beside them."""
    ms = [int(m) for m in m_grid]
    _check_m_grid([m for m in ms if m > 0])
    return ms


def _check_generalization_args(n: int, m_grid, trials: int) -> list[int]:
    """The m grid of :func:`generalization_study`, checked with its n and trial count."""
    ms = _check_gen_m_grid(m_grid)
    if max(ms) > n / 16:
        raise ValueError("largest m exceeds n/16")
    if trials < 1:
        raise ValueError("need at least 1 trial")
    return ms


def generalization_study(spec: SpectrumSpec, m_grid, trials: int,
                         walk_cfg: WalkConfig, seed: int = 0) -> ScalingResult:
    """Rounding error (x-y)^T Sigma (x-y) against the sample count m.

    For each m and trial: draw m gradients from the spectrum, run the
    constrained walk from a uniform random y, and evaluate the quadratic form
    against the analytic covariance (the exact unseen-data error, with no
    test-sampling noise).  m = 0 entries, if present, contribute the exact
    value 0 and are excluded from the fit.
    """
    ms = _check_generalization_args(spec.n, m_grid, trials)
    quad = np.zeros((len(ms), trials))
    for i, m in enumerate(ms):
        for t in range(trials):
            trial_seed = child_seed(seed, i, t)
            if m == 0:
                continue
            rng = seeded_rng(trial_seed, 0x4E)
            y = rng.random(spec.n)
            grads = sample_gradients(spec, m, trial_seed)
            res = lm_round(ConstraintSet(grads, y),
                           replace(walk_cfg, seed=trial_seed))
            quad[i, t] = spec.quad_form(res.x - y)
    return _fit(ms, quad)


def jl_spectrum(gradients: Array, d: int, seed: int = 0,
                projection: Array | None = None) -> Array:
    """Eigenvalues (descending) of the covariance of projected gradients.

    The projection has i.i.d. N(0, 1/d) entries; pass ``projection``
    explicitly to override (e.g. the identity as a test hook).
    """
    g = np.asarray(gradients, dtype=np.float64)
    n = g.shape[1]
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= {n}")
    if projection is None:
        rng = seeded_rng(seed, 0x01)
        projection = rng.standard_normal((d, n)) / np.sqrt(d)
    elif projection.shape != (d, n):
        raise ValueError("projection must have shape (d, n)")
    proj = g @ projection.T
    evals = np.linalg.eigvalsh(empirical_covariance(proj))
    return evals[::-1]
