"""Constrained random-walk rounding inside K = [0,1]^n of {x : M(x-y) = 0}.

The walk starts at a fractional point, takes small Gaussian steps projected
onto the orthogonal complement of the active constraint normals (rows of M
plus the coordinate axes of frozen variables), and freezes a coordinate the
moment a step carries it onto a hypercube face.  A full run repeats phases,
keeping only phases that at least halve the number of fractional
coordinates, until at most ``16 m`` fractional coordinates remain.

Implementation notes, all behavior-preserving with respect to the step
definition above:

* Gaussians are sampled over the free coordinates only; projecting a full
  n-dimensional Gaussian with the active-set projector zeroes the frozen
  components anyway, and the restriction of an i.i.d. Gaussian to a
  coordinate subspace is again i.i.d. Gaussian.
* The projector is kept across freezes rather than rebuilt after each one
  (:class:`_KeptProjector`).  A refresh builds an orthonormal basis B
  (k x free, k the numerical rank) of the free columns' row space from an
  eigendecomposition of their Gram matrix, which is an order of magnitude
  faster than a QR factorization at these shapes and handles rank-deficient
  row sets by eigenvalue cutoff.  Freezing one coordinate drops its column
  b from B, and ``K = (B Bᵀ)⁻¹`` (the identity after a refresh) follows by a
  Sherman–Morrison downdate, ``K += K b bᵀ K / (1 - bᵀ K b)``; a step g is
  projected as ``g - ((g Bᵀ) K) B``.  The rows of the shrunk B still span
  the row space of the remaining free columns, so this is the same
  orthogonal projection, exact up to round-off: Lovett–Meka
  (arXiv:1203.5747) need each step projected exactly, not the projector
  recomputed from scratch.  The basis is refreshed when ``1 - bᵀ K b``
  falls below ``_DOWNDATE_FLOOR`` (rank loss), every ``_REFRESH_EVERY``
  downdates (to bound drift), and at every freeze that leaves
  ``free <= k``.  Saturation
  (rank >= free) can only begin at such a freeze, since a downdate keeps
  k rows, so it is always decided by the eigenvalue rank test.  A freeze
  that leaves ``free > k`` downdates.
* One step of the budget (``steps_per_phase``) is one full step
  ``delta * g``.  A landing is charged the whole steps its screen took
  before it plus the share ``t`` of its own step that it used, so the
  budget counts motion, not freezes, and a phase may freeze more than
  ``steps_per_phase`` coordinates.  The last draw takes ``ceil`` of the
  steps left, so a phase may overrun its budget by under one step.
* Raw Gaussian rows are drawn ``_BLOCK`` at a time, and a screen projects
  one or more of them together.  The first row that moves a coordinate
  toward a face it ends within ``eps`` of (or beyond) stops the screen, and that one step
  is shortened (or minimally extended) to the smallest face time over all
  free coordinates, so the first coordinate to reach a face lands exactly
  on it and none overshoots.  All motion is thus a multiple of a null-space
  direction and the residual stays at round-off.  A coordinate drifting
  within the band away from its face stays free.
* The raw rows after a freeze are carried, not redrawn: whether row k stops
  the screen depends only on rows up to k, so the raw rows after it are
  still i.i.d. N(0, I), independent of the walk so far, also on the
  coordinates left free.  Projected anew they are fresh steps.  New rows
  are drawn only when the carried ones run out.
* Right after a freeze only the first carried row is projected and
  screened; otherwise all carried rows are.  The row right after a freeze
  mostly freezes a coordinate too (82-98% of the time on the benchmark's
  walks), so screening every carried row would mostly project rows that
  are then thrown away.  How many rows one screen takes does not change
  the walk: between freezes the projector is fixed, so the walk
  takes the same raw rows, in the same order, through the same projector
  either way.  Only round-off differs (a one-row product rounds unlike an
  eight-row one), and the walk is chaotic in it: a y moved by 1e-15 gives
  another rounding after a few hundred freezes.
* That one row is screened as a vector (step ``s = delta * g``, end
  ``s + xf``), and a hit lands it from ``xf`` with that ``s``.  Its bits are
  a ``(1, f)`` screen's: numpy multiplies a one-row matrix and a vector by a
  matrix through the same BLAS vector product, and the ``(1, 1)`` partial
  sum is ``delta * g`` but for the sign of a zero step (``xf ± 0`` is ``xf``).
* A freeze writes x and the frozen flag at the landed index and moves the
  last free coordinate into its slot (free set, basis, position and carried
  rows alike, each in place); ``_KeptProjector.drop_one`` reads the frozen
  column for the downdate before the move.  Coordinates tied at the landing's
  face time (a probability-zero event) land one by one through that same
  path, last slot first, so no move shifts a tie that has not landed yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .serialize import AT_LEAST_1, FINITE_POSITIVE, NONNEGATIVE, Bound, _check_fields, seeded_rng

Array = np.ndarray

RESIDUAL_LIMIT = 1e-6  # enforced on every phase output
_BLOCK = 8  # Gaussian rows drawn at a time
_TRIL = np.tril(np.ones((_BLOCK, _BLOCK)))  # partial sums by matmul: np.cumsum is 8x slower here
_REFRESH_EVERY = 64  # downdates between full basis refreshes
_DOWNDATE_FLOOR = 1e-3  # smaller 1 - bᵀ K b means rank loss: refresh


class MaxPhasesExceeded(RuntimeError):
    """The phase budget ran out; ``partial`` holds the best result so far."""

    def __init__(self, message: str, partial: "WalkResult"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class ConstraintSet:
    """Constraint rows M (m x n) and the starting fractional point y.

    The rounding guarantee additionally needs ``m <= n/16``; that bound is
    checked by :func:`lm_round`, not here, so small instances (used by the
    exhaustive vertex oracle) remain constructible.
    """

    matrix: Array
    y: Array

    def __post_init__(self):
        mat = np.atleast_2d(np.asarray(self.matrix, dtype=np.float64))
        y = np.asarray(self.y, dtype=np.float64)
        if y.ndim != 1:
            raise ValueError(f"y must be 1-D, got shape {y.shape}")
        if mat.size and not np.all(np.isfinite(mat)):
            raise ValueError("constraint rows must be finite")
        if mat.shape[1] != y.shape[0] and mat.size:
            raise ValueError("matrix/y dimension mismatch")
        if not np.all((y >= 0) & (y <= 1)):  # NaN fails both
            raise ValueError("y must lie in [0, 1]^n")
        if mat.size == 0:
            mat = mat.reshape(0, y.shape[0])
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def unit_rows(self) -> Array:
        """Rows scaled to unit 2-norm, zero rows dropped; same null space."""
        norms = np.linalg.norm(self.matrix, axis=1)
        keep = norms > 0
        return self.matrix[keep] / norms[keep, None]

    def residual(self, x: Array, ord=np.inf) -> float:
        if self.m == 0:
            return 0.0
        return float(np.linalg.norm(self.matrix @ (x - self.y), ord))


_DELTA = Bound("finite and positive, in [0.001, 1]", 1e-3, 1, hi_in=True)


@dataclass(frozen=True)
class WalkConfig:
    """Step size, face band, per-phase step budget, and phase budget.

    ``delta`` lies in [0.001, 1]: a phase runs on the order of 1/delta^2 steps
    (its default budget ceil(4 / delta^2) is 4,000,000 at 0.001, 10,000 at
    0.02), and far below that end the budget overflows or divides by zero.
    """

    delta: Annotated[float, _DELTA] = 0.02
    eps: Annotated[float | None, FINITE_POSITIVE] = None  # defaults to delta
    steps_per_phase: Annotated[int | None, AT_LEAST_1] = None  # defaults to ceil(4 / delta^2)
    max_phases: Annotated[int, AT_LEAST_1] = 200
    seed: Annotated[int, NONNEGATIVE] = 0

    def __post_init__(self):
        _check_fields(self)
        if self.eps is None:
            object.__setattr__(self, "eps", self.delta)
        elif self.eps > self.delta:
            raise ValueError("need eps <= delta")
        if self.steps_per_phase is None:
            object.__setattr__(self, "steps_per_phase", int(np.ceil(4.0 / self.delta ** 2)))


@dataclass(frozen=True)
class PhaseResult:
    x: Array
    frozen: Array
    saturated: bool  # no free directions were available
    newly_frozen: int


@dataclass
class WalkResult:
    x: Array
    frozen: Array
    phases: int  # phase attempts consumed, including discarded ones
    accepted_freeze_counts: list[int] = field(default_factory=list)
    residual_l2: float = 0.0
    fractional: int = 0


def fractional_count(x: Array) -> int:
    return int(np.sum((x > 0) & (x < 1)))


def _rowspace_basis(rows: Array) -> Array:
    """Orthonormal rows spanning the row space of ``rows`` (possibly empty)."""
    m = rows.shape[0]
    if m == 0:
        return rows
    gram = rows @ rows.T
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > max(float(evals[-1]), 0.0) * 1e-12
    if not np.any(keep):
        return rows[:0]
    return (evecs[:, keep] / np.sqrt(evals[keep])).T @ rows


def _without(a: Array, j: int) -> Array:
    """``a`` without last-axis entry ``j``: the last entry moves into its place."""
    a[..., j] = a[..., -1]
    return a[..., :-1]


class _KeptProjector:
    """Projection onto the null space of ``m_unit[:, free]`` as ``free`` shrinks.

    ``basis`` holds the k rows of the last refresh's orthonormal basis,
    restricted to the free columns, and ``_k`` the inverse of their Gram
    matrix; see the module notes for the downdate and the refresh triggers.
    ``free`` is taken over, not copied: a drop reorders it in place.
    """

    def __init__(self, m_unit: Array, free: Array):
        self._m_unit = m_unit
        self.free = free
        self._refresh()

    def _refresh(self):
        self.basis = _rowspace_basis(self._m_unit[:, self.free])
        self._k = np.eye(self.basis.shape[0])
        self._downdates = 0

    @property
    def saturated(self) -> bool:
        """No free direction is left (rank >= free count)."""
        return self.basis.shape[0] >= self.free.size

    def project(self, g: Array) -> Array:
        return g - ((g @ self.basis.T) @ self._k) @ self.basis

    def drop_one(self, j: int):
        """Freeze the free coordinate at index ``j``, moving the last one into its slot;
        ``K`` follows by a Sherman–Morrison downdate unless a refresh is due."""
        # u = K b is taken before the last column moves into b's slot
        den = 0.0
        if self._downdates < _REFRESH_EVERY and self.free.size > self.basis.shape[0] + 1:
            b = self.basis[:, j]
            u = self._k @ b
            den = 1.0 - float(b @ u)
        self.free, self.basis = _without(self.free, j), _without(self.basis, j)
        if den > _DOWNDATE_FLOOR:
            u /= math.sqrt(den)
            self._k += u[:, None] * u
            self._downdates += 1
        else:
            self._refresh()


def _run_phase(m_unit: Array, x: Array, frozen: Array, cfg: WalkConfig,
               rng: np.random.Generator) -> PhaseResult:
    x = x.copy()
    frozen = frozen | (x == 0.0) | (x == 1.0)  # on a face already: no walk
    start_frozen = int(frozen.sum())

    free = np.flatnonzero(~frozen)
    proj = _KeptProjector(m_unit, free)
    if proj.saturated:
        return PhaseResult(x, frozen, True, 0)

    xf = x[free]
    delta, band, steps_left = cfg.delta, 0.5 - cfg.eps, cfg.steps_per_phase
    partial_sums = delta * _TRIL
    raw, screen = xf[None, :0], _BLOCK  # carried raw rows; how many to screen next
    with np.errstate(divide="ignore"):
        while steps_left > 0:
            if not raw.size:
                raw = rng.standard_normal((min(_BLOCK, math.ceil(steps_left)), free.size))
            # the first row that moves a coordinate toward a face it ends
            # within eps of (or beyond); a coordinate with g == 0 never counts
            if screen == 1:  # the row after a freeze, as a vector (module notes)
                g = proj.project(raw[0])
                s = delta * g
                k, cur, path = 0, xf, s + xf
                if not ((path - 0.5) * g > band * np.abs(g)).any():
                    xf, steps_left, raw, screen = path, steps_left - 1, raw[1:], _BLOCK
                    continue
            else:
                g = proj.project(raw[:screen])
                rows = len(g)
                path = partial_sums[:rows, :rows] @ g + xf
                hits = ((path - 0.5) * g > band * np.abs(g)).any(axis=1)
                k = int(hits.argmax())
                if not hits[k]:
                    xf = path[-1]
                    steps_left -= rows
                    raw, screen = raw[rows:], _BLOCK
                    continue
                cur, s = (path[k - 1] if k else xf), delta * g[k]
            # shorten (or minimally extend) step k so that the first
            # coordinate to reach a face lands on it; |±0| / 0 is inf
            t_face = np.abs(((s > 0) - cur) / s)
            j = int(t_face.argmin())
            xf = cur + t_face[j] * s
            steps_left -= k + float(t_face[j])  # the part of step k it used
            raw, screen = raw[k + 1:], 1
            # ties land last slot first, so no move shifts one not yet landed
            for j in (t_face == t_face[j]).nonzero()[0][::-1].tolist():
                i = free[j]
                x[i], frozen[i] = s[j] > 0, True
                xf, raw = _without(xf, j), _without(raw, j)
                proj.drop_one(j)
            free = proj.free
            if proj.saturated:
                break
    x[free] = xf
    return PhaseResult(x, frozen, False, int(frozen.sum()) - start_frozen)


def _checked_phase(cs: ConstraintSet, m_unit: Array, x: Array, frozen: Array,
                   cfg: WalkConfig, rng: np.random.Generator) -> PhaseResult:
    """Run one phase; fail on a non-finite iterate or a residual above the limit."""
    result = _run_phase(m_unit, x, frozen, cfg, rng)
    if not np.all(np.isfinite(result.x)):
        raise FloatingPointError("non-finite walk iterate")
    if cs.residual(result.x) > RESIDUAL_LIMIT:
        raise FloatingPointError("constraint residual exceeded 1e-6 during the phase")
    return result


def lm_phase(cs: ConstraintSet, x_in, frozen, cfg: WalkConfig) -> PhaseResult:
    """One walk phase: freeze coordinates until the step budget is spent.

    Requires ``x_in`` to satisfy the constraints to 1e-8 and frozen
    coordinates to be exactly integral.  The output constraint residual is
    enforced below ``1e-6``.
    """
    x_in = np.asarray(x_in, dtype=np.float64)
    frozen = np.asarray(frozen, dtype=bool)
    for name, v in (("x_in", x_in), ("frozen", frozen)):
        if v.shape != (cs.n,):
            raise ValueError(f"{name} must have shape ({cs.n},), got {v.shape}")
    if not np.all((x_in >= 0) & (x_in <= 1)):  # NaN fails both
        raise ValueError("x_in must lie in [0, 1]^n")
    if cs.residual(x_in) > 1e-8:
        raise ValueError("x_in violates the constraints beyond 1e-8")
    if not np.all(np.isin(x_in[frozen], (0.0, 1.0))):
        raise ValueError("frozen coordinates of x_in must be exactly 0 or 1")
    rng = seeded_rng(cfg.seed, 0x9A5E)
    return _checked_phase(cs, cs.unit_rows(), x_in, frozen, cfg, rng)


def _check_rows(m: int, n: int) -> None:
    """The rounding guarantee of :func:`lm_round`: 1 <= m <= n/16 constraint rows."""
    if m < 1:
        raise ValueError("lm_round needs at least one constraint row")
    if m > n / 16:
        raise ValueError(f"m = {m} exceeds n/16 = {n / 16}")


def lm_round(cs: ConstraintSet, cfg: WalkConfig) -> WalkResult:
    """Round until at most ``16 m`` fractional coordinates remain.

    Phases that fail to halve the fractional count are discarded and retried
    with fresh randomness; each attempt counts against ``max_phases``.  Raises
    :class:`MaxPhasesExceeded` (carrying the partial result) if the budget
    runs out.
    """
    _check_rows(cs.m, cs.n)
    target = 16 * cs.m
    m_unit = cs.unit_rows()
    x = cs.y.copy()
    frozen = np.isin(x, (0.0, 1.0))

    def result(phases: int, counts: list[int]) -> WalkResult:
        return WalkResult(x=x, frozen=frozen.copy(), phases=phases,
                          accepted_freeze_counts=counts,
                          residual_l2=cs.residual(x, ord=2),
                          fractional=fractional_count(x))

    counts: list[int] = []
    if fractional_count(x) <= target:
        return result(0, counts)
    for attempt in range(1, cfg.max_phases + 1):
        rng = seeded_rng(cfg.seed, attempt)
        phase = _checked_phase(cs, m_unit, x, frozen, cfg, rng)
        before = fractional_count(x)
        after = fractional_count(phase.x)
        if after <= target or after <= before / 2:
            x, frozen = phase.x, phase.frozen
            counts.append(phase.newly_frozen)
            if after <= target:
                return result(attempt, counts)
    raise MaxPhasesExceeded(
        f"no vertex with <= {target} fractional coordinates within "
        f"{cfg.max_phases} phases", result(cfg.max_phases, counts))


def vertex_integrality_check(cs: ConstraintSet, x, eps: float = 1e-9) -> tuple[int, float]:
    """(number of coordinates farther than eps from both faces, residual)."""
    x = np.asarray(x, dtype=np.float64)
    count = int(np.sum((x > eps) & (x < 1.0 - eps)))
    return count, cs.residual(x)


def walk_variance_probe(cs: ConstraintSet, cfg: WalkConfig, theta, trials: int) -> float:
    """Monte-Carlo estimate of E[<theta, x - y>^2] over independent phases."""
    if trials < 30:
        raise ValueError("need at least 30 trials")
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (cs.n,) or not np.all(np.isfinite(theta)):
        raise ValueError(f"theta must be a finite vector of shape ({cs.n},), got shape {theta.shape}")
    frozen0 = np.isin(cs.y, (0.0, 1.0))
    m_unit = cs.unit_rows()
    total = 0.0
    for t in range(trials):
        rng = seeded_rng(cfg.seed, 0xBEE, t)
        phase = _checked_phase(cs, m_unit, cs.y, frozen0, cfg, rng)
        total += float(theta @ (phase.x - cs.y)) ** 2
    return total / trials
