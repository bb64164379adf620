"""Quantization grids, bracketing, interpolation, and bits accounting.

A grid assigns every coordinate a finite sorted set of representable values.
Two kinds are supported:

* ``block_scaling`` -- symmetric integer levels ``{-(2^(bits-1)-1), ..., 0,
  ..., 2^(bits-1)-1}`` times a per-group scale, groups being consecutive runs
  of ``groupsize`` coordinates (``groupsize=None`` means one scale for the
  whole tensor).
* ``explicit`` -- one explicit point list shared by every coordinate.

Rounding a weight is restricted to the two grid points bracketing it
(``w_down`` / ``w_up``); interpolation variables ``x`` in ``[0, 1]^n`` encode
positions inside that bracket.  Grids are always built from the original
weight vector, never from intermediate iterates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .serialize import dump_record, floats_to_hex, hex_to_floats, load_record

Array = np.ndarray

PER_TENSOR = "per-tensor"
SCALE_BITS = 16  # block scales are accounted as 16-bit values
_SMALLEST = float(np.nextafter(0.0, 1.0))  # floor of a nonzero group's scale


class GridConfigError(ValueError):
    """Invalid grid construction parameters."""


class GridAccountingError(ValueError):
    """Bit accounting requested for a grid kind that has none."""


def groupsize_of(value) -> int | None:
    """``groupsize`` as an int >= 1, or None for one scale per tensor.

    Accepts None, ``"per-tensor"`` and Python or numpy integers.  A bool, a
    float, any other string or a value below 1 raises :class:`GridConfigError`.
    """
    if value is None or isinstance(value, str) and value == PER_TENSOR:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise GridConfigError(f"groupsize must be an int >= 1, None or {PER_TENSOR!r}, "
                              f"got {value!r}")
    return int(value)


def _check_finite(w: Array, error=ValueError) -> None:
    """Raise ``error`` naming the first non-finite weight, which no grid point brackets."""
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise error(f"weights must be finite, got {w[bad[0]]} at coordinate {bad[0]}")


def _group_spans(spans, groupsize: int | None) -> list[tuple[int, int]]:
    """Each (lo, hi) span cut into runs of ``groupsize``, the last maybe short; None: one run."""
    if groupsize is None:
        return list(spans)
    return [(at, min(at + groupsize, hi)) for lo, hi in spans for at in range(lo, hi, groupsize)]


@dataclass(frozen=True)
class QuantGrid:
    """A per-coordinate product grid. Use the builder functions below."""

    kind: str
    n: int
    bits: int | None = None
    groupsize: int | None = None  # None encodes per-tensor
    scales: Array | None = None  # one positive scale per group
    points: Array | None = None  # explicit kind only: one list for every coordinate
    group_bounds: tuple[tuple[int, int], ...] | None = None  # explicit group spans

    def __post_init__(self):
        if self.kind == "block_scaling":
            if self.bits is None or self.bits < 2:
                raise GridConfigError(f"bits must be >= 2, got {self.bits}")
            object.__setattr__(self, "groupsize", groupsize_of(self.groupsize))
            if self.group_bounds is None:
                spans = _group_spans([(0, self.n)], self.groupsize)
            else:
                spans = list(self.group_bounds)
                if not spans or spans[0][0] != 0 or spans[-1][1] != self.n or any(
                        a >= b for a, b in spans) or any(
                        s0[1] != s1[0] for s0, s1 in zip(spans, spans[1:])):
                    raise GridConfigError("group bounds must partition [0, n)")
            object.__setattr__(self, "_spans", spans)  # every group's (lo, hi)
            if self.scales is None or not np.all(np.asarray(self.scales) > 0):
                raise GridConfigError("scales must be strictly positive")
            if len(self.scales) != len(spans):
                raise GridConfigError("one scale per group required")
        elif self.kind == "explicit":
            pts = np.array(self.points, dtype=np.float64)  # a copy; None becomes a 0-D NaN
            object.__setattr__(self, "points", pts)
            if self.n is None or pts.ndim != 1 or not pts.size or not np.all(
                    np.isfinite(pts)) or np.any(np.diff(pts) <= 0):
                raise GridConfigError("explicit grid needs n and a nonempty 1-D list of "
                                      "finite, strictly ascending points")
        else:
            raise GridConfigError(f"unknown grid kind {self.kind!r}")

    def coordinate_scales(self) -> Array:
        """Per-coordinate scale: each group's scale repeated over its span."""
        if self.kind != "block_scaling":
            raise GridConfigError("coordinate_scales is defined for block_scaling grids")
        return np.repeat(np.asarray(self.scales), [hi - lo for lo, hi in self._spans])

    def level_bound(self) -> int:
        """Largest integer level, 2^(bits-1) - 1."""
        return (1 << (self.bits - 1)) - 1

    def points_for(self, j: int) -> Array:
        """Sorted representable values of coordinate j."""
        if not 0 <= j < self.n:
            raise IndexError(f"j = {j} is outside [0, {self.n})")
        if self.kind == "explicit":
            return self.points
        lmax = self.level_bound()
        s = float(self.coordinate_scales()[j])
        return np.arange(-lmax, lmax + 1, dtype=np.float64) * s


@dataclass(frozen=True)
class Bracket:
    """Adjacent grid points surrounding a weight vector, plus the weights."""

    w_down: Array
    w_up: Array
    delta: Array  # w_up - w_down, entrywise >= 0
    w: Array  # the original weights the bracket was built from

    @property
    def n(self) -> int:
        return self.w_down.shape[0]

    def position(self) -> Array:
        """Interpolation coordinates y of the original weights: w^y == w.

        Coordinates with a collapsed bracket (delta == 0) are assigned 0.
        """
        y = np.zeros(self.n)
        live = self.delta > 0
        y[live] = (self.w[live] - self.w_down[live]) / self.delta[live]
        return np.clip(y, 0.0, 1.0)


def build_block_scaling(w, bits: int, groupsize, blocks=None) -> QuantGrid:
    """Build a symmetric block-scaling grid from weights.

    Each group's scale is ``max |w_j| / (2^(bits-1) - 1)``, at least the
    smallest positive float; an all-zero group gets the sentinel scale 1
    (every representable multiple of any scale collapses to the needed 0).
    ``groupsize`` is read by :func:`groupsize_of`.

    ``blocks`` optionally partitions the vector into spans (e.g. the layers
    of a model) that groups never straddle: per-tensor then means one scale
    per span, and integer group runs restart at every span boundary.  The
    spans must be nonempty and partition ``[0, n)``, else
    :class:`GridConfigError`.  So does a non-finite weight, which no scale
    brackets.
    """
    w = np.asarray(w, dtype=np.float64)
    if bits < 2:
        raise GridConfigError(f"bits must be >= 2, got {bits}")
    _check_finite(w, GridConfigError)
    groupsize = groupsize_of(groupsize)
    n = w.shape[0]
    lmax = (1 << (bits - 1)) - 1
    spans = [(0, n)] if blocks is None else [(int(a), int(b)) for a, b in blocks]
    if blocks is not None and any(a >= b for a, b in spans):
        raise GridConfigError(f"blocks must be nonempty spans, got {spans}")
    bounds = _group_spans(spans, groupsize)
    scales = np.empty(len(bounds))
    for g, (lo, hi) in enumerate(bounds):
        peak = float(np.max(np.abs(w[lo:hi]))) if hi > lo else 0.0
        scales[g] = max(peak / lmax, _SMALLEST) if peak > 0 else 1.0
    # the compact contiguous representation suffices without explicit blocks
    group_bounds = None if blocks is None else tuple(bounds)
    return QuantGrid(kind="block_scaling", n=n, bits=bits, groupsize=groupsize,
                     scales=scales, group_bounds=group_bounds)


def explicit_grid(points, n: int | None = None) -> QuantGrid:
    """Build an explicit grid: one sorted point list shared by all ``n`` coordinates.

    A missing ``n``, or ``points`` that are not a nonempty 1-D list of finite,
    strictly ascending values, raises :class:`GridConfigError`.
    """
    return QuantGrid(kind="explicit", n=n, points=points)


def _bracket_block(w: Array, grid: QuantGrid):
    s = grid.coordinate_scales()
    lmax = grid.level_bound()
    lo, hi = -lmax * s, lmax * s
    t = w / s
    k_dn = np.floor(t)
    k_up = np.ceil(t)
    down = k_dn * s
    up = k_up * s
    # float repair: w/s may round across an integer; shift by one level where needed
    bad = down > w
    down[bad] = (k_dn[bad] - 1) * s[bad]
    bad = up < w
    up[bad] = (k_up[bad] + 1) * s[bad]
    # exact grid hits collapse the bracket
    up = np.where(down == w, down, up)
    down = np.where(up == w, up, down)
    # out-of-range weights clamp to the nearest extreme point
    below = w <= lo
    above = w >= hi
    down = np.where(below, lo, np.where(above, hi, down))
    up = np.where(below, lo, np.where(above, hi, up))
    return down, up


def _bracket_explicit(w: Array, grid: QuantGrid):
    pts = grid.points
    i = np.searchsorted(pts, w, side="left")
    hi = np.minimum(i, len(pts) - 1)
    lo = np.where((i == 0) | (i == len(pts)) | (pts[hi] == w), hi, i - 1)
    return pts[lo], pts[hi]


def bracket_of(w, grid: QuantGrid) -> Bracket:
    """Adjacent grid points below/above each weight.

    Exact grid points collapse to a zero-width bracket; out-of-range weights
    clamp both endpoints to the nearest extreme grid point.  A non-finite
    weight raises ``ValueError`` naming its coordinate.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape[0] != grid.n:
        raise ValueError(f"weights have length {w.shape[0]}, grid expects {grid.n}")
    _check_finite(w)
    if grid.kind == "block_scaling":
        down, up = _bracket_block(w, grid)
    else:
        down, up = _bracket_explicit(w, grid)
    return Bracket(w_down=down, w_up=up, delta=up - down, w=w)


def interp_weights(bracket: Bracket, x) -> Array:
    """w^x = w_down * (1 - x) + w_up * x, coordinatewise, as a new array."""
    x = np.asarray(x, dtype=np.float64)
    return bracket.w_down * (1.0 - x) + bracket.w_up * x


def nearer_up(w: Array, down: Array, up: Array) -> Array:
    """True where ``up`` is the nearest of the two; ties pick the smaller magnitude.

    A tie is declared within a few ulps of the exact midpoint so that
    decimal-midpoint inputs (0.45 between 0.3 and 0.6) behave as intended
    despite binary rounding.
    """
    d_down = w - down
    d_up = up - w
    band = 32.0 * np.finfo(np.float64).eps * np.maximum.reduce(
        [np.abs(w), np.abs(down), np.abs(up)])
    tie = np.abs(d_up - d_down) <= band
    magnitude_favors_up = np.abs(up) < np.abs(down)
    return (~tie & (d_up < d_down)) | (tie & magnitude_favors_up)


def rtn(w, grid: QuantGrid) -> Array:
    """Round to nearest grid point; ties go to the smaller-magnitude point.

    The output always lies on the bracket of ``w`` (the nearest point is one
    of the two adjacent ones).
    """
    br = bracket_of(w, grid)
    take_up = nearer_up(br.w, br.w_down, br.w_up)
    return np.where(take_up, br.w_up, br.w_down)


def bits_per_param(grid: QuantGrid) -> float:
    """Effective storage cost: bits plus the amortized 16-bit group scale."""
    if grid.kind != "block_scaling":
        raise GridAccountingError("bit accounting is defined for block_scaling grids only")
    if grid.groupsize is None:
        return float(grid.bits)
    return grid.bits + SCALE_BITS / grid.groupsize


def grid_to_record(grid: QuantGrid) -> dict:
    """Structured-text form; scales/points as hex floats for exact round-trip."""
    if grid.kind == "block_scaling":
        record = {
            "kind": grid.kind,
            "bits": grid.bits,
            "groupsize": PER_TENSOR if grid.groupsize is None else grid.groupsize,
            "scales": floats_to_hex(grid.scales),
            "n": grid.n,
        }
        if grid.group_bounds is not None:
            record["group_bounds"] = [list(b) for b in grid.group_bounds]
        return record
    return {
        "kind": grid.kind,
        "points": floats_to_hex(grid.points),
        "n": grid.n,
    }


def _record_floats(rec: dict, key: str) -> Array:
    """``rec[key]`` read as a flat list of IEEE-754 hex strings."""
    try:
        return hex_to_floats(rec[key])
    except (TypeError, ValueError) as exc:
        raise GridConfigError(f"grid record {key!r} must be a flat list of hex float "
                              f"strings") from exc


def grid_from_record(rec: dict) -> QuantGrid:
    if rec["kind"] == "block_scaling":
        bounds = rec.get("group_bounds")
        return QuantGrid(
            kind="block_scaling",
            n=rec["n"],
            bits=rec["bits"],
            groupsize=rec["groupsize"],
            scales=_record_floats(rec, "scales"),
            group_bounds=None if bounds is None else tuple(tuple(b) for b in bounds),
        )
    return QuantGrid(
        kind="explicit",
        n=rec["n"],
        points=_record_floats(rec, "points"),
    )


def save_grid(grid: QuantGrid, path) -> None:
    dump_record(grid_to_record(grid), path)


def load_grid(path) -> QuantGrid:
    return grid_from_record(load_record(path))
