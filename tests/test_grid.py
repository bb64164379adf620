"""Grids, brackets, interpolation, rounding, and bit accounting."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discq.grid import (GridAccountingError, GridConfigError, QuantGrid,
                        bits_per_param, bracket_of, build_block_scaling,
                        explicit_grid, grid_from_record, grid_to_record,
                        interp_weights, load_grid, rtn, save_grid)
from discq.harness import ComparisonParams
from discq.grid import nearer_up
from discq.serialize import canonical_json, floats_to_hex, hex_to_floats
from discq.toymodel import ToyArch, random_model

from oracles import nearest_point_bruteforce


class TestBlockScaling:
    def test_scale_formula(self):
        grid = build_block_scaling(np.array([0.9, -0.3, 0.1, 0.6]), bits=3, groupsize=4)
        assert grid.scales == pytest.approx([0.3])
        np.testing.assert_allclose(grid.points_for(0),
                                   [-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9])

    def test_all_zero_group_sentinel(self):
        grid = build_block_scaling(np.zeros(4), bits=3, groupsize=4)
        assert grid.scales == pytest.approx([1.0])
        np.testing.assert_array_equal(grid.points_for(2), np.arange(-3, 4))

    def test_symmetric_levels_include_zero(self):
        rng = np.random.default_rng(0)
        grid = build_block_scaling(rng.standard_normal(40), bits=4, groupsize=8)
        for j in (0, 17, 39):
            pts = grid.points_for(j)
            assert len(pts) == 2 ** 4 - 1
            assert 0.0 in pts
            np.testing.assert_allclose(pts, -pts[::-1])

    def test_points_for_rejects_j_outside_the_grid(self):
        # a negative j must not wrap round to the last coordinate, and an
        # explicit grid, one point list for every coordinate, still checks j
        grids = [build_block_scaling(np.array([0.9, -0.3, 0.1, 5.0]), bits=2, groupsize=2),
                 explicit_grid([-1.0, 0.0, 1.0], n=5)]
        for grid in grids:
            for j in (-1, -7, grid.n, 99):
                with pytest.raises(IndexError, match=f"j = {j} "):
                    grid.points_for(j)
            assert len(grid.points_for(grid.n - 1)) == 3 and len(grid.points_for(0)) == 3

    def test_short_last_group(self):
        grid = build_block_scaling(np.arange(1.0, 11.0), bits=2, groupsize=4)
        assert len(grid.scales) == 3
        assert grid.scales[2] == pytest.approx(10.0)  # max of {9, 10} / (2^1 - 1)

    def test_bits_below_two_rejected(self):
        with pytest.raises(GridConfigError):
            build_block_scaling(np.ones(4), bits=1, groupsize=4)

    @pytest.mark.parametrize("w, message", [
        ([np.nan, 100.0, 1.0, 2.0], "got nan at coordinate 0"),
        ([1.0, 2.0, np.inf, 3.0], "got inf at coordinate 2"),
        ([1.0, -np.inf, np.nan, 3.0], "got -inf at coordinate 1"),
    ], ids=["nan", "inf", "first-of-two"])
    def test_non_finite_weight_rejected(self, w, message):
        # a NaN's group took the all-zero sentinel scale 1, so rtn clamped 100
        # to 3; an inf took scale inf, and its finite neighbour rounded to NaN
        with pytest.raises(GridConfigError, match=message):
            build_block_scaling(w, bits=3, groupsize=2)

    def test_per_tensor(self):
        grid = build_block_scaling(np.array([1.0, -2.0, 0.5]), bits=3, groupsize="per-tensor")
        assert grid.groupsize is None
        assert grid.scales == pytest.approx([2.0 / 3.0])


def _scales_for(groupsize) -> np.ndarray:
    """Scales of a 32-coordinate grid: one per tensor, else two groups of 16."""
    return np.ones(1 if groupsize is None or groupsize == "per-tensor" else 2)


# every place that reads a groupsize, returning the groupsize it keeps
_GROUPSIZE_READERS = {
    "build_block_scaling": lambda gs: build_block_scaling(
        np.arange(1.0, 33.0), bits=3, groupsize=gs).groupsize,
    "QuantGrid": lambda gs: QuantGrid(kind="block_scaling", n=32, bits=3, groupsize=gs,
                                      scales=_scales_for(gs)).groupsize,
    "grid_from_record": lambda gs: grid_from_record(
        {"kind": "block_scaling", "bits": 3, "groupsize": gs, "n": 32,
         "scales": floats_to_hex(_scales_for(gs))}).groupsize,
    "ComparisonParams": lambda gs: ComparisonParams(groupsize=gs).groupsize,
}


@pytest.mark.parametrize("read", _GROUPSIZE_READERS.values(), ids=_GROUPSIZE_READERS.keys())
class TestGroupsizeRule:
    @pytest.mark.parametrize("value", [2.5, True, "16", 0, -3], ids=repr)
    def test_rejected(self, read, value):
        with pytest.raises(GridConfigError, match="groupsize"):
            read(value)

    @pytest.mark.parametrize("value, kept", [(16, 16), (np.int64(16), 16), (None, None),
                                             ("per-tensor", None)], ids=repr)
    def test_accepted(self, read, value, kept):
        got = read(value)
        assert got == kept and type(got) is type(kept)


def _scales_by_coordinate(w, bits, groupsize, blocks):
    """Each coordinate's group scale, max |w| / lmax or 1 if all zero, found one at a time."""
    lmax = 2 ** (bits - 1) - 1
    out = np.empty(len(w))
    for j in range(len(w)):
        lo, hi = next((a, b) for a, b in blocks if a <= j < b)
        if groupsize is not None:
            lo += (j - lo) // groupsize * groupsize
            hi = min(lo + groupsize, hi)
        peak = np.max(np.abs(w[lo:hi]))
        out[j] = peak / lmax if peak > 0 else 1.0
    return out


class TestGroupSpans:
    """coordinate_scales() against an independent per-group scale."""

    @pytest.mark.parametrize("groupsize", [1, 3, 16, None])
    @pytest.mark.parametrize("blocks", [None, [(0, 7), (7, 20), (20, 29)]],
                             ids=["no-blocks", "blocks"])
    def test_matches_per_group_peak(self, groupsize, blocks):
        w = np.random.default_rng(31).standard_normal(29)  # 29 leaves short last groups
        grid = build_block_scaling(w, bits=3, groupsize=groupsize, blocks=blocks)
        want = _scales_by_coordinate(w, 3, groupsize, blocks or [(0, 29)])
        np.testing.assert_array_equal(grid.coordinate_scales(), want)

    @pytest.mark.parametrize("arch", [ToyArch(), ToyArch(layers=2)])
    def test_default_arch_layout(self, arch):
        blocks = [(a, b) for a, b, _ in arch.layout().values()]
        w = random_model(arch, seed=32).params
        grid = build_block_scaling(w, bits=3, groupsize=16, blocks=blocks)
        np.testing.assert_array_equal(grid.coordinate_scales(),
                                      _scales_by_coordinate(w, 3, 16, blocks))

    @pytest.mark.parametrize("groupsize", [1, 16, None])
    def test_empty_vector(self, groupsize):
        grid = build_block_scaling(np.zeros(0), bits=3, groupsize=groupsize)
        assert grid.coordinate_scales().shape == (0,)

    def test_scale_count_checked_against_groups(self):
        QuantGrid(kind="block_scaling", n=10, bits=3, groupsize=3, scales=np.ones(4))
        for count in (3, 5):
            with pytest.raises(GridConfigError, match="one scale per group"):
                QuantGrid(kind="block_scaling", n=10, bits=3, groupsize=3, scales=np.ones(count))
        with pytest.raises(GridConfigError, match="one scale per group"):
            QuantGrid(kind="block_scaling", n=10, bits=3, groupsize=3, scales=np.ones(4),
                      group_bounds=((0, 4), (4, 10)))

    def test_explicit_grid_raises(self):
        with pytest.raises(GridConfigError):
            explicit_grid([0.0, 1.0], n=3).coordinate_scales()

    @pytest.mark.parametrize("groupsize", [1, 2, 16, None])
    def test_empty_block_rejected(self, groupsize):
        with pytest.raises(GridConfigError, match="nonempty"):
            build_block_scaling(np.ones(8), bits=3, groupsize=groupsize,
                                blocks=[(0, 4), (4, 4), (4, 8)])

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("groupsize", [2, None])
    def test_no_blocks_rejected(self, n, groupsize):
        with pytest.raises(GridConfigError, match="partition"):
            build_block_scaling(np.ones(n), bits=3, groupsize=groupsize, blocks=[])

    def test_empty_explicit_grid_rejected(self):
        with pytest.raises(GridConfigError):
            explicit_grid([])

    def test_explicit_grid_needs_n(self):
        with pytest.raises(GridConfigError, match="needs n"):
            explicit_grid([0.0, 1.0])

    @pytest.mark.parametrize("points", [
        [[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0]], [[0.5]], 0.5,
    ], ids=["two-lists", "one-list-nested", "one-point-nested", "scalar"])
    def test_points_must_be_one_list(self, points):
        # a list of lists built one point list per coordinate
        with pytest.raises(GridConfigError, match="1-D"):
            explicit_grid(points, n=2)

    def test_points_are_copied(self):
        # the grid kept the caller's array, so a later write skipped the checks
        pts = np.array([0.0, 1.0, 2.0])
        grid = explicit_grid(pts, n=2)
        pts[1] = np.nan
        np.testing.assert_array_equal(grid.points, [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_non_finite_point_rejected(self, bad, at):
        # a NaN point compared false against its neighbours and was accepted
        points = [0.0, 1.0, 2.0]
        points[at] = bad
        with pytest.raises(GridConfigError, match="finite"):
            explicit_grid(points, n=2)


class TestBracket:
    def test_interior_point(self):
        grid = explicit_grid([0.0, 0.3, 0.6, 0.9], n=1)
        br = bracket_of(np.array([0.45]), grid)
        assert (br.w_down[0], br.w_up[0]) == (0.3, 0.6)

    def test_exact_grid_point_collapses(self):
        grid = explicit_grid([0.0, 0.3, 0.6, 0.9], n=1)
        br = bracket_of(np.array([0.6]), grid)
        assert br.w_down[0] == br.w_up[0] == 0.6
        assert br.delta[0] == 0.0

    def test_out_of_range_clamps(self):
        grid = explicit_grid([0.0, 0.3, 0.6, 0.9], n=2)
        br = bracket_of(np.array([1.7, -0.2]), grid)
        assert br.w_down[0] == br.w_up[0] == 0.9
        assert br.w_down[1] == br.w_up[1] == 0.0

    @pytest.mark.parametrize("grid", [
        build_block_scaling(np.array([1.0, -2.0, 0.5, 3.0]), bits=3, groupsize=2),
        explicit_grid([0.0, 1.0], n=4),
    ], ids=["block", "explicit"])
    @pytest.mark.parametrize("bad, at", [(np.nan, 0), (np.inf, 2), (-np.inf, 3)],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, grid, bad, at):
        # a NaN gave a NaN block bracket, which rtn passed through, and the top
        # explicit point; an inf was clamped to the extreme point without error
        w = np.array([0.5, 0.25, 0.75, 0.0])
        w[at] = bad
        for call in (bracket_of, rtn):
            with pytest.raises(ValueError, match=f"got {bad} at coordinate {at}$"):
                call(w, grid)

    def test_block_scaling_exact_hits(self):
        w = np.array([0.9, -0.3, 0.1, 0.6])
        grid = build_block_scaling(w, bits=3, groupsize=4)
        br = bracket_of(w, grid)
        # 0.9 and -0.3 are exactly representable as k * 0.3 in float (k=3, -1)
        assert br.w_down[0] == br.w_up[0] == pytest.approx(0.9)
        assert br.delta[1] == 0.0

    def test_bracket_envelope_random(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            w = rng.standard_normal(64) * rng.uniform(0.1, 3)
            grid = build_block_scaling(w, bits=rng.integers(2, 6), groupsize=16)
            br = bracket_of(w, grid)
            lmax = grid.level_bound()
            scale = grid.coordinate_scales()
            inside = (w >= -lmax * scale) & (w <= lmax * scale)
            assert np.all(br.w_down[inside] <= w[inside])
            assert np.all(br.w_up[inside] >= w[inside])
            assert np.all(br.delta >= 0)
            # adjacency: the gap is at most one level
            assert np.all(br.delta <= scale + 1e-12)

    def test_adjacency_on_explicit(self):
        pts = np.array([-1.0, -0.25, 0.0, 0.5, 2.0])
        grid = explicit_grid(pts, n=1)
        for w in (-0.7, -0.1, 0.2, 1.0):
            br = bracket_of(np.array([w]), grid)
            i = np.searchsorted(pts, w)
            assert br.w_down[0] == pts[i - 1] and br.w_up[0] == pts[i]


class TestInterp:
    def test_reproduces_original_weights(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(128)
        grid = build_block_scaling(w, bits=3, groupsize=16)
        br = bracket_of(w, grid)
        y = br.position()
        np.testing.assert_allclose(interp_weights(br, y), w, rtol=0, atol=4 * np.spacing(np.abs(w).max()))

    def test_endpoints(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal(32)
        br = bracket_of(w, build_block_scaling(w, bits=2, groupsize=8))
        np.testing.assert_array_equal(interp_weights(br, np.zeros(32)), br.w_down)
        np.testing.assert_array_equal(interp_weights(br, np.ones(32)), br.w_up)

    def test_midpoint_on_uniform_grid(self):
        grid = explicit_grid(np.arange(-4.0, 5.0) * 0.5, n=16)
        w = np.full(16, 0.2)
        br = bracket_of(w, grid)
        np.testing.assert_allclose(interp_weights(br, np.full(16, 0.5)), br.w_down + 0.25)

    def test_linearity_on_uniform_grid(self):
        spacing = 0.5
        grid = explicit_grid(np.arange(-8.0, 9.0) * spacing, n=64)
        rng = np.random.default_rng(5)
        w = rng.uniform(-3, 3, 64)
        br = bracket_of(w, grid)
        x1, x2 = rng.random(64), rng.random(64)
        diff = interp_weights(br, x1) - interp_weights(br, x2)
        np.testing.assert_allclose(diff, spacing * (x1 - x2), rtol=1e-12, atol=1e-14)


class TestRtn:
    def test_basic_and_ties(self):
        grid = explicit_grid([0.3, 0.6], n=2)
        np.testing.assert_allclose(rtn(np.array([0.44, 0.45]), grid), [0.3, 0.3])

    def test_tie_toward_smaller_magnitude_negative(self):
        grid = explicit_grid([-0.6, -0.3], n=1)
        assert rtn(np.array([-0.45]), grid)[0] == -0.3

    def test_output_on_bracket(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal(256)
        grid = build_block_scaling(w, bits=3, groupsize=32)
        br = bracket_of(w, grid)
        out = rtn(w, grid)
        assert np.all((out == br.w_down) | (out == br.w_up))

    def test_against_bruteforce_nearest(self):
        rng = np.random.default_rng(12)
        pts = np.sort(rng.uniform(-2, 2, 9))
        grid = explicit_grid(pts, n=1)
        for w in rng.uniform(-2.5, 2.5, 200):
            got = rtn(np.array([w]), grid)[0]
            assert got == nearest_point_bruteforce(w, pts)


class TestBitsPerParam:
    @pytest.mark.parametrize("bits,groupsize,expected", [
        (3, 64, 3.25), (4, 64, 4.25), (3, 32, 3.5), (4, None, 4.0)])
    def test_values(self, bits, groupsize, expected):
        w = np.linspace(-1, 1, 128)
        grid = build_block_scaling(w, bits=bits, groupsize=groupsize)
        assert bits_per_param(grid) == pytest.approx(expected)

    def test_monotone(self):
        w = np.linspace(-1, 1, 128)
        vals_bits = [bits_per_param(build_block_scaling(w, bits=b, groupsize=32))
                     for b in (2, 3, 4, 5)]
        assert vals_bits == sorted(vals_bits) and len(set(vals_bits)) == 4
        vals_group = [bits_per_param(build_block_scaling(w, bits=3, groupsize=g))
                      for g in (8, 16, 32, 64)]
        assert vals_group == sorted(vals_group, reverse=True)

    def test_explicit_grid_rejected(self):
        with pytest.raises(GridAccountingError):
            bits_per_param(explicit_grid([0.0, 1.0], n=3))


class TestSerialization:
    def test_block_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        grid = build_block_scaling(rng.standard_normal(100) * np.pi, bits=5, groupsize=9)
        path = tmp_path / "grid.json"
        save_grid(grid, path)
        back = load_grid(path)
        assert back.bits == grid.bits and back.groupsize == grid.groupsize
        np.testing.assert_array_equal(back.scales, grid.scales)

    def test_explicit_roundtrip(self):
        grid = explicit_grid([np.e, np.pi, 7.1], n=2)
        back = grid_from_record(grid_to_record(grid))
        for j in range(2):
            np.testing.assert_array_equal(back.points_for(j), grid.points_for(j))

    def test_explicit_record_holds_one_list(self):
        pts = np.arange(-60, 61) * 0.05
        one, many = (grid_to_record(explicit_grid(pts, n=n)) for n in (1, 1720))
        assert one["points"] == many["points"] == floats_to_hex(pts)
        assert many["n"] == 1720
        assert grid_from_record(many).n == 1720

    @pytest.mark.parametrize("key, value", [
        ("points", [["0x0p+0"], ["0x1p+0"]]),
        ("points", [0.0, 1.0]),
        ("points", ["0x1p+0", "one"]),
        ("scales", [1.0]),
        ("scales", None),
    ], ids=["points-per-coordinate", "points-numbers", "points-not-hex", "scales-numbers",
            "scales-none"])
    def test_malformed_record_names_its_key(self, key, value):
        # each raised a bare TypeError or ValueError from float.fromhex, naming no key
        rec = (grid_to_record(explicit_grid([0.0, 1.0], n=2)) if key == "points"
               else grid_to_record(build_block_scaling(np.ones(4), bits=3, groupsize=None)))
        with pytest.raises(GridConfigError, match=f"'{key}'"):
            grid_from_record({**rec, key: value})

    def test_invalid_configs(self):
        with pytest.raises(GridConfigError):
            explicit_grid([1.0, 1.0, 2.0], n=1)  # not strictly ascending
        with pytest.raises(GridConfigError):
            build_block_scaling(np.ones(4), bits=3, groupsize=0)


# magnitudes below 1e-300 are left out of grid-building weights here;
# tiny_grid_and_weights below covers them down to the smallest subnormal
_weights = st.floats(-1e3, 1e3).filter(lambda v: v == 0 or abs(v) > 1e-300)


@st.composite
def grid_and_weights(draw):
    """A block-scaling or explicit grid and in-range weights, some exactly on it."""
    n = draw(st.integers(1, 24))
    if draw(st.booleans()):
        base = np.array(draw(st.lists(_weights, min_size=n, max_size=n)))
        split = draw(st.integers(0, n - 1))
        grid = build_block_scaling(base, bits=draw(st.integers(2, 6)),
                                   groupsize=draw(st.sampled_from([None, 1, 3, 8])),
                                   blocks=[(0, split), (split, n)] if split else None)
    else:
        points = st.lists(_weights, min_size=1, max_size=6, unique=True).map(sorted)
        grid = explicit_grid(draw(points), n=n)
    w = np.empty(n)
    for j in range(n):
        pts = grid.points_for(j)
        if draw(st.booleans()):
            w[j] = pts[draw(st.integers(0, len(pts) - 1))]
        else:
            t = draw(st.floats(0.0, 1.0))
            w[j] = np.clip(pts[0] + t * (pts[-1] - pts[0]), pts[0], pts[-1])
    return grid, w


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(grid_and_weights())
    def test_bracket_invariants(self, gw):
        grid, w = gw
        br = bracket_of(w, grid)
        assert np.all(br.w_down <= w) and np.all(w <= br.w_up)
        for j in range(grid.n):
            pts = grid.points_for(j)
            assert br.w_down[j] in pts and br.w_up[j] in pts
            assert (br.delta[j] == 0) == (w[j] in pts)
        y = br.position()
        assert np.all((0.0 <= y) & (y <= 1.0))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2 ** 20, 2 ** 20), st.integers(1, 2 ** 20), st.integers(-40, 40))
    def test_exact_midpoint_goes_to_smaller_magnitude(self, a, gap, e):
        down, up = math.ldexp(a, e), math.ldexp(a + gap, e)
        mid = math.ldexp(2 * a + gap, e - 1)  # exact: an integer below 2^53 times 2^(e-1)
        want_up = abs(up) < abs(down)
        assert nearer_up(np.array([mid]), np.array([down]), np.array([up]))[0] == want_up
        got = rtn(np.array([mid]), explicit_grid([down, up], n=1))[0]
        assert got == (up if want_up else down)

    @settings(max_examples=200, deadline=None)
    @given(grid_and_weights())
    def test_rtn_returns_a_bracket_endpoint(self, gw):
        grid, w = gw
        br = bracket_of(w, grid)
        out = rtn(w, grid)
        assert np.all((out == br.w_down) | (out == br.w_up))

    @settings(max_examples=300, deadline=None)
    @example([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
              1.7976931348623157e308, 0.1])
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_hex_roundtrip_bit_exact(self, values):
        v = np.array(values, dtype=np.float64)
        back = hex_to_floats(floats_to_hex(v))
        assert back.dtype == np.float64 and back.shape == v.shape
        np.testing.assert_array_equal(back.view(np.uint64), v.view(np.uint64))

    @settings(max_examples=200, deadline=None)
    @given(grid_and_weights())
    def test_grid_record_roundtrip(self, gw):
        grid, _ = gw
        back = grid_from_record(json.loads(canonical_json(grid_to_record(grid))))
        assert (back.kind, back.n, back.bits, back.groupsize, back.group_bounds) == \
            (grid.kind, grid.n, grid.bits, grid.groupsize, grid.group_bounds)
        if grid.kind == "block_scaling":
            np.testing.assert_array_equal(back.scales.view(np.uint64),
                                          np.asarray(grid.scales).view(np.uint64))
        for j in range(grid.n):
            np.testing.assert_array_equal(back.points_for(j).view(np.uint64),
                                          grid.points_for(j).view(np.uint64))


# nonzero weights down to the smallest subnormal, where peak / lmax underflows
_tiny = st.one_of(st.just(0.0), st.floats(5e-324, 1e-300), st.floats(-1e-300, -5e-324))


@st.composite
def tiny_grid_and_weights(draw):
    """A block-scaling grid over subnormal-scale weights, and in-range weights."""
    n = draw(st.integers(1, 12))
    base = np.array(draw(st.lists(_tiny, min_size=n, max_size=n)))
    grid = build_block_scaling(base, bits=draw(st.sampled_from([2, 3, 8])),
                               groupsize=draw(st.sampled_from([None, 1, 3])))
    w = np.empty(n)
    for j in range(n):
        pts = grid.points_for(j)
        if draw(st.booleans()):
            w[j] = pts[draw(st.integers(0, len(pts) - 1))]
        else:
            t = draw(st.floats(0.0, 1.0))
            w[j] = np.clip(pts[0] + t * (pts[-1] - pts[0]), pts[0], pts[-1])
    return grid, w


class TestSubnormalScales:
    @pytest.mark.parametrize("bits", [2, 3, 8])
    def test_smallest_peak_builds_and_rounds_exactly(self, bits):
        w = np.array([5e-324, 0.0])
        grid = build_block_scaling(w, bits=bits, groupsize=None)
        assert grid.scales[0] == 5e-324
        out = rtn(w, grid)
        np.testing.assert_array_equal(out.view(np.uint64), w.view(np.uint64))

    @pytest.mark.parametrize("peak", [1e-320, 2.5e-310, 1e-300, 0.9])
    def test_representable_quotient_kept_exactly(self, peak):
        grid = build_block_scaling(np.array([peak, -peak / 2, 0.0]), bits=3, groupsize=None)
        assert grid.scales[0] == peak / 3

    @settings(max_examples=300, deadline=None)
    @given(tiny_grid_and_weights())
    def test_bracket_invariants_at_tiny_peaks(self, gw):
        grid, w = gw
        assert np.all(np.asarray(grid.scales) > 0)
        br = bracket_of(w, grid)
        assert np.all(br.w_down <= w) and np.all(w <= br.w_up)
        for j in range(grid.n):
            pts = grid.points_for(j)
            assert br.w_down[j] in pts and br.w_up[j] in pts
            assert (br.delta[j] == 0) == (w[j] in pts)
        y = br.position()
        assert np.all((0.0 <= y) & (y <= 1.0))
        out = rtn(w, grid)
        assert np.all((out == br.w_down) | (out == br.w_up))
