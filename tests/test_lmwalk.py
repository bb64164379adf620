"""Constrained-walk behavior: projection, freezing, integrality, variance."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discq.grid import bracket_of, build_block_scaling
from discq import lmwalk
from discq.discquant import finalize
from discq.lmwalk import (ConstraintSet, MaxPhasesExceeded, WalkConfig,
                          fractional_count, lm_phase, lm_round,
                          vertex_integrality_check, walk_variance_probe,
                          _KeptProjector, _rowspace_basis, _run_phase)

from oracles import (block_walk_phase, brute_force_vertices, doubling_walk_phase,
                     gram_schmidt_projector, reference_walk_phase)


def random_instance(n, m, seed, rng_y=None):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((m, n))
    y = rng.random(n) if rng_y is None else rng_y
    return ConstraintSet(matrix, y)


def rank_deficient_instance(n, seed):
    """Rows a (4 x n), 2 a[:2] and a[0] + a[1]: rank 4 from 7 rows."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, n))
    return ConstraintSet(np.vstack([a, 2 * a[:2], a[0] + a[1]]), rng.random(n))


def unit(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestConstraintSet:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_y_rejected(self, bad):
        y = np.full(32, 0.5)
        y[5] = bad
        with pytest.raises(ValueError, match="y must lie"):
            ConstraintSet(np.ones((1, 32)), y)

    @pytest.mark.parametrize("shape", [(64, 1), (1, 64), ()], ids=["column", "row", "scalar"])
    def test_y_not_1d_rejected(self, shape):
        # a (64, 1) y was accepted, and lm_round then failed to broadcast
        with pytest.raises(ValueError, match="1-D"):
            ConstraintSet(np.ones((1, 64)), np.full(shape, 0.5))

    def test_all_nan_y_is_not_a_vertex(self):
        # accepted, this y made lm_round return after 0 phases with
        # fractional == 0 and an all-NaN x
        with pytest.raises(ValueError, match="y must lie"):
            lm_round(ConstraintSet(np.ones((1, 32)), np.full(32, np.nan)), WalkConfig())


class TestProjector:
    def test_rowspace_basis_matches_gram_schmidt(self):
        rng = np.random.default_rng(0)
        for m, n in ((1, 6), (3, 10), (5, 12)):
            rows = rng.standard_normal((m, n))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            basis = _rowspace_basis(rows)
            p_mine = np.eye(n) - basis.T @ basis
            p_oracle = gram_schmidt_projector(rows)
            np.testing.assert_allclose(p_mine, p_oracle, atol=1e-10)

    def test_rank_deficient_rows(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(8)
        rows = np.vstack([a, 2 * a, rng.standard_normal(8)])
        basis = _rowspace_basis(rows / np.linalg.norm(rows, axis=1, keepdims=True))
        assert basis.shape[0] == 2
        np.testing.assert_allclose(basis @ basis.T, np.eye(2), atol=1e-10)

    def test_empty_rows(self):
        basis = _rowspace_basis(np.zeros((0, 5)))
        assert basis.shape == (0, 5)


class TestKeptProjector:
    """The downdated projector against Gram-Schmidt on the remaining columns."""

    @staticmethod
    def drop_to_saturation(m_unit, seed):
        # columns drop singly or in groups of two to four, a group highest slot
        # first as the walk lands ties; the projector is checked after every
        # group until it reports saturation
        rng = np.random.default_rng(seed)
        proj = _KeptProjector(m_unit, np.arange(m_unit.shape[1]))
        ranks = [(proj.free.size, proj.basis.shape[0])]
        while not proj.saturated:
            size = 1 if rng.random() < 0.8 else int(rng.integers(2, 5))
            gone = rng.choice(proj.free.size, min(size, proj.free.size), replace=False)
            for j in sorted(gone.tolist(), reverse=True):
                proj.drop_one(j)
            rows = m_unit[:, proj.free]
            np.testing.assert_allclose(proj.project(np.eye(proj.free.size)),
                                       gram_schmidt_projector(rows), atol=1e-10)
            assert proj.saturated == (_rowspace_basis(rows).shape[0] >= proj.free.size)
            ranks.append((proj.free.size, proj.basis.shape[0]))
        return ranks

    def test_gaussian_rows(self):
        # 160 columns at rank 4 give more single drops than one refresh
        # interval before free <= k
        rng = np.random.default_rng(20)
        for seed in range(3):
            ranks = self.drop_to_saturation(unit(rng.standard_normal((4, 160))), seed)
            assert ranks[0][1] == 4

    def test_rank_deficient_rows(self):
        cs = rank_deficient_instance(96, seed=21)
        for seed in range(3):
            ranks = self.drop_to_saturation(cs.unit_rows(), seed)
            assert ranks[0][1] == 4

    @staticmethod
    def rank_loss_rows(seed):
        # rows of rank 4 until the three columns of the last row are frozen
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((4, 120))
        rows[3] = 0.0
        rows[3, :3] = rng.standard_normal(3)
        return unit(rows)

    def test_rank_loss_while_downdating(self):
        # a row on three columns leaves the row space once they are all
        # frozen, which random drops mostly do long before free <= k: the
        # downdate must detect the rank loss there
        m_unit = self.rank_loss_rows(22)
        early_losses = 0
        for seed in range(3):
            ranks = self.drop_to_saturation(m_unit, seed)
            early_losses += any(k == 3 and free > 8 for free, k in ranks)
        assert early_losses >= 1

    @pytest.mark.parametrize("make, ends", [
        (lambda: unit(np.random.default_rng(23).standard_normal((4, 160))),
         {"downdate", "interval", "endgame"}),
        (lambda: rank_deficient_instance(96, seed=24).unit_rows(),
         {"downdate", "interval", "endgame"}),
        (lambda: TestKeptProjector.rank_loss_rows(22),
         {"downdate", "interval", "floor", "endgame"}),
    ], ids=["gaussian", "rank_deficient", "rank_loss"])
    def test_refresh_only_where_a_rank_test_can_matter(self, make, ends):
        # a single drop that leaves free > k downdates unless the interval is
        # up or 1 - bᵀ K b is at the floor; one that leaves free <= k, where
        # saturation can begin, refreshes, and saturated is the rank test
        m_unit = make()
        rng = np.random.default_rng(25)
        proj = _KeptProjector(m_unit, np.arange(m_unit.shape[1]))
        seen = set()
        while not proj.saturated:
            j = int(rng.integers(proj.free.size))
            k, b = proj.basis.shape[0], proj.basis[:, j]
            den = 1.0 - float(b @ (proj._k @ b))
            interval = proj._downdates >= lmwalk._REFRESH_EVERY
            proj.drop_one(j)
            refreshed = proj._downdates == 0
            if proj.free.size <= k:
                assert refreshed
                seen.add("endgame")
            elif refreshed:
                assert interval or den <= lmwalk._DOWNDATE_FLOOR, (proj.free.size, k, den)
                seen.add("interval" if interval else "floor")
            else:
                seen.add("downdate")
            rows = m_unit[:, proj.free]
            assert proj.saturated == (_rowspace_basis(rows).shape[0] >= proj.free.size)
        assert seen == ends


class TestPhase:
    def test_unconstrained_phase_freezes_half(self):
        # no constraints, start at the cube center: at least half the
        # coordinates should freeze in at least 1 of 10 seeded phases
        n = 64
        cs = ConstraintSet(np.zeros((0, n)), np.full(n, 0.5))
        hits = 0
        for seed in range(10):
            res = lm_phase(cs, cs.y, np.zeros(n, bool), WalkConfig(seed=seed))
            if int(res.frozen.sum()) >= n // 2:
                hits += 1
        assert hits >= 1

    def test_axis_constraint_pins_coordinate(self):
        n = 16
        matrix = np.zeros((1, n))
        matrix[0, 0] = 1.0
        y = np.full(n, 0.4)
        cs = ConstraintSet(matrix, y)
        res = lm_phase(cs, y, np.zeros(n, bool), WalkConfig(seed=3))
        assert res.x[0] == y[0]
        assert not res.frozen[0]

    def test_small_instance_stays_feasible(self):
        cs = random_instance(4, 1, seed=5)
        res = lm_phase(cs, cs.y, np.zeros(4, bool), WalkConfig(seed=7))
        assert np.all(res.x >= 0) and np.all(res.x <= 1)
        assert abs(cs.matrix @ (res.x - cs.y))[0] <= 1e-6

    def test_precondition_violations(self):
        cs = random_instance(8, 2, seed=6)
        x_bad = np.clip(cs.y + 0.2, 0, 1)
        with pytest.raises(ValueError):
            lm_phase(cs, x_bad, np.zeros(8, bool), WalkConfig(seed=0))
        frozen_bad = np.zeros(8, bool)
        frozen_bad[0] = True  # but y[0] is fractional
        with pytest.raises(ValueError):
            lm_phase(cs, cs.y, frozen_bad, WalkConfig(seed=0))

    @pytest.mark.parametrize("m", [2, 0])
    def test_wrong_length_inputs_rejected(self, m):
        # each argument is named before any use of it; with m = 0 no constraint
        # product reads x_in, so only the shape check can catch its length
        cs = random_instance(16, m, seed=16) if m else ConstraintSet(np.zeros((0, 16)),
                                                                     np.full(16, 0.5))
        for x_in, frozen, name in [(cs.y[:15], np.zeros(16, bool), "x_in"),
                                   (np.append(cs.y, 0.5), np.zeros(16, bool), "x_in"),
                                   (cs.y, np.zeros(15, bool), "frozen"),
                                   (cs.y, np.zeros((2, 16), bool), "frozen")]:
            with pytest.raises(ValueError, match=f"^{name} must have shape \\(16,\\)"):
                lm_phase(cs, x_in, frozen, WalkConfig(seed=0))

    def test_non_finite_x_in_rejected(self):
        # NaN passes both range comparisons and the residual test; it must be
        # refused before the walk, not reported as a non-finite iterate after
        cs = random_instance(32, 1, seed=14)
        x_in = cs.y.copy()
        x_in[3] = np.nan
        with pytest.raises(ValueError, match="x_in must lie"):
            lm_phase(cs, x_in, np.zeros(32, bool), WalkConfig(seed=0))

    def test_tied_coordinates_freeze_together(self):
        # equal positions and equal steps reach their face at the same time,
        # so both freeze in one landing
        class TwinColumns:
            rng = np.random.default_rng(15)

            def standard_normal(self, shape):
                g = self.rng.standard_normal(shape)
                g[:, 1:2] = g[:, :1]  # coordinates 0 and 1 hold slots 0 and 1 while free
                return g

        y = np.array([0.5, 0.5, 0.3, 0.7, 0.6, 0.2])
        for _ in range(5):
            res = _run_phase(np.zeros((0, 6)), y, np.zeros(6, bool),
                             WalkConfig(steps_per_phase=20000), TwinColumns())
            assert res.frozen[0] and res.frozen[1]
            assert res.x[0] == res.x[1] and res.x[0] in (0.0, 1.0)

    def test_saturated_when_no_free_directions(self):
        # two coordinates, two independent constraints: null space is {0}
        cs = ConstraintSet(np.eye(2), np.full(2, 0.3))
        res = lm_phase(cs, cs.y, np.zeros(2, bool), WalkConfig(seed=1))
        assert res.saturated
        np.testing.assert_array_equal(res.x, cs.y)

    def test_frozen_set_only_grows_and_values_pinned(self):
        cs = random_instance(32, 2, seed=8)
        cfg = WalkConfig(seed=11, steps_per_phase=2000)
        first = lm_phase(cs, cs.y, np.zeros(32, bool), cfg)
        second = lm_phase(cs, first.x, first.frozen, WalkConfig(seed=12, steps_per_phase=2000))
        assert np.all(first.frozen <= second.frozen)
        np.testing.assert_array_equal(second.x[first.frozen], first.x[first.frozen])
        assert np.all(np.isin(second.x[second.frozen], (0.0, 1.0)))


class TestRound:
    def test_random_instances_reach_target(self):
        failures = 0
        for seed in range(20):
            cs = random_instance(256, 4, seed=100 + seed)
            try:
                res = lm_round(cs, WalkConfig(seed=seed))
            except MaxPhasesExceeded:
                failures += 1
                continue
            assert res.fractional <= 64
            assert cs.residual(res.x) <= 1e-6
            assert np.all(res.x >= 0) and np.all(res.x <= 1)
        assert failures == 0

    def test_rounds_more_than_twice_the_step_budget(self):
        # a landing is charged the share of its step it used; charged a whole
        # step, a phase froze at most steps_per_phase = 400 coordinates, so no
        # phase could halve n = 1024 and every attempt was thrown away
        cfg = WalkConfig(delta=0.1, max_phases=20, seed=3)
        for seed in range(3):
            cs = random_instance(1024, 4, seed=60 + seed)
            assert cs.n > 2 * cfg.steps_per_phase
            res = lm_round(cs, cfg)
            assert cs.residual(res.x) <= 1e-6
            assert fractional_count(res.x) <= 16 * cs.m
            assert max(res.accepted_freeze_counts) > cfg.steps_per_phase

    def test_vertex_input_returns_immediately(self):
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0] * 8)
        cs = ConstraintSet(np.random.default_rng(0).standard_normal((2, 40)), y)
        res = lm_round(cs, WalkConfig(seed=0))
        assert res.phases == 0
        np.testing.assert_array_equal(res.x, y)

    def test_phase_count_logarithmic(self):
        counts = []
        for seed in range(8):
            cs = random_instance(512, 4, seed=200 + seed)
            res = lm_round(cs, WalkConfig(seed=seed))
            counts.append(res.phases)
        budget = 40 * np.log(512 / 4)
        assert np.median(counts) <= budget

    def test_m_bounds_enforced(self):
        cs = random_instance(64, 8, seed=1)  # 8 > 64/16
        with pytest.raises(ValueError):
            lm_round(cs, WalkConfig(seed=0))
        with pytest.raises(ValueError):
            lm_round(ConstraintSet(np.zeros((0, 64)), np.full(64, 0.5)), WalkConfig(seed=0))

    def test_max_phases_error_carries_partial(self):
        cs = random_instance(256, 4, seed=2)
        with pytest.raises(MaxPhasesExceeded) as err:
            lm_round(cs, WalkConfig(seed=0, steps_per_phase=1, max_phases=2))
        partial = err.value.partial
        assert partial.fractional >= 0
        assert np.all(partial.x >= 0) and np.all(partial.x <= 1)

    def test_rows_on_integral_coordinates_only(self):
        # the one row reads only coordinate 0, which starts at 0 and so never
        # moves: the free coordinates span no row, and the walk meets it exactly
        y = np.random.default_rng(6).random(64)
        y[0] = 0.0
        cs = ConstraintSet(np.eye(1, 64), y)
        res = lm_round(cs, WalkConfig(seed=0))
        assert res.residual_l2 == 0.0 and res.x[0] == 0.0
        assert res.fractional <= 16

    def test_rank_deficient_rows_walk_to_rank(self):
        cs = rank_deficient_instance(512, seed=0)
        res = lm_round(cs, WalkConfig(seed=0))
        assert cs.residual(res.x, ord=2) <= 1e-6
        assert res.fractional <= 4

    def test_m64_walks_at_n2048(self):
        # criterion 01's m=64 arm at n=1024 starts at its target (16m = n)
        # and returns after 0 phases; n=2048 makes the walk do the work
        for seed in range(3):
            cs = random_instance(2048, 64, seed=300 + seed)
            res = lm_round(cs, WalkConfig(seed=seed))
            assert res.phases >= 1
            assert res.fractional <= 1024
            assert cs.residual(res.x, ord=2) <= 1e-6
            assert np.all(res.x >= 0) and np.all(res.x <= 1)
            assert np.all(np.isin(res.x[res.frozen], (0.0, 1.0)))

    def test_composition_with_grid_bracket(self):
        # walk in interpolation space, then snap leftovers: result on-grid
        rng = np.random.default_rng(33)
        w = rng.standard_normal(128)
        grid = build_block_scaling(w, bits=3, groupsize=16)
        br = bracket_of(w, grid)
        grads = rng.standard_normal((4, 128))
        cs = ConstraintSet(grads * br.delta, br.position())
        res = lm_round(cs, WalkConfig(seed=3))
        snapped = finalize(res.x, br, tau=1e-3)
        assert np.all((snapped == br.w_down) | (snapped == br.w_up))


class TestWalkInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_phase_invariants(self, data):
        n = data.draw(st.integers(16, 128))
        m = data.draw(st.integers(1, n // 16))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((m, n))
        if data.draw(st.booleans()):
            rows = np.vstack([rows, -3.0 * rows[0]])
        cs = ConstraintSet(rows, rng.random(n))
        first = lm_phase(cs, cs.y, np.zeros(n, bool), WalkConfig(seed=seed))
        second = lm_phase(cs, first.x, first.frozen, WalkConfig(seed=seed + 1))
        for res in (first, second):
            assert np.all(res.x >= 0) and np.all(res.x <= 1)
            assert cs.residual(res.x, ord=2) <= 1e-6
            assert np.all(np.isin(res.x[res.frozen], (0.0, 1.0)))
        assert np.all(first.frozen <= second.frozen)
        np.testing.assert_array_equal(second.x[first.frozen], first.x[first.frozen])


class TestVertexOracle:
    def test_enumerated_vertices_are_mostly_integral(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((2, 10))
        y = rng.random(10)
        vertices = brute_force_vertices(matrix, y)
        assert len(vertices) > 0
        for v in vertices:
            integral = np.sum(np.isin(v, (0.0, 1.0)))
            assert integral >= 8

    def test_walk_output_matches_a_vertex_pattern(self):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((2, 10))
        y = rng.random(10)
        cs = ConstraintSet(matrix, y)
        vertices = brute_force_vertices(matrix, y)
        res = lm_phase(cs, y, np.zeros(10, bool), WalkConfig(seed=9))
        frozen = res.frozen
        assert frozen.any()
        agrees = [np.array_equal(v[frozen], res.x[frozen]) for v in vertices]
        assert any(agrees)

    def test_interior_point_fully_fractional(self):
        cs = random_instance(12, 2, seed=6)
        count, resid = vertex_integrality_check(cs, cs.y)
        assert count == 12
        assert resid == 0.0

    def test_round_output_integrality(self):
        cs = random_instance(256, 8, seed=7)
        res = lm_round(cs, WalkConfig(seed=10))
        count, resid = vertex_integrality_check(cs, res.x)
        assert count <= 16 * 8
        assert resid <= 1e-6


class TestVarianceProbe:
    def test_constraint_normal_direction_never_moves(self):
        cs = random_instance(64, 3, seed=8)
        theta = cs.matrix[1]
        val = walk_variance_probe(cs, WalkConfig(seed=0, steps_per_phase=500), theta, trials=30)
        assert val <= 1e-10

    def test_random_unit_direction_bounded(self):
        cs = random_instance(128, 4, seed=9)
        rng = np.random.default_rng(10)
        theta = rng.standard_normal(128)
        theta /= np.linalg.norm(theta)
        val = walk_variance_probe(cs, WalkConfig(seed=1), theta, trials=40)
        assert val <= 4.0

    def test_trials_floor(self):
        cs = random_instance(16, 1, seed=10)
        with pytest.raises(ValueError):
            walk_variance_probe(cs, WalkConfig(seed=0), np.ones(16), trials=10)

    @pytest.mark.parametrize("theta", [np.ones(15), np.ones((2, 16)), np.full(16, np.nan)],
                             ids=["short", "2d", "nan"])
    def test_bad_theta_rejected_before_any_phase(self, monkeypatch, theta):
        # a wrong length failed in a matmul after a whole phase, and a NaN theta
        # returned nan after every trial
        monkeypatch.setattr(lmwalk, "_run_phase", None)  # no phase may run
        cs = random_instance(16, 1, seed=10)
        with pytest.raises(ValueError, match=r"theta must be a finite vector of shape \(16,\)"):
            walk_variance_probe(cs, WalkConfig(seed=0), theta, trials=30)

    @pytest.mark.parametrize("spoil", [
        lambda x: np.full_like(x, np.nan),
        lambda x: x + 1e-3,  # off the constraints by far more than the limit
    ], ids=["non-finite", "residual"])
    def test_every_phase_is_checked(self, monkeypatch, spoil):
        cs = random_instance(64, 2, seed=11)

        def spoiled_phase(*args):
            result = _run_phase(*args)
            return dataclasses.replace(result, x=spoil(result.x))

        monkeypatch.setattr(lmwalk, "_run_phase", spoiled_phase)
        with pytest.raises(FloatingPointError):
            walk_variance_probe(cs, WalkConfig(seed=0), np.ones(64), trials=30)


class TestStepLaw:
    """The walk against the two walks it replaced.

    The restart-after-freeze walk draws its steps differently; the block
    walk screens every carried row after a freeze, not one.  All three take
    the same steps in distribution, so over 200 phases each, on independent
    seeds, the means of <theta, x - y>^2 and of the freeze count must agree
    within 4 combined standard errors (a false alarm has probability about
    6e-5 per comparison).  A 150-step budget stops the phases mid-walk,
    where freezes are dense and their count varies; 1000 steps also reach
    the sparse tail near saturation.
    """

    TRIALS = 200

    @staticmethod
    def moments(walk, cs, cfg, stream):
        theta = np.random.default_rng(42).standard_normal(cs.n)
        theta /= np.linalg.norm(theta)
        m_unit, frozen = cs.unit_rows(), np.zeros(cs.n, bool)
        second, freezes = [], []
        for t in range(TestStepLaw.TRIALS):
            x, done = walk(m_unit, cs.y, frozen, cfg, np.random.default_rng([stream, t]))
            assert cs.residual(x, ord=2) <= 1e-9
            second.append(float(theta @ (x - cs.y)) ** 2)
            freezes.append(int(done.sum()))
        return np.array(second), np.array(freezes)

    @staticmethod
    def carried_walk(m_unit, y, frozen, cfg, rng):
        phase = _run_phase(m_unit, y, frozen, cfg, rng)
        return phase.x, phase.frozen

    def assert_same_law(self, reference, make, steps, stream):
        cs, cfg = make(), WalkConfig(steps_per_phase=steps)
        new = self.moments(self.carried_walk, cs, cfg, stream=1)
        old = self.moments(reference, cs, cfg, stream=stream)
        for a, b in zip(new, old):
            se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(self.TRIALS)
            assert abs(a.mean() - b.mean()) <= 4 * se, (a.mean(), b.mean(), se)

    INSTANCES = pytest.mark.parametrize(
        "make", [lambda: random_instance(64, 4, seed=40),
                 lambda: rank_deficient_instance(64, seed=41)],
        ids=["gaussian", "rank_deficient"])

    @pytest.mark.parametrize("steps", [150, 1000])
    @INSTANCES
    def test_matches_doubling_walk(self, make, steps):
        self.assert_same_law(doubling_walk_phase, make, steps, stream=2)

    @pytest.mark.parametrize("steps", [150, 1000])
    @INSTANCES
    def test_matches_block_walk(self, make, steps):
        self.assert_same_law(block_walk_phase, make, steps, stream=3)

    @pytest.mark.parametrize("steps", [5, 10, 20])
    def test_short_phase_pins_block_walk(self, steps):
        # the same raw rows in the same order, so on phases short enough that
        # round-off flips no freeze, the same coordinates freeze and x agrees
        # to round-off; these budgets take 33, 53 and 81 landings.  By 50
        # steps (150 landings) the two part, as the walk parts from itself
        # when y moves by 1e-15
        cs = random_instance(1024, 8, seed=43)
        m_unit, frozen, cfg = cs.unit_rows(), np.zeros(cs.n, bool), WalkConfig(steps_per_phase=steps)
        phase = _run_phase(m_unit, cs.y, frozen, cfg, np.random.default_rng([4, steps]))
        x, done = block_walk_phase(m_unit, cs.y, frozen, cfg, np.random.default_rng([4, steps]))
        assert phase.newly_frozen > 0
        np.testing.assert_array_equal(phase.frozen, done)
        np.testing.assert_allclose(phase.x, x, rtol=0, atol=1e-9)


class TestReferenceWalk:
    """The walk against ``reference_walk_phase``, its form before the row after
    a freeze was screened as a vector: the same draws through the same
    products, so x, frozen, saturated and newly_frozen agree byte for byte.
    Each instance is also checked to reach the projector path it is here for."""

    @staticmethod
    def assert_same_phase(cs, cfg, make_rng, monkeypatch):
        # how each single drop ended: "downdate", or the refresh that replaced it
        ends = []
        drop_one = _KeptProjector.drop_one

        def spy(proj, j):
            k = proj.basis.shape[0]
            end = ("endgame" if proj.free.size <= k + 1 else
                   "interval" if proj._downdates >= lmwalk._REFRESH_EVERY else "floor")
            drop_one(proj, j)
            ends.append("downdate" if proj._downdates else end)

        monkeypatch.setattr(_KeptProjector, "drop_one", spy)
        m_unit, frozen = cs.unit_rows(), np.zeros(cs.n, bool)
        new = _run_phase(m_unit, cs.y, frozen, cfg, make_rng())
        seen = set(ends)
        old = reference_walk_phase(m_unit, cs.y, frozen, cfg, make_rng())
        assert new.x.tobytes() == old.x.tobytes()
        assert new.frozen.tobytes() == old.frozen.tobytes()
        assert (new.saturated, new.newly_frozen) == (old.saturated, old.newly_frozen)
        assert new.newly_frozen > 0
        return seen

    @pytest.mark.parametrize("m", [8, 32])
    def test_sweep_shapes(self, m, monkeypatch):
        cs = random_instance(1024, m, seed=50 + m)
        seen = self.assert_same_phase(cs, WalkConfig(), lambda: np.random.default_rng([5, m]),
                                      monkeypatch)
        assert {"downdate", "interval", "endgame"} <= seen

    def test_duplicated_rows_and_floor_refreshes(self, monkeypatch):
        # duplicated rows alone leave every downdate above the floor; four
        # near-pinned coordinates (rows e_r plus 1e-3 noise) started inside
        # the band land with 1 - bᵀ K b below it
        rng = np.random.default_rng(51)
        rows = np.hstack([np.eye(4), np.zeros((4, 252))]) + 1e-3 * rng.standard_normal((4, 256))
        rows = np.vstack([rows, rng.standard_normal((2, 256))])
        y = rng.random(256)
        y[:4] = [0.005, 0.995, 0.01, 0.99]
        cs = ConstraintSet(np.vstack([rows, rows[:3]]), y)
        seen = self.assert_same_phase(cs, WalkConfig(), lambda: np.random.default_rng(0),
                                      monkeypatch)
        assert "floor" in seen

    def test_small_instance_to_saturation(self, monkeypatch):
        cs = random_instance(24, 4, seed=52)
        seen = self.assert_same_phase(cs, WalkConfig(steps_per_phase=20000),
                                      lambda: np.random.default_rng(5), monkeypatch)
        assert "endgame" in seen

    @staticmethod
    def landings(monkeypatch) -> list:
        """Spy that groups the coordinates each landing drops: no projection
        runs between the drops of one landing."""
        events = []
        project, drop_one = _KeptProjector.project, _KeptProjector.drop_one
        monkeypatch.setattr(_KeptProjector, "project",
                            lambda proj, g: events.append(None) or project(proj, g))
        monkeypatch.setattr(_KeptProjector, "drop_one",
                            lambda proj, j: events.append(int(proj.free[j])) or drop_one(proj, j))
        return events

    @staticmethod
    def grouped(events) -> list[list[int]]:
        return [list(g) for is_projection, g in itertools.groupby(events, lambda e: e is None)
                if not is_projection]

    def test_tied_coordinates(self, monkeypatch):
        # the twin-column draws of TestPhase: coordinates 0 and 1 land together
        class TwinColumns:
            def __init__(self):
                self.rng = np.random.default_rng(15)

            def standard_normal(self, shape):
                g = self.rng.standard_normal(shape)
                g[:, 1:2] = g[:, :1]
                return g

        cs = ConstraintSet(np.zeros((0, 6)), np.array([0.5, 0.5, 0.3, 0.7, 0.6, 0.2]))
        events = self.landings(monkeypatch)
        self.assert_same_phase(cs, WalkConfig(steps_per_phase=20000), TwinColumns, monkeypatch)
        assert [1, 0] in self.grouped(events)

    def test_three_way_tie_through_the_last_slot(self, monkeypatch):
        # identical columns from one point: all three coordinates reach a face
        # in one landing, the last free slot among them; landed first slot
        # first, the third drop would index past the shrunk free set
        class SameColumns:
            def __init__(self):
                self.rng = np.random.default_rng(16)

            def standard_normal(self, shape):
                return np.repeat(self.rng.standard_normal((shape[0], 1)), shape[1], axis=1)

        cs = ConstraintSet(np.zeros((0, 3)), np.full(3, 0.5))
        events = self.landings(monkeypatch)
        self.assert_same_phase(cs, WalkConfig(), SameColumns, monkeypatch)
        new = _run_phase(cs.unit_rows(), cs.y, np.zeros(3, bool), WalkConfig(), SameColumns())
        assert new.frozen.all() and new.x[0] in (0.0, 1.0) and np.all(new.x == new.x[0])
        assert self.grouped(events) == [[2, 1, 0]] * 3

    @pytest.mark.parametrize("steps", [37, 150])
    def test_short_budget(self, steps, monkeypatch):
        # the budget runs out mid-walk, the last draw cut to the steps left
        cs = random_instance(1024, 8, seed=53)
        self.assert_same_phase(cs, WalkConfig(steps_per_phase=steps),
                               lambda: np.random.default_rng([6, steps]), monkeypatch)


class TestMartingale:
    def test_unfrozen_mean_displacement_within_three_se(self):
        # start at the cube center with a short phase so freezing is rare;
        # conditioning on staying unfrozen then has negligible selection bias
        # and the projected-Gaussian steps must show no drift
        n = 32
        rng = np.random.default_rng(11)
        cs = ConstraintSet(rng.standard_normal((2, n)), np.full(n, 0.5))
        trials = 120
        disp = np.full((trials, n), np.nan)
        for t in range(trials):
            cfg = WalkConfig(steps_per_phase=100, seed=5000 + t)
            res = lm_phase(cs, cs.y, np.zeros(n, bool), cfg)
            unfrozen = ~res.frozen
            disp[t, unfrozen] = (res.x - cs.y)[unfrozen]
        for j in range(n):
            vals = disp[~np.isnan(disp[:, j]), j]
            if len(vals) < 30:
                continue
            se = vals.std(ddof=1) / np.sqrt(len(vals))
            if se == 0:
                continue
            assert abs(vals.mean()) <= 3 * se


class TestDeterminism:
    def test_same_seed_same_result(self):
        cs = random_instance(128, 3, seed=12)
        a = lm_round(cs, WalkConfig(seed=42))
        b = lm_round(cs, WalkConfig(seed=42))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.frozen, b.frozen)
        assert a.phases == b.phases

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(delta=0.0)
        with pytest.raises(ValueError):
            WalkConfig(delta=0.01, eps=0.02)
        with pytest.raises(ValueError):
            WalkConfig(steps_per_phase=0)
        assert WalkConfig(delta=0.1).steps_per_phase == 400

    @pytest.mark.parametrize("delta", [float("inf"), float("nan"), 1e200],
                             ids=["inf", "nan", "1e200"])
    def test_nonfinite_delta_names_delta(self, delta):
        # inf failed as "steps_per_phase must be >= 1", NaN as "need 0 < eps <= delta",
        # and 1e200 as an OverflowError from the default steps_per_phase, 4 / delta^2
        with pytest.raises(ValueError, match="^delta must be finite and positive"):
            WalkConfig(delta=delta)

    @pytest.mark.parametrize("field, value", [
        ("max_phases", 2.5), ("max_phases", True), ("max_phases", 3.0),
        ("steps_per_phase", 2.5), ("steps_per_phase", False),
        ("seed", 1.5), ("seed", True), ("seed", "1"),
    ])
    def test_non_int_fields_rejected(self, field, value):
        # 2.5 raised TypeError inside lm_round, seed 1.5 ran as seed 1 and
        # max_phases=True ran one phase
        with pytest.raises(ValueError, match=f"'{field}'"):
            WalkConfig(**{field: value})

    def test_numpy_int_fields_accepted(self):
        cfg = WalkConfig(steps_per_phase=np.int64(2500), max_phases=np.int32(50), seed=np.uint8(3))
        assert lm_round(random_instance(64, 1, seed=14), cfg).fractional <= 16

    def test_counts_consistency(self):
        cs = random_instance(128, 3, seed=13)
        res = lm_round(cs, WalkConfig(seed=2))
        assert fractional_count(res.x) == res.fractional
        assert sum(res.accepted_freeze_counts) == int(res.frozen.sum()) - int(
            np.isin(cs.y, (0.0, 1.0)).sum())
