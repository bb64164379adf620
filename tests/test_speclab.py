"""Spectrum construction, estimator error rates, and projected spectra."""

import numpy as np
import pytest

from discq.lmwalk import WalkConfig
from discq.speclab import (SpectrumSpec, _ols_loglog, empirical_covariance,
                           falpha_scaling_study, generalization_study,
                           jl_spectrum, sample_gradients, schatten1_error)
from discq.serialize import seeded_rng
from discq.toymodel import (gradient_rows, random_model, sample_sequences,
                            train_to_convergence)


class TestSpectrumSpec:
    @pytest.mark.parametrize("basis", ["axis-aligned", "random-orthogonal"])
    def test_sigma_eigenvalues_match_profile(self, basis):
        spec = SpectrumSpec(n=48, alpha=1.7, lam1=2.5, basis=basis, basis_seed=3)
        evals = np.linalg.eigvalsh(spec.sigma())[::-1]
        np.testing.assert_allclose(evals, spec.eigenvalues(), rtol=1e-10)

    def test_quad_form_matches_dense(self):
        spec = SpectrumSpec(n=32, alpha=2.0, basis="random-orthogonal", basis_seed=1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(32)
            assert spec.quad_form(v) == pytest.approx(v @ spec.sigma() @ v, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectrumSpec(n=8, alpha=1.0)
        with pytest.raises(ValueError):
            SpectrumSpec(n=8, alpha=2.0, family="cauchy")

    @pytest.mark.parametrize("kwargs, match", [
        (dict(alpha=float("nan")), "alpha"), (dict(alpha=float("inf")), "alpha"),
        (dict(lam1=float("nan")), "lam1"), (dict(lam1=float("inf")), "lam1"),
        (dict(n=2.5), "'n'"), (dict(n=True), "'n'"), (dict(n=8.0), "'n'"),
    ], ids=["alpha_nan", "alpha_inf", "lam1_nan", "lam1_inf", "n_float", "n_bool", "n_whole_float"])
    def test_nonfinite_or_non_int_rejected(self, kwargs, match):
        # a NaN passed both bounds; n = 2.5 built 3 eigenvalues and then made
        # sample_gradients raise TypeError
        with pytest.raises(ValueError, match=match):
            SpectrumSpec(**{"n": 8, "alpha": 2.0, **kwargs})

    def test_numpy_int_n_accepted(self):
        assert SpectrumSpec(n=np.int64(8), alpha=2.0).eigenvalues().shape == (8,)

    def test_basis_built_once_read_only(self):
        spec = SpectrumSpec(n=16, alpha=2.0, basis="random-orthogonal", basis_seed=4)
        q = spec.basis_matrix()
        assert spec.basis_matrix() is q
        assert not q.flags.writeable
        assert q.tobytes() == fresh_basis(spec).tobytes()
        assert SpectrumSpec(n=16, alpha=2.0).basis_matrix() is None

    @pytest.mark.parametrize("basis", ["axis-aligned", "random-orthogonal"])
    def test_studies_equal_a_basis_built_per_call(self, basis, monkeypatch):
        spec = SpectrumSpec(n=128, alpha=2.0, basis=basis, basis_seed=2)
        walk = WalkConfig(delta=0.05)
        runs = {}
        for label in ("cached", "per-call"):
            if label == "per-call":
                monkeypatch.setattr(SpectrumSpec, "basis_matrix", fresh_basis)
            falpha = falpha_scaling_study(spec, [4, 8, 16, 32], trials=20, seed=5)
            gen = generalization_study(spec, [1, 2, 4, 8], trials=2, walk_cfg=walk, seed=6)
            runs[label] = [(r.means.tobytes(), r.medians.tobytes(), r.slope, r.stderr)
                           for r in (falpha, gen)]
        assert runs["cached"] == runs["per-call"]


def fresh_basis(spec):
    """The eigenbasis built anew, as every ``basis_matrix()`` call once did."""
    if spec.basis == "axis-aligned":
        return None
    q, r = np.linalg.qr(seeded_rng(spec.basis_seed, 0x0B).standard_normal((spec.n, spec.n)))
    return q * np.sign(np.diag(r))


class TestSampling:
    def test_empirical_covariance_concentrates(self):
        spec = SpectrumSpec(n=32, alpha=2.0)
        grads = sample_gradients(spec, 10_000, seed=0)
        emp = empirical_covariance(grads)
        sigma = spec.sigma()
        rel = np.linalg.norm(emp - sigma) / np.linalg.norm(sigma)
        assert rel <= 0.1

    def test_rademacher_family_covariance(self):
        spec = SpectrumSpec(n=24, alpha=1.5, family="scaled-rademacher",
                            basis="random-orthogonal", basis_seed=5)
        grads = sample_gradients(spec, 20_000, seed=1)
        rel = np.linalg.norm(empirical_covariance(grads) - spec.sigma()) \
            / np.linalg.norm(spec.sigma())
        assert rel <= 0.1

    def test_gaussian_fourth_moment_ratio(self):
        spec = SpectrumSpec(n=32, alpha=2.0)
        grads = sample_gradients(spec, 100_000, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = rng.standard_normal(32)
            proj = grads @ theta
            ratio = np.mean(proj ** 4) / np.mean(proj ** 2) ** 2
            assert 2.5 <= ratio <= 3.5

    def test_trace_matches_partial_zeta_sum(self):
        spec = SpectrumSpec(n=32, alpha=4.0, lam1=3.0)
        grads = sample_gradients(spec, 40_000, seed=4)
        trace_emp = float(np.mean(np.sum(grads ** 2, axis=1)))
        trace_true = float(spec.eigenvalues().sum())
        assert trace_emp == pytest.approx(trace_true, rel=0.05)

    def test_mean_sq_norm_equals_trace(self):
        spec = SpectrumSpec(n=16, alpha=1.6)
        grads = sample_gradients(spec, 50_000, seed=5)
        assert np.mean(np.sum(grads ** 2, axis=1)) == pytest.approx(
            spec.eigenvalues().sum(), rel=0.05)


class TestEstimatorRun:
    def test_invariants(self):
        from discq.speclab import estimator_run
        spec = SpectrumSpec(n=16, alpha=2.0)
        run = estimator_run(spec, m=50, seed=3)
        assert run.error >= 0
        np.testing.assert_allclose(run.empirical, run.empirical.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(run.empirical)) >= -1e-12


class TestSchatten1:
    def test_zero_for_equal(self):
        spec = SpectrumSpec(n=8, alpha=2.0)
        assert schatten1_error(spec.sigma(), spec.sigma()) == 0.0

    def test_diagonal_case(self):
        sigma = np.zeros((3, 3))
        x = np.diag([1.0, -2.0, 0.0])
        assert schatten1_error(x, sigma) == pytest.approx(3.0)

    def test_norm_ordering_chain(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.standard_normal((5, 5))
            a = (a + a.T) / 2
            s1 = schatten1_error(a, np.zeros((5, 5)))
            fro = np.linalg.norm(a)
            op = np.linalg.norm(a, 2)
            assert s1 >= fro - 1e-12 >= op - 1e-12

    def test_triangle_inequality_and_homogeneity(self):
        rng = np.random.default_rng(7)
        zero = np.zeros((6, 6))
        for _ in range(10):
            a = rng.standard_normal((6, 6))
            a = (a + a.T) / 2
            b = rng.standard_normal((6, 6))
            b = (b + b.T) / 2
            assert schatten1_error(a + b, zero) <= \
                schatten1_error(a, zero) + schatten1_error(b, zero) + 1e-10
            c = rng.uniform(-3, 3)
            assert schatten1_error(c * a, zero) == pytest.approx(
                abs(c) * schatten1_error(a, zero), rel=1e-10, abs=1e-12)

    def test_rejects_nonsymmetric(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            schatten1_error(bad, np.zeros((2, 2)))


    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("side", ["x", "sigma"])
    def test_rejects_nonfinite(self, side, value):
        # a NaN off the diagonal passed the symmetry test and returned nan;
        # an inf tripped a numpy RuntimeWarning there
        bad = np.eye(4)
        bad[0, 1] = value
        args = (bad, np.eye(4)) if side == "x" else (np.eye(4), bad)
        with pytest.raises(ValueError, match="finite"):
            schatten1_error(*args)


class TestLogLogFit:
    def test_nonfinite_mean_raises(self):
        # the NaN point was dropped and the other three fitted (slope -0.643)
        with pytest.raises(ValueError, match="non-finite mean"):
            _ols_loglog([1, 2, 4, 8], [1.0, np.nan, 0.5, 0.25])
        with pytest.raises(ValueError, match="non-finite mean"):
            _ols_loglog([1, 2, 4, 8], [1.0, np.inf, 0.5, 0.25])

    def test_zero_means_stay_excluded(self):
        assert _ols_loglog([1, 2, 4, 8], [0.0, 1.0, 0.5, 0.25]) == \
            _ols_loglog([2, 4, 8], [1.0, 0.5, 0.25])


class TestFalphaScaling:
    def test_slope_shallow_decay_regime(self):
        # the m^(1-alpha) rate is tight only while m << n (the tail of the
        # spectrum supplies the dominant bias term); keep the grid well
        # below n
        spec = SpectrumSpec(n=1024, alpha=1.25)
        res = falpha_scaling_study(spec, (8, 16, 32, 64), trials=20, seed=0)
        assert res.slope == pytest.approx(-0.25, abs=0.1)

    def test_slope_fast_decay_regime(self):
        spec = SpectrumSpec(n=128, alpha=2.5)
        res = falpha_scaling_study(spec, (32, 64, 128, 256), trials=20, seed=1)
        assert res.slope == pytest.approx(-0.5, abs=0.1)

    def test_boundary_alpha_between_regimes(self):
        spec = SpectrumSpec(n=128, alpha=1.5)
        res = falpha_scaling_study(spec, (32, 64, 128, 256), trials=20, seed=2)
        assert -0.62 <= res.slope <= -0.38

    def test_basis_invariance(self):
        axis = falpha_scaling_study(SpectrumSpec(n=96, alpha=2.0),
                                    (16, 32, 64, 128), trials=20, seed=3)
        rotated = falpha_scaling_study(
            SpectrumSpec(n=96, alpha=2.0, basis="random-orthogonal", basis_seed=9),
            (16, 32, 64, 128), trials=20, seed=3)
        assert abs(axis.slope - rotated.slope) <= 3 * (axis.stderr + rotated.stderr) + 0.05

    def test_grid_validation(self):
        spec = SpectrumSpec(n=64, alpha=2.0)
        with pytest.raises(ValueError):
            falpha_scaling_study(spec, (8, 16, 32), trials=20)  # too few points
        with pytest.raises(ValueError):
            falpha_scaling_study(spec, (8, 16, 32, 64), trials=5)  # too few trials
        with pytest.raises(ValueError):
            falpha_scaling_study(spec, (8, 16, 24, 640), trials=20)  # not geometric
        with pytest.raises(ValueError, match="positive"):
            falpha_scaling_study(spec, (0, 1, 2, 4), trials=20)


class TestGeneralization:
    def test_quadratic_form_decreases_with_m(self):
        # the same law: medians of 8 trials came out of order on 7 of 60
        # seeds both for this walk and for the block walk it replaced
        # (oracles.block_walk_phase); of 24 trials, on none and on 1 of 60
        spec = SpectrumSpec(n=256, alpha=2.0)
        res = generalization_study(spec, (2, 4, 8, 16), trials=24,
                                   walk_cfg=WalkConfig(delta=0.04), seed=0)
        meds = res.medians
        assert np.all(np.diff(meds) < 0)

    def test_m_zero_edge(self):
        spec = SpectrumSpec(n=128, alpha=2.0)
        res = generalization_study(spec, (0, 1, 2, 4, 8), trials=4,
                                   walk_cfg=WalkConfig(delta=0.04), seed=1)
        assert res.means[0] == 0.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="need at least 1 trial"):
            generalization_study(SpectrumSpec(n=128, alpha=2.0), (1, 2, 4, 8), trials=0,
                                 walk_cfg=WalkConfig(), seed=0)

    def test_m_too_large_rejected(self):
        spec = SpectrumSpec(n=64, alpha=2.0)
        with pytest.raises(ValueError):
            generalization_study(spec, (2, 4, 8, 16), trials=4,
                                 walk_cfg=WalkConfig(), seed=0)


class TestJLSpectrum:
    def test_list_projection_accepted(self):
        # a list died with AttributeError: 'list' object has no attribute 'shape'
        g = np.random.default_rng(3).standard_normal((20, 6))
        proj = np.random.default_rng(4).standard_normal((3, 6))
        assert (jl_spectrum(g, 3, projection=proj.tolist()).tobytes()
                == jl_spectrum(g, 3, projection=proj).tobytes())

    def test_identity_projection_hook(self):
        spec = SpectrumSpec(n=24, alpha=2.0)
        grads = sample_gradients(spec, 200, seed=0)
        direct = np.linalg.eigvalsh(empirical_covariance(grads))[::-1]
        hooked = jl_spectrum(grads, d=24, projection=np.eye(24))
        np.testing.assert_allclose(hooked, direct, atol=1e-8)

    def test_low_rank_structure_preserved(self):
        rng = np.random.default_rng(8)
        r, n, m = 3, 64, 4000
        factors = rng.standard_normal((r, n))
        grads = rng.standard_normal((m, r)) @ factors
        evals = jl_spectrum(grads, d=16, seed=1)
        lam1 = evals[0]
        assert np.sum(evals > 1e-6 * lam1) <= r

    def test_toy_gradients_decay_fast(self):
        # fast eigenvalue decay is a property of converged models, so train
        # the teacher to a plateau before harvesting gradients
        model = train_to_convergence(random_model(seed=9),
                                     sample_sequences(random_model(seed=9), 64, seed=3),
                                     max_steps=600, lr=0.05)
        batch = sample_sequences(model, 96, seed=10)
        grads = gradient_rows(model, batch)
        evals = np.maximum(jl_spectrum(grads, d=64, seed=2), 1e-300)
        ks = np.arange(1, 33)
        slope = np.polyfit(np.log(ks), np.log(evals[:32]), 1)[0]
        assert -slope > 1.0  # eigenvalue decay exponent above 1

    def test_dimension_validation(self):
        grads = np.zeros((10, 8))
        with pytest.raises(ValueError):
            jl_spectrum(grads, d=9)
