"""Hadamard transforms: orthogonality, round trips, outlier flattening."""

import numpy as np
import pytest
import scipy.linalg

from discq.harness import pipeline_with_incoherence
from discq.incoherence import (RHT, Identity, ModelIncoherence, is_power_of_two,
                               next_power_of_two, rht_apply, rht_inverse,
                               transform_layer, untransform_layer)
from discq.pipeline import quantize_model
from discq.toymodel import (ToyArch, forward_next_token, kl_term, random_model,
                            sample_sequences)

from oracles import layerwise_from_q, layerwise_to_q, naive_hadamard_apply


class TestFwht:
    """The Walsh-Hadamard matrix of an RHT and its transport along any axis."""

    def test_dim_one(self):
        t = RHT(dim=1, signs=np.array([-1.0]))
        assert rht_apply(t, np.array([3.0]))[0] == -3.0

    def test_dim_two_spike(self):
        t = RHT(dim=2, signs=np.array([1.0, 1.0]))
        np.testing.assert_allclose(rht_apply(t, np.array([1.0, 0.0])),
                                   [1 / np.sqrt(2), 1 / np.sqrt(2)])

    @pytest.mark.parametrize("dim", [2, 8, 64, 256, 512])
    def test_fast_equals_naive(self, dim):
        t = RHT.from_seed(dim, seed=dim)
        rng = np.random.default_rng(dim)
        v = rng.standard_normal(dim)
        fast = rht_apply(t, v)
        naive = naive_hadamard_apply(t.signs, v)
        np.testing.assert_allclose(fast, naive, atol=1e-10)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_nd_axis_matches_naive_on_every_fiber(self, axis):
        shape = [3, 5, 2]
        shape[axis] = 16
        t = RHT.from_seed(16, seed=9)
        v = np.random.default_rng(9).standard_normal(shape)
        out, inv = rht_apply(t, v, axis=axis), rht_inverse(t, v, axis=axis)
        assert out.shape == inv.shape == v.shape
        fibers = np.moveaxis(v, axis, -1)
        for idx in np.ndindex(fibers.shape[:-1]):
            np.testing.assert_allclose(np.moveaxis(out, axis, -1)[idx],
                                       naive_hadamard_apply(t.signs, fibers[idx]), atol=1e-12)
            # the inverse diag(signs) H / sqrt(d) is the naive map with unit signs, then signs
            np.testing.assert_allclose(np.moveaxis(inv, axis, -1)[idx],
                                       t.signs * naive_hadamard_apply(np.ones(16), fibers[idx]),
                                       atol=1e-12)
        np.testing.assert_allclose(rht_inverse(t, out, axis=axis), v, atol=1e-12)
        np.testing.assert_allclose(rht_apply(t, inv, axis=axis), v, atol=1e-12)

    @pytest.mark.parametrize("dim", [1 << k for k in range(13)])
    def test_matrix_is_the_sylvester_definition_exactly(self, dim):
        # every entry of H_dim * diag(signs) is an exact +/-1, so the matrix is
        # that product divided by sqrt(dim) to the last bit
        for seed in range(3):
            t = RHT.from_seed(dim, seed=seed)
            want = scipy.linalg.hadamard(dim, dtype=np.float64)
            want *= t.signs
            want /= np.sqrt(dim)
            assert t.matrix().tobytes() == want.tobytes()

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            RHT.from_seed(12, seed=0)

    def test_power_helpers(self):
        assert is_power_of_two(64) and not is_power_of_two(63)
        assert next_power_of_two(17) == 32 and next_power_of_two(32) == 32


class TestOrthogonality:
    @pytest.mark.parametrize("dim", [4, 32, 128, 512])
    def test_explicit_matrix_orthogonal(self, dim):
        u = RHT.from_seed(dim, seed=7).matrix()
        np.testing.assert_allclose(u.T @ u, np.eye(dim), atol=1e-10)

    def test_matrix_cached_read_only(self):
        t = RHT.from_seed(32, seed=3)
        m = t.matrix()
        assert t.matrix() is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0.0

    def test_norm_preservation(self):
        rng = np.random.default_rng(0)
        t = RHT.from_seed(256, seed=1)
        for _ in range(10):
            v = rng.standard_normal(256) * rng.uniform(0.1, 100)
            assert np.linalg.norm(rht_apply(t, v)) == pytest.approx(
                np.linalg.norm(v), rel=1e-10)

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        t = RHT.from_seed(256, seed=2)
        v = rng.standard_normal(256)
        np.testing.assert_allclose(rht_inverse(t, rht_apply(t, v)), v, atol=1e-10)

    def test_length_mismatch(self):
        t = RHT.from_seed(8, seed=0)
        with pytest.raises(ValueError):
            rht_apply(t, np.zeros(9))


class TestTransformLayer:
    def test_spike_spreads_uniformly(self):
        r = c = 16
        left = RHT(dim=r, signs=np.ones(r))
        right = RHT(dim=c, signs=np.ones(c))
        w = np.zeros((r, c))
        w[3, 5] = 1.0
        out = transform_layer(w, left, right)
        np.testing.assert_allclose(np.abs(out.matrix), 1 / np.sqrt(r * c))

    def test_roundtrip_with_padding(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((17, 8))
        left = RHT.from_seed(32, seed=3)
        right = RHT.from_seed(8, seed=4)
        layer = transform_layer(w, left, right)
        assert layer.matrix.shape == (32, 8)
        np.testing.assert_allclose(untransform_layer(layer), w, atol=1e-9)

    def test_heavy_tailed_outliers_flattened(self):
        # outlier flattening needs outliers: for Gaussian entries the
        # transformed matrix is equal in distribution to the input and no
        # reduction can exist, so probe with heavy-tailed weights
        rng = np.random.default_rng(5)
        wins = 0
        for trial in range(50):
            w = rng.standard_t(df=3, size=(128, 128))
            left = RHT.from_seed(128, seed=100 + trial)
            right = RHT.from_seed(128, seed=200 + trial)
            out = transform_layer(w, left, right)
            wins += out.max_abs <= np.max(np.abs(w))
        assert wins >= 45

    def test_layer_function_preserved_through_identity_rounding(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((24, 40))
        left = RHT.from_seed(32, seed=7)
        right = RHT.from_seed(64, seed=8)
        layer = transform_layer(w, left, right)
        back = untransform_layer(layer)  # no rounding at all
        for _ in range(20):
            x = rng.standard_normal(40)
            np.testing.assert_allclose(back @ x, w @ x, atol=1e-8)


class TestModelIncoherence:
    def test_roundtrip_on_model_params(self):
        teacher = random_model(seed=10)
        tr = ModelIncoherence(teacher.arch, seed=3)
        q = tr.to_q(teacher.params)
        assert q.shape[0] == tr.n_q > teacher.params.shape[0]
        np.testing.assert_allclose(tr.from_q(q), teacher.params, atol=1e-9)

    def test_model_function_preserved(self):
        teacher = random_model(seed=11)
        tr = ModelIncoherence(teacher.arch, seed=4)
        rebuilt = teacher.with_params(tr.from_q(tr.to_q(teacher.params)))
        p1 = forward_next_token(teacher, [1, 2, 3])
        p2 = forward_next_token(rebuilt, [1, 2, 3])
        np.testing.assert_allclose(p1, p2, atol=1e-9)

    def test_gradient_transport_chain_rule(self):
        # d/dq of L(from_q(q)) must equal to_q(dL/dw): check against a
        # numeric directional derivative through the round trip
        teacher = random_model(seed=12)
        tr = ModelIncoherence(teacher.arch, seed=5)
        batch = sample_sequences(teacher, 3, seed=6)
        student = random_model(seed=13)
        _, grad_w = kl_term(teacher, student, batch)
        grad_q = tr.grad_to_q(grad_w)
        rng = np.random.default_rng(7)
        q0 = tr.to_q(student.params)
        for _ in range(3):
            d = rng.standard_normal(tr.n_q)
            h = 1e-6
            up = kl_term(teacher, student.with_params(tr.from_q(q0 + h * d)), batch)[0]
            dn = kl_term(teacher, student.with_params(tr.from_q(q0 - h * d)), batch)[0]
            numeric = (up - dn) / (2 * h)
            assert numeric == pytest.approx(float(grad_q @ d), rel=1e-4, abs=1e-8)

    def test_seeded_transforms_reproducible(self):
        arch = ToyArch()
        a = ModelIncoherence(arch, seed=8)
        b = ModelIncoherence(arch, seed=8)
        w = random_model(arch, seed=14).params
        np.testing.assert_array_equal(a.to_q(w), b.to_q(w))
        c = ModelIncoherence(arch, seed=9)
        assert not np.array_equal(a.to_q(w), c.to_q(w))

    @pytest.mark.parametrize("arch", [ToyArch(), ToyArch(layers=2)])
    def test_matches_layerwise_transforms(self, arch):
        tr = ModelIncoherence(arch, seed=3)
        rng = np.random.default_rng(15)
        w = random_model(arch, seed=15).params
        np.testing.assert_array_equal(tr.to_q(w), layerwise_to_q(tr, w))
        q = rng.standard_normal(tr.n_q)
        np.testing.assert_array_equal(tr.from_q(q), layerwise_from_q(tr, q))
        np.testing.assert_array_equal(tr.grad_to_q(w), layerwise_to_q(tr, w))

    @pytest.mark.parametrize("arch", [
        ToyArch(hidden=8, emb=4), ToyArch(vocab=12, context=3, hidden=20, layers=2),
        ToyArch(vocab=32, hidden=64, emb=5), ToyArch(hidden=100, layers=2)],
        ids=["small", "odd", "wide", "deep"])
    def test_transport_matches_layerwise_on_padded_shapes(self, arch):
        # both sides of some blocks pad here; products cropped to the block's
        # shape would drop only zero terms, yet on "deep" they round differently
        for seed in range(4):
            tr = ModelIncoherence(arch, seed=seed)
            rng = np.random.default_rng(seed)
            w = random_model(arch, seed=seed).params
            assert tr.to_q(w).tobytes() == layerwise_to_q(tr, w).tobytes()
            q = rng.standard_normal(tr.n_q)
            assert tr.from_q(q).tobytes() == layerwise_from_q(tr, q).tobytes()

    @pytest.mark.parametrize("arch", [ToyArch(), ToyArch(layers=2)])
    def test_wrong_length_rejected(self, arch):
        tr = ModelIncoherence(arch, seed=3)
        for transport in (tr.to_q, tr.grad_to_q):
            for n in (arch.n_params - 1, arch.n_params + 7):
                with pytest.raises(ValueError, match=f"length {arch.n_params}"):
                    transport(np.ones(n))
        for n in (tr.n_q - 1, tr.n_q + 9):
            with pytest.raises(ValueError, match=f"length {tr.n_q}"):
                tr.from_q(np.ones(n))


class TestIdentity:
    @pytest.mark.parametrize("arch", [ToyArch(), ToyArch(layers=2)])
    def test_blocks_are_the_model_layout(self, arch):
        tr = Identity(arch)
        assert tr.n_q == tr.n_params == arch.n_params
        assert [(name, a, b, shape) for name, a, b, shape, *_ in tr.blocks] == \
            [(name, a, b, shape) for name, (a, b, shape) in arch.layout().items()]
        for _, a, b, _, left, right, qa, qb in tr.blocks:
            assert (left, right, qa, qb) == (None, None, a, b)

    def test_maps_return_their_input(self):
        tr = Identity(ToyArch())
        w = random_model(seed=16).params
        assert tr.to_q(w) is w and tr.from_q(w) is w and tr.grad_to_q(w) is w

    @pytest.mark.parametrize("method", ["rtn", "lmwalk"])
    def test_quantize_model_default_is_identity(self, method):
        teacher = random_model(seed=17)
        plain = quantize_model(teacher, 3, 16, method, seed=2)
        same = quantize_model(teacher, 3, 16, method, seed=2, transform=Identity(teacher.arch))
        assert plain.model.params.tobytes() == same.model.params.tobytes()
        assert plain.flags == same.flags == ()


class TestPipeline:
    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            pipeline_with_incoherence(random_model(seed=23), bits=3, groupsize=None,
                                      method="rtn", seeds=[])

    def test_fine_grid_keeps_kl_tiny_both_arms(self):
        teacher = random_model(seed=20)
        out = pipeline_with_incoherence(teacher, bits=14, groupsize=None,
                                        method="rtn", seeds=[0, 1],
                                        heldout_count=32)
        assert out["median_plain"] <= 1e-6
        assert out["median_incoherent"] <= 1e-6

    def test_determinism(self):
        teacher = random_model(seed=21)
        a = pipeline_with_incoherence(teacher, bits=2, groupsize=None,
                                      method="rtn", seeds=[0, 1], heldout_count=32)
        b = pipeline_with_incoherence(teacher, bits=2, groupsize=None,
                                      method="rtn", seeds=[0, 1], heldout_count=32)
        assert a == b

    def test_groupsize_with_incoherence_flagged(self):
        teacher = random_model(seed=22)
        out = pipeline_with_incoherence(teacher, bits=2, groupsize=16,
                                        method="rtn", seeds=[0], heldout_count=16)
        assert out["rows"][0]["flags"] == ["groupwise-scales-with-incoherence"]

    def test_rtn_at_three_bits_helped_by_incoherence(self):
        # the flattening mechanism needs enough levels for the bulk to land
        # on nonzero points; at 3 bits the win is decisive (at 2 bits a
        # 3-level max-scaled grid zeroes the bulk either way and preserving
        # outliers beats spreading them)
        gaps = []
        for seed in range(8):
            teacher = random_model(seed=30 + seed)
            out = pipeline_with_incoherence(teacher, bits=3, groupsize=None,
                                            method="rtn", seeds=[seed],
                                            incoh_seed=seed, heldout_count=128)
            gaps.append(out["rows"][0]["kl_incoherent"] - out["rows"][0]["kl_plain"])
        assert np.median(gaps) < 0
