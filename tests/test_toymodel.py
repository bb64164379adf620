"""Toy model forward/gradient correctness against independent oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discq.grid import build_block_scaling, explicit_grid, rtn
from discq.toymodel import (SampleBatch, ToyArch, ToyModel, ce_loss_rows,
                            first_order_study, forward_next_token, grad_stats,
                            gradient_rows, hessian_quadratic_form, kl_term,
                            load_checkpoint, mean_ce_grad, model_from_record,
                            model_to_record, per_sample_grad, random_model,
                            sample_sequences, save_checkpoint,
                            train_to_convergence)

from discq.optim import AdamW
from discq.toymodel import _backward, _forward, _per_row_grads

from oracles import (AllocatingAdamW, add_at_backward, add_at_per_row_grads,
                     allocating_forward, central_diff, direct_kl, keeping_kl_term, loop_rows,
                     per_position_sample)


def probe_indices(rng, n, count=32):
    return rng.choice(n, size=min(count, n), replace=False)


class TestForward:
    def test_zero_params_uniform(self):
        arch = ToyArch()
        model = ToyModel(arch, np.zeros(arch.n_params))
        p = forward_next_token(model, [3, 1])
        np.testing.assert_allclose(p, np.full(arch.vocab, 1 / arch.vocab), atol=1e-12)

    def test_normalization_and_positivity(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            model = random_model(seed=seed, scale=3.0)
            prefix = rng.integers(0, 16, size=rng.integers(0, 5))
            p = forward_next_token(model, prefix)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p > 0)

    def test_determinism(self):
        a = forward_next_token(random_model(seed=7), [2, 9, 4])
        b = forward_next_token(random_model(seed=7), [2, 9, 4])
        np.testing.assert_array_equal(a, b)

    def test_token_out_of_range(self):
        model = random_model(seed=1)
        with pytest.raises(ValueError):
            forward_next_token(model, [16])
        with pytest.raises(ValueError):
            forward_next_token(model, [-1])

    def test_prefix_too_long(self):
        model = random_model(seed=1)
        with pytest.raises(ValueError):
            forward_next_token(model, [1, 2, 3, 4, 5])

    def test_two_layer_arch(self):
        arch = ToyArch(layers=2)
        model = random_model(arch, seed=3)
        p = forward_next_token(model, [0, 1, 2, 3])
        assert abs(p.sum() - 1.0) < 1e-9


class TestGradients:
    def test_per_sample_grad_vs_finite_differences(self):
        model = random_model(seed=11)
        sample = ([5, 2, 9], 4)
        grad = per_sample_grad(model, sample)
        rng = np.random.default_rng(0)
        idx = probe_indices(rng, model.arch.n_params)

        def loss(params):
            probs = forward_next_token(model.with_params(params), sample[0])
            return -np.log(probs[sample[1]])

        fd = central_diff(loss, model.params, idx)
        scale = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(grad[idx] - fd) / scale) < 1e-4

    def test_two_layer_grad_vs_finite_differences(self):
        model = random_model(ToyArch(layers=2), seed=13)
        sample = ([1, 15, 0, 7], 2)
        grad = per_sample_grad(model, sample)
        rng = np.random.default_rng(1)
        idx = probe_indices(rng, model.arch.n_params)

        def loss(params):
            probs = forward_next_token(model.with_params(params), sample[0])
            return -np.log(probs[sample[1]])

        fd = central_diff(loss, model.params, idx)
        scale = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(grad[idx] - fd) / scale) < 1e-4

    def test_batch_mean_equals_mean_of_rows(self):
        model = random_model(seed=5)
        batch = sample_sequences(model, 6, seed=2)
        _, mean_grad = mean_ce_grad(model, batch)
        rows = gradient_rows(model, batch)
        np.testing.assert_allclose(mean_grad, rows.mean(axis=0), rtol=1e-10, atol=1e-14)

    def test_gradient_near_minimum_coordinate(self):
        # after training to a plateau the full-batch gradient is tiny everywhere
        model = random_model(seed=8)
        batch = sample_sequences(model, 16, seed=8)
        trained = train_to_convergence(model, batch, max_steps=400, lr=0.05)
        _, g = mean_ce_grad(trained, batch)
        assert np.linalg.norm(g) < np.linalg.norm(mean_ce_grad(model, batch)[1])


class TestKL:
    def test_identical_models_zero(self):
        teacher = random_model(seed=21)
        batch = sample_sequences(teacher, 8, seed=3)
        value, grad = kl_term(teacher, teacher, batch)
        assert value == 0.0
        assert np.max(np.abs(grad)) <= 1e-9

    def test_perturbed_student_positive(self):
        teacher = random_model(seed=22)
        batch = sample_sequences(teacher, 8, seed=4)
        bumped = teacher.params.copy()
        bumped[100] += 0.05
        value, _ = kl_term(teacher, teacher.with_params(bumped), batch)
        assert value > 0

    def test_matches_direct_summation(self):
        teacher = random_model(seed=23)
        student = random_model(seed=24)
        seqs = sample_sequences(teacher, 5, length=6, seed=5)
        value, _ = kl_term(teacher, student, seqs)
        total, count = 0.0, 0
        for s in range(5):
            for i in range(6):
                prefix = seqs.sequences[s, max(0, i - 4):i]
                pt = forward_next_token(teacher, prefix)
                ps = forward_next_token(student, prefix)
                total += direct_kl(pt, ps)
                count += 1
        assert value == pytest.approx(total / count, rel=1e-10)

    def test_gradient_vs_finite_differences(self):
        teacher = random_model(seed=25)
        student = random_model(seed=26)
        batch = sample_sequences(teacher, 4, seed=6)
        _, grad = kl_term(teacher, student, batch)
        rng = np.random.default_rng(2)
        idx = probe_indices(rng, teacher.arch.n_params)

        def f(params):
            return kl_term(teacher, student.with_params(params), batch)[0]

        fd = central_diff(f, student.params, idx)
        scale = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(grad[idx] - fd) / scale) < 1e-4

    def test_arch_mismatch(self):
        with pytest.raises(ValueError):
            kl_term(random_model(seed=1), random_model(ToyArch(hidden=16), seed=1),
                    SampleBatch(np.zeros((1, 4), dtype=int)))


def traced_peak(fn) -> int:
    """Peak bytes ``fn()`` holds at once, above what was allocated before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLeanPaths:
    """The quantize ops' forms that skip what their callers drop: ``kl_term``
    without a backward, ``gradient_rows`` as per-sequence means."""

    @pytest.mark.parametrize("arch", [ToyArch(), ToyArch(layers=2, hidden=64)],
                             ids=["layers1", "layers2"])
    def test_kl_value_without_gradient_is_the_same(self, arch):
        teacher = random_model(arch, seed=31)
        student = teacher.with_params(teacher.params * 1.01)
        batch = sample_sequences(teacher, 16, seed=32)
        value, grad = kl_term(teacher, student, batch, gradient=False)
        assert grad is None
        assert np.float64(value).tobytes() == np.float64(kl_term(teacher, student,
                                                                 batch)[0]).tobytes()

    def test_kl_value_finite_check_stays(self):
        teacher = random_model(seed=33)
        student = teacher.with_params(np.full(teacher.arch.n_params, np.nan))
        with pytest.raises(FloatingPointError, match="KL value"):
            kl_term(teacher, student, sample_sequences(teacher, 2, seed=34), gradient=False)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_per_sequence_rows_are_the_reshaped_mean(self, data):
        # hidden = 1 gives one-column bias blocks, whose own numpy mean sums pairwise
        arch = ToyArch(vocab=data.draw(st.integers(2, 9)), context=data.draw(st.integers(1, 4)),
                       hidden=data.draw(st.integers(1, 6)), emb=data.draw(st.integers(1, 4)),
                       layers=data.draw(st.sampled_from([1, 2])))
        model = random_model(arch, seed=data.draw(st.integers(0, 2 ** 16)),
                             scale=data.draw(st.sampled_from([0.1, 1.0, 8.0])))
        count, length = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
        batch = sample_sequences(model, count, length, seed=data.draw(st.integers(0, 2 ** 16)))
        got = gradient_rows(model, batch, per_sequence=True)
        ref = gradient_rows(model, batch).reshape(count, length, -1).mean(axis=1)
        assert got.tobytes() == ref.tobytes()

    def test_per_sequence_rejects_explicit_positions(self):
        model = random_model(seed=35)
        batch = SampleBatch(np.zeros((2, 3), dtype=int), positions=((0, 1, 2), (0, 1, 2)))
        with pytest.raises(ValueError, match="per_sequence"):
            gradient_rows(model, batch, per_sequence=True)

    def test_per_sequence_rows_skip_the_per_row_matrix(self):
        # the quantize_walk sizes: 48 sequences of 8 tokens
        model = random_model(seed=36)
        count, length = 48, 8
        batch = sample_sequences(model, count, length, seed=37)
        per_row = count * length * model.arch.n_params * 8
        per_seq = count * model.arch.n_params * 8
        lean = traced_peak(lambda: gradient_rows(model, batch, per_sequence=True))
        full = traced_peak(
            lambda: gradient_rows(model, batch).reshape(count, length, -1).mean(axis=1))
        assert lean < per_row
        # what the lean path holds instead: its per-sequence rows, and under
        # 256 KiB of ufunc buffers (the in-place sums over strided blocks) and objects
        assert full - lean >= per_row - per_seq - 2 ** 18

    def test_kl_without_gradient_skips_the_backward(self):
        # the held-out sizes: 256 sequences of 8 tokens
        arch = ToyArch()
        teacher = random_model(arch, seed=38)
        student = teacher.with_params(teacher.params * 1.01)
        batch = sample_sequences(teacher, 256, seed=39)
        rows = batch.sequences.size
        backward = 8 * (arch.n_params + rows * (2 * arch.hidden + arch.context * arch.emb))
        value_only = traced_peak(lambda: kl_term(teacher, student, batch, gradient=False))
        with_grad = traced_peak(lambda: kl_term(teacher, student, batch))
        assert with_grad - value_only >= backward
        # and the teacher's activations are gone before the student's pass
        kept = traced_peak(lambda: keeping_kl_term(teacher, student, batch))
        assert kept - with_grad >= 8 * rows * (arch.context * arch.emb + arch.hidden)


class TestHessianQuadraticForm:
    def test_zero_direction(self):
        teacher = random_model(seed=31)
        batch = sample_sequences(teacher, 4, seed=7)
        assert hessian_quadratic_form(teacher, batch, np.zeros(teacher.arch.n_params)) == 0.0

    def test_nonnegative(self):
        teacher = random_model(seed=32)
        batch = sample_sequences(teacher, 4, seed=8)
        rng = np.random.default_rng(3)
        for _ in range(5):
            d = rng.standard_normal(teacher.arch.n_params)
            assert hessian_quadratic_form(teacher, batch, d) >= 0

    def test_matches_kl_curvature(self):
        teacher = random_model(seed=33)
        batch = sample_sequences(teacher, 6, seed=9)
        rng = np.random.default_rng(4)
        eps = 1e-3
        for _ in range(4):
            d = rng.standard_normal(teacher.arch.n_params)
            d /= np.linalg.norm(d)
            kl, _ = kl_term(teacher, teacher.with_params(teacher.params + eps * d), batch)
            quad = hessian_quadratic_form(teacher, batch, d)
            assert 2 * kl / eps ** 2 == pytest.approx(quad, rel=0.05)


class TestGradStats:
    def test_single_sample_equality(self):
        model = random_model(seed=41)
        batch = SampleBatch(sample_sequences(model, 1, length=1, seed=1).sequences)
        rec = grad_stats(model, batch)
        assert rec.sq_norm_of_mean == pytest.approx(rec.mean_sq_norm, rel=1e-12)

    def test_duplicated_batch_identical_stats(self):
        model = random_model(seed=42)
        seqs = sample_sequences(model, 4, seed=2).sequences
        rec1 = grad_stats(model, SampleBatch(seqs))
        rec2 = grad_stats(model, SampleBatch(np.vstack([seqs, seqs])))
        assert rec1.sq_norm_of_mean == pytest.approx(rec2.sq_norm_of_mean, rel=1e-12)
        assert rec1.mean_sq_norm == pytest.approx(rec2.mean_sq_norm, rel=1e-12)

    def test_converged_model_has_small_mean_gradient(self):
        # self-generated corpus: training to a plateau shrinks the mean
        # gradient while per-sample gradients stay finite
        teacher = random_model(seed=43, scale=1.5)
        corpus = sample_sequences(teacher, 64, seed=3)
        trained = train_to_convergence(teacher, corpus, max_steps=600, lr=0.05)
        rec = grad_stats(trained, corpus)
        assert rec.sq_norm_of_mean / rec.mean_sq_norm < 0.1


class TestFirstOrderStudy:
    def test_identity_rounding_gives_zero_pairs(self):
        model = random_model(seed=51)
        grid = build_block_scaling(model.params, bits=4, groupsize=16)
        batch = sample_sequences(model, 4, seed=4)
        pairs = first_order_study(model, grid, model.params, batch)
        np.testing.assert_array_equal(pairs, 0.0)

    def test_one_pair_per_sample_row(self):
        model = random_model(seed=52)
        grid = build_block_scaling(model.params, bits=3, groupsize=16)
        batch = sample_sequences(model, 3, length=5, seed=5)
        pairs = first_order_study(model, grid, rtn(model.params, grid), batch)
        assert pairs.shape == (15, 2)
        assert np.all(np.isfinite(pairs))

    def test_correlation_improves_with_finer_grid(self):
        corr = {}
        for spacing in (0.2, 0.1, 0.05):
            cors = []
            for seed in range(8):
                model = random_model(seed=60 + seed)
                w = model.params
                lo = int(np.floor(w.min() / spacing)) - 1
                hi = int(np.ceil(w.max() / spacing)) + 1
                grid = explicit_grid(np.arange(lo, hi + 1) * spacing, n=w.shape[0])
                batch = sample_sequences(model, 12, seed=seed)
                pairs = first_order_study(model, grid, rtn(w, grid), batch)
                cors.append(np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1])
            corr[spacing] = float(np.median(cors))
        assert corr[0.05] >= corr[0.1] >= corr[0.2] - 0.02

    def test_rounding_outside_bracket_rejected(self):
        model = random_model(seed=53)
        grid = build_block_scaling(model.params, bits=4, groupsize=16)
        bad = model.params + 10.0
        with pytest.raises(ValueError):
            first_order_study(model, grid, bad, sample_sequences(model, 2, seed=6))


class TestBatchesAndCheckpoints:
    def test_sample_batch_validation(self):
        with pytest.raises(ValueError):
            SampleBatch(np.zeros((0, 4), dtype=int))
        arch = ToyArch()
        batch = SampleBatch(np.array([[0, 17, 1, 2]]))
        with pytest.raises(ValueError):
            batch.rows(arch)

    def test_position_subsets(self):
        arch = ToyArch()
        seqs = np.array([[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1]])
        batch = SampleBatch(seqs, positions=((0, 5), (2,)))
        prefixes, targets = batch.rows(arch)
        assert prefixes.shape == (3, arch.context)
        np.testing.assert_array_equal(targets, [1, 6, 4])
        # position 5 with context 4 uses the trailing window
        np.testing.assert_array_equal(prefixes[1], [2, 3, 4, 5])
        # position 0 is fully padded
        assert np.all(prefixes[0] == arch.pad_id)

    def test_position_out_of_range(self):
        batch = SampleBatch(np.array([[1, 2, 3], [4, 5, 6]]), positions=((0,), (1, 3)))
        with pytest.raises(ValueError, match="position 3 outside sequence of length 3"):
            batch.rows(ToyArch())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rows_match_reference_loop(self, data):
        arch = ToyArch(vocab=data.draw(st.integers(2, 12)),
                       context=data.draw(st.integers(1, 6)))
        count = data.draw(st.integers(1, 5))
        length = data.draw(st.integers(1, 9))
        tokens = st.integers(0, arch.vocab - 1)
        seqs = np.array(data.draw(st.lists(st.lists(tokens, min_size=length, max_size=length),
                                           min_size=count, max_size=count)))
        subsets = st.lists(st.integers(0, length - 1), max_size=2 * length).map(tuple)
        positions = data.draw(st.none() | st.lists(subsets, min_size=count,
                                                   max_size=count).map(tuple))
        batch = SampleBatch(seqs, positions=positions)
        prefixes, targets = batch.rows(arch)
        ref_prefixes, ref_targets = loop_rows(batch, arch)
        assert prefixes.shape == (len(ref_targets), arch.context)
        assert prefixes.dtype == targets.dtype == np.int64
        np.testing.assert_array_equal(prefixes, ref_prefixes.reshape(prefixes.shape))
        np.testing.assert_array_equal(targets, ref_targets)

    @pytest.mark.parametrize("arch", [ToyArch(), ToyArch(layers=2)])
    @pytest.mark.parametrize("count,length", [(1, 1), (3, 8), (17, 5)])
    def test_sampling_matches_per_position_draws(self, arch, count, length):
        model = random_model(arch, seed=72)
        batch = sample_sequences(model, count, length, seed=4)
        rng = np.random.default_rng(np.random.SeedSequence([4, 0xDA7A]))
        np.testing.assert_array_equal(batch.sequences,
                                      per_position_sample(model, count, length, rng))

    def test_sampling_determinism(self):
        model = random_model(seed=70)
        a = sample_sequences(model, 5, seed=9).sequences
        b = sample_sequences(model, 5, seed=9).sequences
        np.testing.assert_array_equal(a, b)
        c = sample_sequences(model, 5, seed=10).sequences
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("kwargs, message", [
        ({"count": 0}, "count must be >= 1, got 0"),
        ({"count": 4, "length": 0}, "length must be >= 1, got 0"),
        ({"count": 4, "seed": -1}, "seed must be nonnegative, got -1"),
    ], ids=["count", "length", "seed"])
    def test_sampling_arguments_named(self, kwargs, message):
        # each failed inside numpy (a reshape, a window view, a seed sequence)
        with pytest.raises(ValueError, match=message):
            sample_sequences(random_model(seed=70), **kwargs)

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        model = random_model(ToyArch(layers=2), seed=71)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.arch == model.arch
        np.testing.assert_array_equal(back.params, model.params)

    def test_record_roundtrip(self):
        model = random_model(seed=72)
        back = model_from_record(model_to_record(model))
        np.testing.assert_array_equal(back.params, model.params)

    def test_ce_rows_finite(self):
        model = random_model(seed=73)
        batch = sample_sequences(model, 4, seed=11)
        rows = ce_loss_rows(model, batch)
        assert rows.shape == (4 * 8,)
        assert np.all(np.isfinite(rows)) and np.all(rows > 0)


class TestLayout:
    def test_read_only(self):
        layout = ToyArch().layout()
        with pytest.raises(TypeError):
            layout["embed"] = (0, 1, (1,))
        with pytest.raises(TypeError):
            del layout["w1"]

    def test_cached_per_arch(self):
        one, two = ToyArch().layout(), ToyArch(layers=2).layout()
        assert ToyArch().layout() is one
        assert one != two
        assert "w2" in two and "w2" not in one

    def test_n_params_unchanged(self):
        assert ToyArch().n_params == 1720
        assert ToyArch(layers=2).n_params == 2776


class TestKernelBytePins:
    """The step kernels against their earlier allocating forms, to the last bit."""

    ARCHS = [ToyArch(), ToyArch(layers=2, hidden=16)]

    @staticmethod
    def prefixes(arch):
        # short sequences with repeated tokens, so prefix windows carry the pad
        # token and the same token several times in one window and across rows
        seqs = np.array([[3, 3, 3, 3, 3, 1], [0, 5, 0, 5, 0, 5], [7, 7, 2, 7, 7, 2]])
        return SampleBatch(seqs % arch.vocab).rows(arch)[0]

    @pytest.mark.parametrize("arch", ARCHS, ids=["layers1", "layers2"])
    def test_forward(self, arch):
        model = random_model(arch, seed=4)
        prefixes = self.prefixes(arch)
        for stack in (prefixes, np.stack([prefixes, prefixes[::-1]])):
            got, ref = _forward(model, stack), allocating_forward(model, stack)
            for key in ("logits", "logp", "p"):
                assert got[key].tobytes() == ref[key].tobytes()
            for a, b in zip(got["acts"], ref["acts"], strict=True):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("arch", ARCHS, ids=["layers1", "layers2"])
    def test_backward_and_per_row_grads(self, arch):
        model = random_model(arch, seed=5)
        prefixes = self.prefixes(arch)
        cache = _forward(model, prefixes)
        t_p = _forward(random_model(arch, seed=8), prefixes)["p"]
        rng = np.random.default_rng(6)
        for dlogits in ((cache["p"] - t_p) / len(prefixes),
                        rng.standard_normal(t_p.shape)):
            assert (_backward(model, cache, dlogits).tobytes()
                    == add_at_backward(model, cache, dlogits).tobytes())
            assert (_per_row_grads(model, cache, dlogits).tobytes()
                    == add_at_per_row_grads(model, cache, dlogits).tobytes())

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adamw_steps(self, weight_decay):
        rng = np.random.default_rng(9)
        n = 257
        opt = AdamW(n, lr=0.1, weight_decay=weight_decay)
        ref = AllocatingAdamW(n, lr=0.1, weight_decay=weight_decay)
        x = y = rng.random(n)
        for step in range(1, 21):
            grad = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, size=n)
            grad[rng.random(n) < 0.1] = 0.0
            lr = None if step % 2 else 0.1 * step / 20
            x, y = opt.step(x, grad, lr=lr), ref.step(y, grad, lr=lr)
            assert x.tobytes() == y.tobytes()
            assert opt.m.tobytes() == ref.m.tobytes()
            assert opt.v.tobytes() == ref.v.tobytes()


class TestOwnedResults:
    """Results that callers keep are theirs: a later call writes into arrays of its own."""

    def test_kl_term_gradients_survive_the_next_call(self):
        teacher, student = random_model(seed=91), random_model(seed=92)
        batches = [sample_sequences(teacher, 4, seed=s) for s in (93, 94)]
        first = kl_term(teacher, student, batches[0])[1]
        kept = first.copy()
        second = kl_term(teacher, student, batches[1])[1]
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second)

    def test_gradient_rows_survive_the_next_call(self):
        model = random_model(seed=95)
        batches = [sample_sequences(model, 3, seed=s) for s in (96, 97)]
        first = gradient_rows(model, batches[0])
        kept = first.copy()
        second = gradient_rows(model, batches[1])
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second)

    def test_forward_cache_rewritten_in_place(self):
        model = random_model(seed=98)
        prefixes = [sample_sequences(model, 2, seed=s).rows(model.arch)[0] for s in (99, 100)]
        cache = _forward(model, prefixes[0])
        assert _forward(model, prefixes[1], cache) is cache
        fresh = _forward(model, prefixes[1])
        for key in ("logits", "logp", "p"):
            assert cache[key].tobytes() == fresh[key].tobytes()
