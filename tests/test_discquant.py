"""Projected-SGD rounding: steering vector, box feasibility, limits, wins."""

import dataclasses
import itertools

import numpy as np
import pytest

from discq import discquant
from discq.discquant import (STREAM_CHUNK, DiscQuantConfig, NonFiniteObjective,
                             _kl_inputs, _teacher_chunks, cstar, finalize, init_x,
                             optimize)
from discq.incoherence import ModelIncoherence
from discq.grid import bracket_of, build_block_scaling, explicit_grid, rtn
from discq.optim import warmup_cosine_lr
from discq.pipeline import quantize_model
from discq.serialize import child_seed as _child_seed
from discq.toymodel import (SampleBatch, ToyArch, _forward, _sample_tokens, kl_term,
                            random_model, sample_sequences)

from oracles import _teacher_stream, chain_quantize_model, per_step_teacher_stream


class TestCstar:
    def test_formula(self):
        np.testing.assert_allclose(cstar(np.array([0.25, 0.75])), [0.5, -0.5])

    def test_half_gives_zero(self):
        np.testing.assert_array_equal(cstar(np.full(5, 0.5)), np.zeros(5))

    def test_identity_on_all_integral_points(self):
        rng = np.random.default_rng(0)
        y = rng.random(8)
        c = cstar(y)
        ysq = float(y @ y)
        for bits in itertools.product((0.0, 1.0), repeat=8):
            x = np.array(bits)
            lhs = float(c @ x) + ysq
            rhs = float((x - y) @ (x - y))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_rejects_out_of_box(self):
        with pytest.raises(ValueError):
            cstar(np.array([1.5]))


class TestInitX:
    def test_original_weights_reproduces_w(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal(64)
        br = bracket_of(w, build_block_scaling(w, bits=3, groupsize=16))
        x = init_x("original-weights", br)
        wx = br.w_down * (1 - x) + br.w_up * x
        np.testing.assert_allclose(wx, w, atol=4 * np.spacing(np.abs(w).max()))

    def test_uniform_reproducible_and_centered(self):
        w = np.linspace(-1, 1, 2000)
        br = bracket_of(w, build_block_scaling(w, bits=3, groupsize=16))
        a = init_x("uniform-random", br, seed=5)
        b = init_x("uniform-random", br, seed=5)
        np.testing.assert_array_equal(a, b)
        assert 0.45 <= a.mean() <= 0.55

    def test_unknown_mode(self):
        br = bracket_of(np.zeros(2), explicit_grid([-1.0, 0.0, 1.0], n=2))
        with pytest.raises(ValueError):
            init_x("zeros", br)


class TestFinalize:
    def test_integral_x_exact_selection(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(32)
        br = bracket_of(w, build_block_scaling(w, bits=3, groupsize=8))
        x = rng.integers(0, 2, 32).astype(float)
        out = finalize(x, br, tau=1e-3)
        np.testing.assert_array_equal(out, np.where(x == 1.0, br.w_up, br.w_down))

    def test_random_x_stays_on_bracket(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(64)
        br = bracket_of(w, build_block_scaling(w, bits=2, groupsize=16))
        out = finalize(rng.random(64), br, tau=1e-3)
        assert np.all((out == br.w_down) | (out == br.w_up))

    def test_midpoint_tie_follows_grid_rule(self):
        br = bracket_of(np.array([0.45]), explicit_grid([0.3, 0.6], n=1))
        out = finalize(np.array([0.5]), br, tau=1e-3)
        assert out[0] == 0.3  # smaller magnitude


def tiny_cfg(**over):
    base = dict(iterations=60, warmup=10, batch_size=2, seq_length=6)
    base.update(over)
    return DiscQuantConfig(**base)


class TestTeacherStream:
    @pytest.mark.parametrize("arch", [ToyArch(), ToyArch(layers=2)])
    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize("iterations", [5, 2 * STREAM_CHUNK + 37])
    def test_chunks_equal_per_step_sampling(self, arch, seed, iterations):
        teacher = random_model(arch, seed=30 + seed)
        cfg = DiscQuantConfig(iterations=iterations, warmup=1, batch_size=3,
                              seq_length=7, seed=seed)
        batches = list(_teacher_stream(teacher, cfg))
        reference = per_step_teacher_stream(teacher, cfg, iterations)
        assert len(batches) == iterations
        for batch, seqs in zip(batches, reference):
            np.testing.assert_array_equal(batch.sequences, seqs)

    def test_full_mix_chunks_differ_from_unmixed(self):
        teacher = random_model(seed=33)
        cfg = DiscQuantConfig(iterations=STREAM_CHUNK + 5, warmup=1, batch_size=3, seed=2)
        plain = list(_teacher_chunks(teacher, cfg))
        mixed = list(_teacher_chunks(teacher, cfg, 1.0))
        assert [k for _, k in mixed] == [k for _, k in plain]
        for (got, _), (ref, _) in zip(mixed, plain):
            assert got.sequences.shape == ref.sequences.shape
            assert np.all((got.sequences >= 0) & (got.sequences < teacher.arch.vocab))
            assert np.any(np.all(got.sequences != ref.sequences, axis=1))

    def test_zero_mix_draws_nothing_extra(self):
        teacher = random_model(seed=34)
        cfg = DiscQuantConfig(iterations=2 * STREAM_CHUNK + 3, warmup=1, batch_size=2, seed=3)
        for (got, _), (ref, _) in zip(_teacher_chunks(teacher, cfg, 0.0),
                                      _teacher_chunks(teacher, cfg)):
            np.testing.assert_array_equal(got.sequences, ref.sequences)


def cdf_boundary_uniforms(model, length: int, count: int, seed: int) -> np.ndarray:
    """(length, count) uniforms, each exactly on a cumulative probability of
    a per-step sampler forward, so a last-bit change in the sampler's
    probabilities flips tokens."""
    arch = model.arch
    rng = np.random.default_rng(seed)
    uniforms = np.empty((length, count))
    buf = np.full((count, arch.context + length), arch.pad_id, dtype=np.int64)
    for i in range(length):
        cdf = _forward(model, buf[:, i:i + arch.context])["p"].cumsum(axis=1)
        uniforms[i] = cdf[np.arange(count), rng.integers(0, arch.vocab - 1, size=count)]
        buf[:, arch.context + i] = (cdf < uniforms[i][:, None]).sum(axis=1)
    return uniforms


class TestStackedSampler:
    @pytest.mark.parametrize("arch", [ToyArch(), ToyArch(layers=2)])
    def test_stack_equals_per_step_calls_on_cdf_boundaries(self, arch):
        teacher = random_model(arch, seed=70)
        steps = [cdf_boundary_uniforms(teacher, 7, 4, seed) for seed in range(32)]
        stacked = _sample_tokens(teacher, np.stack(steps, axis=1))
        assert stacked.shape == (32, 4, 7)
        for got, uniforms in zip(stacked, steps):
            np.testing.assert_array_equal(got, _sample_tokens(teacher, uniforms))


class TestTeacherCache:
    @pytest.mark.parametrize("arch", [ToyArch(), ToyArch(layers=2)])
    @pytest.mark.parametrize("batch_size", [1, 3, 4])
    def test_stacked_teacher_equals_per_step_forward(self, arch, batch_size):
        teacher = random_model(arch, seed=50 + batch_size)
        iterations = STREAM_CHUNK + 45  # a partial last chunk and stack
        cfg = DiscQuantConfig(iterations=iterations, warmup=1, batch_size=batch_size,
                              seed=batch_size)
        cached = list(_kl_inputs(teacher, _teacher_chunks(teacher, cfg)))
        batches = list(_teacher_stream(teacher, cfg))
        assert len(cached) == len(batches) == iterations
        for (prefixes, logp, p), batch in zip(cached, batches):
            rows, _ = batch.rows(arch)
            step = _forward(teacher, rows)
            assert prefixes.tobytes() == rows.tobytes()
            assert logp.tobytes() == step["logp"].tobytes()
            assert p.tobytes() == step["p"].tobytes()

    @pytest.mark.parametrize("incoherent", [False, True])
    @pytest.mark.parametrize("arch", [ToyArch(), ToyArch(layers=2)])
    def test_default_stream_equals_caller_stream(self, arch, incoherent, monkeypatch):
        teacher = random_model(arch, seed=60)
        transform = ModelIncoherence(arch, seed=4) if incoherent else None
        wq = transform.to_q(teacher.params) if incoherent else teacher.params
        grid = build_block_scaling(wq, bits=3, groupsize=16)
        cfg = DiscQuantConfig(iterations=STREAM_CHUNK + 9, warmup=8, batch_size=3, seed=8)
        cached = optimize(teacher, grid, cfg, transform=transform)
        stream = [(SampleBatch(s), 1)
                  for s in per_step_teacher_stream(teacher, cfg, cfg.iterations)]
        monkeypatch.setattr(discquant, "_teacher_chunks", lambda *args: iter(stream))
        fed = optimize(teacher, grid, cfg, transform=transform)
        for name in ("x", "trace_kl", "trace_linear", "quantized"):
            assert getattr(cached, name).tobytes() == getattr(fed, name).tobytes(), name


class TestOptimize:
    def test_report_shape_and_box(self):
        teacher = random_model(seed=10)
        grid = build_block_scaling(teacher.params, bits=3, groupsize=16)
        rep = optimize(teacher, grid, tiny_cfg(seed=1))
        assert rep.trace_kl.shape == (60,)
        assert np.all(rep.x >= 0) and np.all(rep.x <= 1)
        br = bracket_of(teacher.params, grid)
        assert np.all((rep.quantized == br.w_down) | (rep.quantized == br.w_up))

    def test_huge_lambda_on_linear_recovers_rtn_exactly(self):
        teacher = random_model(seed=11)
        grid = build_block_scaling(teacher.params, bits=2, groupsize=16)
        cfg = DiscQuantConfig(lam=2e8, lambda_on="linear", iterations=300,
                              warmup=30, batch_size=2, seed=2)
        rep = optimize(teacher, grid, cfg)
        np.testing.assert_array_equal(rep.quantized, rtn(teacher.params, grid))

    def test_lambda_zero_on_fine_grid_sane(self):
        teacher = random_model(seed=12)
        grid = build_block_scaling(teacher.params, bits=8, groupsize=16)
        heldout = sample_sequences(teacher, 64, seed=99)
        rep = optimize(teacher, grid, tiny_cfg(lam=0.0, seed=3,
                                               init="original-weights"),
                       heldout=heldout)
        kl_base, _ = kl_term(teacher, teacher.with_params(rtn(teacher.params, grid)),
                             heldout)
        assert rep.heldout_kl <= 2 * kl_base + 1e-9

    def test_integrality_pressure(self):
        teacher = random_model(seed=13)
        grid = build_block_scaling(teacher.params, bits=2, groupsize=16)
        rep = optimize(teacher, grid, DiscQuantConfig(iterations=256, warmup=32,
                                                      batch_size=2, seed=4))
        frac_at_warmup = rep.trace_fractional[31]
        assert rep.trace_fractional[-1] <= frac_at_warmup

    def test_smoothed_objective_decreases(self):
        medians = []
        for seed in range(8):
            teacher = random_model(seed=40 + seed)
            grid = build_block_scaling(teacher.params, bits=3, groupsize=16)
            rep = optimize(teacher, grid, DiscQuantConfig(iterations=256, warmup=32,
                                                          batch_size=2, seed=seed))
            total = rep.trace_linear + rep.trace_kl
            ema = total[0]
            ema_trace = []
            for v in total:
                ema = 0.99 * ema + 0.01 * v
                ema_trace.append(ema)
            medians.append(ema_trace[-1] - ema_trace[31])
        assert np.median(medians) <= 0

    def test_beats_rtn_on_median_heldout_kl(self):
        gaps = []
        for seed in range(8):
            teacher = random_model(seed=seed)
            heldout = sample_sequences(teacher, 128, seed=seed + 1000)
            grid = build_block_scaling(teacher.params, bits=2, groupsize=16)
            kl_rtn, _ = kl_term(teacher, teacher.with_params(rtn(teacher.params, grid)),
                                heldout)
            rep = optimize(teacher, grid, DiscQuantConfig(seed=seed), heldout=heldout)
            gaps.append(rep.heldout_kl - kl_rtn)
        assert np.median(gaps) < 0

    def test_determinism(self):
        teacher = random_model(seed=14)
        grid = build_block_scaling(teacher.params, bits=3, groupsize=16)
        a = optimize(teacher, grid, tiny_cfg(seed=5))
        b = optimize(teacher, grid, tiny_cfg(seed=5))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.quantized, b.quantized)

    @pytest.mark.parametrize("mix", [-0.25, 1.5])
    def test_data_mix_outside_unit_interval_rejected(self, mix):
        teacher = random_model(seed=15)
        grid = build_block_scaling(teacher.params, bits=3, groupsize=16)
        with pytest.raises(ValueError, match="data_mix"):
            optimize(teacher, grid, tiny_cfg(seed=6), data_mix=mix)

    def test_grid_size_mismatch_rejected(self):
        teacher = random_model(seed=16)
        grid = build_block_scaling(np.zeros(10), bits=3, groupsize=5)
        with pytest.raises(ValueError):
            optimize(teacher, grid, tiny_cfg())

    def test_nonfinite_abort_carries_trace(self):
        teacher = random_model(seed=17)
        grid = build_block_scaling(teacher.params, bits=3, groupsize=16)
        bad = teacher.params.copy()
        with pytest.raises((NonFiniteObjective, FloatingPointError)), \
                np.errstate(all="ignore"):
            # an exploding teacher makes the KL ingredients overflow
            optimize(teacher.with_params(bad * 1e200), grid, tiny_cfg(seed=7))

    def test_nonfinite_kl_raises_with_traces(self):
        teacher = random_model(seed=17)
        grid = build_block_scaling(teacher.params, bits=3, groupsize=16)
        with pytest.raises(NonFiniteObjective, match="at step 1") as caught, \
                np.errstate(all="ignore"):
            optimize(teacher.with_params(teacher.params * 1e200), grid, tiny_cfg(seed=7))
        assert caught.value.trace_kl.shape == caught.value.trace_linear.shape == (0,)


class TestSchedule:
    def test_warmup_spanning_every_step_ends_at_peak(self):
        lrs = [warmup_cosine_lr(1.0, 4, 4, step) for step in range(1, 5)]
        assert lrs == [0.25, 0.5, 0.75, 1.0]


class TestPipelineCount:
    def test_fractional_is_counted_on_x(self):
        teacher = random_model(seed=18)
        cfg = tiny_cfg(iterations=8, warmup=2)
        out = quantize_model(teacher, 3, 16, "discquant", seed=4, dq_cfg=cfg)
        blocks = [(a, b) for a, b, _ in teacher.arch.layout().values()]
        grid = build_block_scaling(teacher.params, bits=3, groupsize=16, blocks=blocks)
        rep = optimize(teacher, grid, dataclasses.replace(cfg, seed=_child_seed(4, 0xD9)))
        np.testing.assert_array_equal(out.model.params, rep.model_params)
        expected = int(np.sum(np.minimum(rep.x, 1.0 - rep.x) > cfg.tau))
        assert out.fractional == expected > 0

    def test_mixed_calibration_equals_fed_stream(self, monkeypatch):
        teacher = random_model(seed=19)
        cfg = tiny_cfg(iterations=STREAM_CHUNK + 6, warmup=2)
        out = quantize_model(teacher, 3, 16, "discquant", seed=5, dq_cfg=cfg, data_mix=0.25)
        blocks = [(a, b) for a, b, _ in teacher.arch.layout().values()]
        grid = build_block_scaling(teacher.params, bits=3, groupsize=16, blocks=blocks)
        cfg = dataclasses.replace(cfg, seed=_child_seed(5, 0xD9))
        stream = [(batch, 1) for batch in _teacher_stream(teacher, cfg, 0.25)]
        with monkeypatch.context() as patch:
            patch.setattr(discquant, "_teacher_chunks", lambda *args: iter(stream))
            rep = optimize(teacher, grid, cfg)
        assert out.model.params.tobytes() == rep.model_params.tobytes()
        plain = quantize_model(teacher, 3, 16, "discquant", seed=5, dq_cfg=cfg)
        assert plain.model.params.tobytes() != out.model.params.tobytes()

    @pytest.mark.parametrize("mix", [-0.25, 1.5])
    def test_data_mix_outside_unit_interval_rejected(self, mix):
        with pytest.raises(ValueError, match="data_mix"):
            quantize_model(random_model(seed=20), 3, 16, "lmwalk", data_mix=mix)


class TestRounderTable:
    """quantize_model through pipeline.ROUNDERS equals the if/elif chain it replaced."""

    ARCH = ToyArch(hidden=8, emb=4)

    @pytest.mark.parametrize("mix", [0.0, 0.25])
    @pytest.mark.parametrize("incoherent", [False, True], ids=["identity", "incoherent"])
    @pytest.mark.parametrize("method", ["rtn", "discquant", "lmwalk"])
    def test_table_equals_chain_byte_for_byte(self, method, incoherent, mix):
        teacher = random_model(self.ARCH, seed=23)
        heldout = sample_sequences(teacher, 16, 8, seed=24)
        transform = ModelIncoherence(self.ARCH, seed=7) if incoherent else None
        kwargs = dict(seed=9, transform=transform, dq_cfg=tiny_cfg(iterations=12, warmup=2),
                      walk_samples=16, heldout=heldout, data_mix=mix)
        out = quantize_model(teacher, 3, 16, method, **kwargs)
        ref = chain_quantize_model(teacher, 3, 16, method, **kwargs)
        assert out.model.params.tobytes() == ref.model.params.tobytes()
        assert (out.heldout_kl, out.fractional, out.bits_per_param, out.flags) == \
            (ref.heldout_kl, ref.fractional, ref.bits_per_param, ref.flags)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            DiscQuantConfig(lam=-1)
        with pytest.raises(ValueError):
            DiscQuantConfig(warmup=2000, iterations=100)
        with pytest.raises(ValueError):
            DiscQuantConfig(tau=0.5)
        with pytest.raises(ValueError):
            DiscQuantConfig(lambda_on="both")
        with pytest.raises(ValueError):
            DiscQuantConfig(init="midpoint")

    @pytest.mark.parametrize("field, value, message", [
        ("lam", float("nan"), "lam must be finite"),
        ("lam", float("inf"), "lam must be finite"),
        ("lr", float("nan"), "lr must be finite"),
        ("lr", float("inf"), "lr must be finite"),
        ("clamp", float("nan"), "clamp must be positive"),
        ("weight_decay", float("nan"), "weight_decay must be finite"),
        ("weight_decay", float("inf"), "weight_decay must be finite"),
        ("weight_decay", -1.0, "weight_decay must be finite and nonnegative"),
    ])
    def test_nonfinite_and_negative_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            DiscQuantConfig(**{field: value})

    def test_infinite_clamp_accepted(self):
        assert DiscQuantConfig(clamp=float("inf")).clamp == float("inf")

    @pytest.mark.parametrize("kwargs", [
        {"seed": 1.5}, {"seed": True}, {"iterations": 2.5, "warmup": 0},
        {"batch_size": 2.0}, {"warmup": 1.0}, {"seq_length": 8.0},
    ], ids=lambda kwargs: next(iter(kwargs)))
    def test_int_fields_reject_other_types(self, kwargs):
        # seed=1.5 ran as seed 1; a float iterations or batch_size failed inside optimize
        with pytest.raises(ValueError, match=f"'{next(iter(kwargs))}' must be an int"):
            DiscQuantConfig(**kwargs)

    @pytest.mark.parametrize("length", [0, -1])
    def test_seq_length_rejected(self, length):
        with pytest.raises(ValueError, match="seq_length must be >= 1"):
            DiscQuantConfig(seq_length=length)
