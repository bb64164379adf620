"""Projected-SGD rounding: steering vector, box feasibility, limits, wins."""

import dataclasses
import itertools

import numpy as np
import pytest

from discq import discquant, lmwalk
from discq.discquant import (STREAM_CHUNK, DiscQuantConfig, NonFiniteObjective,
                             _teacher_chunks, cstar, finalize, init_x, optimize)
from discq.incoherence import ModelIncoherence
from discq.grid import bracket_of, build_block_scaling, explicit_grid, rtn
from discq.optim import AdamW, warmup_cosine_lr
from discq.pipeline import quantize_model
from discq.serialize import child_seed as _child_seed
from discq.toymodel import (SampleBatch, ToyArch, _forward, _kl_core, _sample_tokens,
                            kl_term, random_model, sample_sequences)

from oracles import (_teacher_stream, chain_quantize_model, kl_inputs, per_step_teacher_stream,
                     reference_optimize, teacher_chunks)


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
        steps = list(_teacher_chunks(teacher, cfg))
        reference = per_step_teacher_stream(teacher, cfg, iterations)
        assert len(steps) == iterations
        for (prefixes, _, _), seqs in zip(steps, reference):
            assert prefixes.tobytes() == SampleBatch(seqs).rows(arch)[0].tobytes()

    def test_full_mix_chunks_differ_from_unmixed(self):
        teacher = random_model(seed=33)
        cfg = DiscQuantConfig(iterations=STREAM_CHUNK + 5, warmup=1, batch_size=3, seed=2)
        plain = list(_teacher_chunks(teacher, cfg))
        mixed = list(_teacher_chunks(teacher, cfg, 1.0))
        assert len(mixed) == len(plain)
        arch, size, length = teacher.arch, cfg.batch_size, cfg.seq_length

        def tokens(steps):
            # a sequence's tokens but its last, read off its prefixes' last column
            return np.stack([prefixes.reshape(size, length, arch.context)[:, 1:, -1]
                             for prefixes, *_ in steps])

        got, ref = tokens(mixed), tokens(plain)
        assert np.all((got >= 0) & (got < arch.vocab))
        for chunk in range(0, cfg.iterations, STREAM_CHUNK):
            steps = slice(chunk, chunk + STREAM_CHUNK)
            assert np.any(np.all(got[steps] != ref[steps], axis=-1))

    def test_zero_mix_draws_nothing_extra(self):
        teacher = random_model(seed=34)
        cfg = DiscQuantConfig(iterations=2 * STREAM_CHUNK + 3, warmup=1, batch_size=2, seed=3)
        for got, ref in zip(_teacher_chunks(teacher, cfg, 0.0), _teacher_chunks(teacher, cfg)):
            for a, b in zip(got, ref):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("mix", [0.0, 0.25])
    @pytest.mark.parametrize("arch", [ToyArch(), ToyArch(layers=2), ToyArch(hidden=64)],
                             ids=["one", "two", "wide"])
    @pytest.mark.parametrize("batch_size", [1, 3, 4, 5])
    def test_stream_equals_stacked_teacher_oracle(self, batch_size, arch, mix):
        # the oracle samples in products of batch_size rows and scores in products
        # of batch_size * seq_length; the two round apart at batch 1, at 5 and on
        # the wide arch, so these pin that the stream scores in the second shape
        teacher = random_model(arch, seed=40 + batch_size)
        cfg = DiscQuantConfig(iterations=STREAM_CHUNK + 45, warmup=1, batch_size=batch_size,
                              seed=batch_size)  # a partial last chunk
        steps = list(_teacher_chunks(teacher, cfg, mix))
        oracle = list(kl_inputs(teacher, teacher_chunks(teacher, cfg, mix)))
        assert len(steps) == len(oracle) == cfg.iterations
        for got, ref in zip(steps, oracle):
            for a, b in zip(got, ref):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_tokens_clipped_as_written(self):
        # a uniform above the last cumulative probability draws the count vocab,
        # the pad id; later positions must be drawn after the clipped token
        for seed in range(20):
            teacher = random_model(seed=seed)
            arch = teacher.arch
            uniforms = np.random.default_rng(seed).random((6, 4))
            uniforms[:2] = 1 - 2.0 ** -53
            tokens, windows, logp, p = _sample_tokens(teacher, uniforms)
            prefixes = SampleBatch(tokens).rows(arch)[0].reshape(4, 6, arch.context)
            assert windows.tobytes() == prefixes.tobytes()
            step = _forward(teacher, prefixes)
            assert logp.tobytes() == step["logp"].tobytes()
            assert p.tobytes() == step["p"].tobytes()
            drawn = (step["p"].cumsum(axis=-1) < uniforms.T[..., None]).sum(axis=-1)
            assert tokens.tobytes() == np.minimum(drawn, arch.vocab - 1).tobytes()


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
        assert stacked[0].shape == (32, 4, 7)
        for j, uniforms in enumerate(steps):
            for got, ref in zip(stacked, _sample_tokens(teacher, uniforms)):
                assert got[j].tobytes() == ref.tobytes()


class TestTeacherCache:
    @pytest.mark.parametrize("arch", [ToyArch(), ToyArch(layers=2)])
    @pytest.mark.parametrize("batch_size", [1, 3, 4, 5])
    def test_stacked_teacher_equals_per_step_forward(self, arch, batch_size):
        teacher = random_model(arch, seed=50 + batch_size)
        iterations = STREAM_CHUNK + 45  # a partial last chunk and stack
        cfg = DiscQuantConfig(iterations=iterations, warmup=1, batch_size=batch_size,
                              seed=batch_size)
        cached = list(_teacher_chunks(teacher, cfg))
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
        stream = list(kl_inputs(teacher, [
            (SampleBatch(s), 1) for s in per_step_teacher_stream(teacher, cfg, cfg.iterations)]))
        monkeypatch.setattr(discquant, "_teacher_chunks", lambda *args: iter(stream))
        fed = optimize(teacher, grid, cfg, transform=transform)
        for name in ("x", "trace_kl", "trace_linear", "quantized"):
            assert getattr(cached, name).tobytes() == getattr(fed, name).tobytes(), name

    @pytest.mark.parametrize("mix", [0.0, 0.25])
    @pytest.mark.parametrize("incoherent", [False, True], ids=["identity", "incoherent"])
    @pytest.mark.parametrize("arch", [ToyArch(), ToyArch(layers=2)])
    @pytest.mark.parametrize("batch_size", [1, 3, 4, 5])
    def test_reports_equal_oracle_fed_reports(self, batch_size, arch, incoherent, mix,
                                              monkeypatch):
        teacher = random_model(arch, seed=61)
        transform = ModelIncoherence(arch, seed=5) if incoherent else None
        wq = transform.to_q(teacher.params) if incoherent else teacher.params
        grid = build_block_scaling(wq, bits=3, groupsize=16)
        cfg = DiscQuantConfig(iterations=STREAM_CHUNK + 9, warmup=8, batch_size=batch_size,
                              seed=9)  # a partial last chunk
        heldout = sample_sequences(teacher, 16, seed=62)
        got = optimize(teacher, grid, cfg, heldout, transform, mix)
        stream = list(kl_inputs(teacher, teacher_chunks(teacher, cfg, mix)))
        monkeypatch.setattr(discquant, "_teacher_chunks", lambda *args: iter(stream))
        ref = optimize(teacher, grid, cfg, heldout, transform, mix)
        for name in ("x", "trace_kl", "trace_linear", "trace_fractional", "quantized",
                     "model_params"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
        assert got.heldout_kl == ref.heldout_kl


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


def _report_bytes(report) -> dict:
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(report).items()}


class TestReferenceStep:
    """The loop that rewrites one student in place against ``reference_optimize``,
    which allocates a new student and every array at every step, byte for byte."""

    ARCHS = [ToyArch(), ToyArch(layers=2, hidden=64)]

    @staticmethod
    def inputs(arch, incoherent):
        teacher = random_model(arch, seed=61)
        transform = ModelIncoherence(arch, seed=62) if incoherent else None
        wq = transform.to_q(teacher.params) if incoherent else teacher.params
        blocks = [(qa, qb) for *_, qa, qb in transform.blocks] if incoherent else None
        grid = build_block_scaling(wq, bits=3, groupsize=16, blocks=blocks)
        return teacher, grid, transform, sample_sequences(teacher, 16, 8, seed=63)

    @pytest.mark.parametrize("mix", [0.0, 0.25])
    @pytest.mark.parametrize("batch_size", [1, 3, 5, 12])
    @pytest.mark.parametrize("incoherent", [False, True], ids=["plain", "incoherent"])
    @pytest.mark.parametrize("arch", ARCHS, ids=["layers1", "layers2-hidden64"])
    def test_reports_equal_reference(self, arch, incoherent, batch_size, mix):
        teacher, grid, transform, heldout = self.inputs(arch, incoherent)
        # past one STREAM_CHUNK, so the second chunk's steps are pinned too
        cfg = DiscQuantConfig(batch_size=batch_size, iterations=STREAM_CHUNK + 2, warmup=16,
                              seed=64)
        got = optimize(teacher, grid, cfg, heldout=heldout, transform=transform, data_mix=mix)
        ref = reference_optimize(teacher, grid, cfg, heldout=heldout, transform=transform,
                                 data_mix=mix)
        assert _report_bytes(got) == _report_bytes(ref)

    @pytest.mark.parametrize("over", [{"lambda_on": "linear"}, {"weight_decay": 0.01},
                                      {"init": "original-weights"}],
                             ids=["linear", "weight-decay", "original-weights"])
    @pytest.mark.parametrize("incoherent", [False, True], ids=["plain", "incoherent"])
    def test_config_variants_equal_reference(self, incoherent, over):
        teacher, grid, transform, heldout = self.inputs(ToyArch(), incoherent)
        cfg = DiscQuantConfig(batch_size=3, iterations=40, warmup=8, seed=65, **over)
        got = optimize(teacher, grid, cfg, heldout=heldout, transform=transform, data_mix=0.25)
        ref = reference_optimize(teacher, grid, cfg, heldout=heldout, transform=transform,
                                 data_mix=0.25)
        assert _report_bytes(got) == _report_bytes(ref)

    @pytest.mark.parametrize("incoherent", [False, True], ids=["plain", "incoherent"])
    def test_report_shares_no_memory_with_step_buffers(self, incoherent, monkeypatch):
        teacher, grid, transform, heldout = self.inputs(ToyArch(), incoherent)
        buffers = []

        def kl_core(student, prefixes, t_logp, t_p, cache=None):
            value, grad = _kl_core(student, prefixes, t_logp, t_p, cache)
            buffers.extend([student.params, grad, *cache["acts"],
                            *(v for v in cache.values() if isinstance(v, np.ndarray))])
            return value, grad

        class RecordingAdamW(AdamW):
            def step(self, x, grad, lr=None, out=None):
                buffers.extend([grad, self.m, self.v])
                return super().step(x, grad, lr=lr, out=out)

        monkeypatch.setattr(discquant, "_kl_core", kl_core)
        monkeypatch.setattr(discquant, "AdamW", RecordingAdamW)
        report = optimize(teacher, grid, tiny_cfg(seed=66), heldout=heldout, transform=transform)
        arrays = [v for v in vars(report).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 6 and len(buffers) > 6
        for a in arrays:
            assert not any(np.shares_memory(a, b) for b in buffers)

    @pytest.mark.parametrize("incoherent", [False, True], ids=["plain", "incoherent"])
    def test_nonfinite_step_and_traces_equal_reference(self, incoherent, monkeypatch):
        teacher, grid, transform, _ = self.inputs(ToyArch(), incoherent)
        real_chunks = discquant._teacher_chunks

        def poisoned(*args):
            for step, (prefixes, t_logp, t_p) in enumerate(real_chunks(*args), start=1):
                yield prefixes, t_logp + (np.nan if step == 5 else 0.0), t_p

        monkeypatch.setattr(discquant, "_teacher_chunks", poisoned)
        caught = []
        for run in (optimize, reference_optimize):
            with pytest.raises(NonFiniteObjective, match="at step 5$") as err:
                run(teacher, grid, tiny_cfg(seed=67), transform=transform)
            caught.append(err.value)
        got, ref = caught
        assert got.trace_linear.shape == (4,)
        assert got.trace_linear.tobytes() == ref.trace_linear.tobytes()
        assert got.trace_kl.tobytes() == ref.trace_kl.tobytes()


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
        stream = list(kl_inputs(teacher, [(b, 1) for b in _teacher_stream(teacher, cfg, 0.25)]))
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

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": -1}, "seed must be nonnegative, got -1"),
        ({"walk_samples": 0}, "walk_samples must be >= 1, got 0"),
    ], ids=["seed", "walk_samples"])
    def test_arguments_named(self, kwargs, message):
        # walk_samples=0 failed in a numpy reshape, seed=-1 in a seed sequence
        with pytest.raises(ValueError, match=message):
            quantize_model(random_model(seed=20), 3, 16, "lmwalk", **kwargs)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method must be one of"):
            quantize_model(random_model(seed=20), 3, 16, "stochastic")


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


class TestLeanQuantizePaths:
    """The walk's rows as per-sequence means built block by block, and held-out
    KL without a backward, against ``chain_quantize_model``, which averages the
    whole per-row matrix and scores through the gradient-computing ``kl_term``."""

    CASES = [(1, 8, 0.0), (7, 1, 0.25), (48, 8, 0.25), (48, 1, 0.0)]

    @staticmethod
    def kwargs(teacher, incoherent, walk_samples, seq_length, mix):
        arch = teacher.arch
        return dict(seed=72, transform=ModelIncoherence(arch, seed=73) if incoherent else None,
                    dq_cfg=DiscQuantConfig(seq_length=seq_length), walk_samples=walk_samples,
                    heldout=sample_sequences(teacher, 32, 8, seed=74), data_mix=mix)

    @pytest.mark.parametrize("walk_samples, seq_length, mix", CASES)
    @pytest.mark.parametrize("incoherent", [False, True], ids=["plain", "incoherent"])
    def test_walk_and_heldout_equal_chain(self, incoherent, walk_samples, seq_length, mix):
        teacher = random_model(ToyArch(), seed=71)
        kwargs = self.kwargs(teacher, incoherent, walk_samples, seq_length, mix)
        for method in ("rtn", "lmwalk"):
            out = quantize_model(teacher, 3, 16, method, **kwargs)
            ref = chain_quantize_model(teacher, 3, 16, method, **kwargs)
            assert out.model.params.tobytes() == ref.model.params.tobytes()
            assert (out.heldout_kl, out.fractional) == (ref.heldout_kl, ref.fractional)

    @pytest.mark.parametrize("walk_samples, seq_length, mix", CASES)
    @pytest.mark.parametrize("incoherent", [False, True], ids=["plain", "incoherent"])
    def test_two_layer_rows_and_heldout_equal_chain(self, incoherent, walk_samples, seq_length,
                                                    mix, monkeypatch):
        # the walk itself is not run here: at n = 7448 it ends in MaxPhasesExceeded
        # on either path (about 80 s on a 2-core machine); the rows it gets are compared
        teacher = random_model(ToyArch(layers=2, hidden=64), seed=71)
        kwargs = self.kwargs(teacher, incoherent, walk_samples, seq_length, mix)
        out = quantize_model(teacher, 3, 16, "rtn", **kwargs)
        ref = chain_quantize_model(teacher, 3, 16, "rtn", **kwargs)
        assert out.heldout_kl == ref.heldout_kl

        class Rows(Exception):
            pass

        def capture(cs, cfg):
            raise Rows(cs)

        monkeypatch.setattr(lmwalk, "lm_round", capture)
        rows = []
        for quantize in (quantize_model, chain_quantize_model):
            with pytest.raises(Rows) as caught:
                quantize(teacher, 3, 16, "lmwalk", **kwargs)
            rows.append([a.tobytes() for a in (caught.value.args[0].matrix,
                                                caught.value.args[0].y)])
        assert rows[0] == rows[1]


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
