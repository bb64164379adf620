"""Acceptance suite: one test per exit criterion, at pinned tolerances.

Each test prints a single PASS line when its criterion holds (visible with
``pytest -s``); pytest's own verdict line is the fail signal otherwise.  Two
criteria are implemented exactly as pinned even though measurement shows the
pinned parameters sit outside the regime where their claims hold, so they
fail honestly rather than pass by a weakened check:

* criterion 4's shallow-decay arm pins a sample grid that extends past the
  dimension, where the estimator error provably leaves the m^(1-alpha)
  regime (a companion test demonstrates the stated rate with m << n);
* criterion 9's 2-bit clause asks outlier flattening to win on a grid with
  only three levels, where the bulk rounds to zero in both arms (a companion
  test demonstrates the composition win at 3 bits).
"""

import json
import time

import numpy as np
import pytest

from discq.discquant import DiscQuantConfig, optimize
from discq.grid import build_block_scaling, explicit_grid, rtn
from discq.harness import (ComparisonParams, ExperimentConfig, emit,
                           pipeline_with_incoherence, run_comparison)
from discq.incoherence import RHT, ModelIncoherence, rht_apply
from discq.lmwalk import (ConstraintSet, WalkConfig, lm_phase, lm_round,
                          vertex_integrality_check, walk_variance_probe)
from discq.speclab import SpectrumSpec, falpha_scaling_study, generalization_study
from discq.toymodel import (first_order_study, kl_term, hessian_quadratic_form,
                            mean_ce_grad, per_sample_grad, random_model,
                            sample_sequences)

from oracles import brute_force_vertices, central_diff, naive_hadamard_apply


def passed(criterion: str, detail: str):
    print(f"ACCEPTANCE PASS {criterion}: {detail}")


def gaussian_instance(n, m, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xACC]))
    return ConstraintSet(rng.standard_normal((m, n)), rng.random(n))


def test_criterion_01_vertex_integrality_at_scale():
    """n=1024, m in {8,16,32,64}, 100 seeds each: <=16m fractional left,
    residual <= 1e-6, success rate >= 0.99, total runtime <= 10 minutes."""
    start = time.perf_counter()
    n = 1024
    rates = {}
    for m in (8, 16, 32, 64):
        ok = 0
        for seed in range(100):
            cs = gaussian_instance(n, m, seed * 97 + m)
            try:
                res = lm_round(cs, WalkConfig(seed=seed))
            except Exception:
                continue
            if res.fractional <= 16 * m and cs.residual(res.x) <= 1e-6 \
                    and res.x.min() >= 0 and res.x.max() <= 1:
                ok += 1
        rates[m] = ok / 100
        assert rates[m] >= 0.99, f"success rate {rates[m]} at m={m}"
    elapsed = time.perf_counter() - start
    assert elapsed <= 600, f"runtime {elapsed:.0f}s exceeds 10 minutes"
    passed("1", f"integrality rates {rates} in {elapsed:.0f}s")


def test_criterion_02_bruteforce_vertex_oracle():
    """n=10, m=2: every enumerated polytope vertex has >= 8 integral
    coordinates and the walk's frozen pattern matches some vertex."""
    rng = np.random.default_rng(0xBF)
    matrix = rng.standard_normal((2, 10))
    y = rng.random(10)
    vertices = brute_force_vertices(matrix, y)
    assert len(vertices) > 0
    for v in vertices:
        assert np.sum(np.isin(v, (0.0, 1.0))) >= 8
    cs = ConstraintSet(matrix, y)
    res = lm_phase(cs, y, np.zeros(10, bool), WalkConfig(seed=1))
    assert res.frozen.any()
    assert any(np.array_equal(v[res.frozen], res.x[res.frozen]) for v in vertices)
    passed("2", f"{len(vertices)} vertices, all >= 8 integral; walk pattern matched")


def test_criterion_03_walk_variance_budget():
    """200 one-phase trials: E<theta, x-y>^2 <= 4.0 for a random unit theta
    and <= 1e-10 for theta in the row space of the constraints."""
    cs = gaussian_instance(256, 4, seed=3)
    rng = np.random.default_rng(0x7E7A)
    theta = rng.standard_normal(256)
    theta /= np.linalg.norm(theta)
    val = walk_variance_probe(cs, WalkConfig(seed=0), theta, trials=200)
    assert val <= 4.0
    row_mix = 0.6 * cs.matrix[0] - 1.7 * cs.matrix[2]
    val_row = walk_variance_probe(cs, WalkConfig(seed=1), row_mix, trials=200)
    assert val_row <= 1e-10
    passed("3", f"unit-theta variance {val:.3f} <= 4.0; row-space variance {val_row:.2e}")


def test_criterion_04_estimator_rate_fast_decay():
    """alpha=2.5 at n=256, m in {32..512}: log-log slope -0.5 +/- 0.1."""
    start = time.perf_counter()
    res = falpha_scaling_study(SpectrumSpec(n=256, alpha=2.5),
                               (32, 64, 128, 256, 512), trials=20, seed=4)
    assert res.slope == pytest.approx(-0.5, abs=0.1)
    assert time.perf_counter() - start <= 300
    passed("4 (fast-decay arm)", f"slope {res.slope:.3f} within -0.5 +/- 0.1")


def test_criterion_04_estimator_rate_shallow_decay():
    """alpha=1.25 at n=256, m in {32..512}: log-log slope -0.25 +/- 0.1."""
    start = time.perf_counter()
    res = falpha_scaling_study(SpectrumSpec(n=256, alpha=1.25),
                               (32, 64, 128, 256, 512), trials=20, seed=4)
    elapsed = time.perf_counter() - start
    assert elapsed <= 300
    assert res.slope == pytest.approx(-0.25, abs=0.1), (
        f"slope {res.slope:.3f}: the m^(1-alpha) rate needs m << n, but this "
        f"grid extends to 2n where the error decays like 1/sqrt(m)")
    passed("4 (shallow-decay arm)", f"slope {res.slope:.3f} within -0.25 +/- 0.1")


def test_criterion_04_companion_shallow_decay_valid_regime():
    """The alpha=1.25 rate in its regime of validity (m << n)."""
    res = falpha_scaling_study(SpectrumSpec(n=1024, alpha=1.25),
                               (8, 16, 32, 64), trials=20, seed=4)
    assert res.slope == pytest.approx(-0.25, abs=0.1)
    passed("4 (companion, m << n)", f"slope {res.slope:.3f} within -0.25 +/- 0.1")


def test_criterion_05_generalization_scaling():
    """alpha=2, n=1024, m in {8..64}: median rounding error strictly
    decreasing in m, fitted slope <= -0.3, runtime <= 15 minutes."""
    start = time.perf_counter()
    res = generalization_study(SpectrumSpec(n=1024, alpha=2.0), (8, 16, 32, 64),
                               trials=20, walk_cfg=WalkConfig(delta=0.04), seed=5)
    elapsed = time.perf_counter() - start
    assert np.all(np.diff(res.medians) < 0), f"medians {res.medians}"
    assert res.slope <= -0.3, f"slope {res.slope}"
    assert elapsed <= 900, f"runtime {elapsed:.0f}s exceeds 15 minutes"
    passed("5", f"medians {np.round(res.medians, 5)} strictly decreasing, "
                f"slope {res.slope:.2f} <= -0.3, {elapsed:.0f}s")


def test_criterion_06_kl_identities():
    """8 seeded teachers: KL gradient at the teacher is 0 to 1e-6 (finite-
    difference verified) and 2 KL / eps^2 matches the quadratic form within
    5% at eps=1e-3 for 16 random directions each."""
    eps = 1e-3
    for seed in range(8):
        teacher = random_model(seed=seed)
        batch = sample_sequences(teacher, 8, seed=seed + 60)
        value, grad = kl_term(teacher, teacher, batch)
        assert value <= 1e-12
        assert np.max(np.abs(grad)) <= 1e-6
        rng = np.random.default_rng(seed)
        probes = rng.choice(teacher.arch.n_params, size=8, replace=False)
        fd = central_diff(
            lambda p: kl_term(teacher, teacher.with_params(p), batch)[0],
            teacher.params, probes)
        assert np.max(np.abs(fd)) <= 1e-6
        for k in range(16):
            d = rng.standard_normal(teacher.arch.n_params)
            d /= np.linalg.norm(d)
            kl, _ = kl_term(teacher, teacher.with_params(teacher.params + eps * d),
                            batch)
            quad = hessian_quadratic_form(teacher, batch, d)
            assert 2 * kl / eps ** 2 == pytest.approx(quad, rel=0.05)
    passed("6", "gradient-at-teacher 0 to 1e-6 (FD verified); curvature matches "
                "2 KL / eps^2 within 5% on 8 teachers x 16 directions")


def test_criterion_07_first_order_dominance():
    """Median over 8 seeds: actual vs predicted loss change correlates
    >= 0.9 at the finest grid with regression slope 1 +/- 0.1, and the
    correlation does not drop as the spacing halves."""
    spacings = (0.2, 0.1, 0.05)
    corr = {d: [] for d in spacings}
    slope = {d: [] for d in spacings}
    for seed in range(8):
        model = random_model(seed=seed)
        batch = sample_sequences(model, 24, seed=seed + 500)
        w = model.params
        for d in spacings:
            lo = int(np.floor(w.min() / d)) - 1
            hi = int(np.ceil(w.max() / d)) + 1
            grid = explicit_grid(np.arange(lo, hi + 1) * d, n=len(w))
            pairs = first_order_study(model, grid, rtn(w, grid), batch)
            corr[d].append(np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1])
            slope[d].append(np.polyfit(pairs[:, 1], pairs[:, 0], 1)[0])
    med_corr = {d: float(np.median(corr[d])) for d in spacings}
    med_slope = float(np.median(slope[0.05]))
    assert med_corr[0.05] >= 0.9
    assert 0.9 <= med_slope <= 1.1
    assert med_corr[0.05] >= med_corr[0.1] >= med_corr[0.2]
    passed("7", f"correlations {med_corr}, finest slope {med_slope:.3f}")


def test_criterion_08_method_comparison():
    """bits in {2,3} at groupsize 16 over 8 seeds: data-dependent rounding
    median held-out KL strictly below nearest rounding; the huge-lambda
    linear-term limit reproduces nearest rounding bit-exactly."""
    medians = {}
    for bits in (2, 3):
        kl_r, kl_d = [], []
        for seed in range(8):
            teacher = random_model(seed=seed)
            heldout = sample_sequences(teacher, 256, seed=seed + 1000)
            blocks = [(a, b) for a, b, _ in teacher.arch.layout().values()]
            grid = build_block_scaling(teacher.params, bits=bits, groupsize=16,
                                       blocks=blocks)
            base = teacher.with_params(rtn(teacher.params, grid))
            kl_r.append(kl_term(teacher, base, heldout)[0])
            rep = optimize(teacher, grid, DiscQuantConfig(seed=seed), heldout=heldout)
            kl_d.append(rep.heldout_kl)
        medians[bits] = (float(np.median(kl_r)), float(np.median(kl_d)))
        assert medians[bits][1] < medians[bits][0], f"bits={bits}: {medians[bits]}"
    teacher = random_model(seed=0)
    grid = build_block_scaling(teacher.params, bits=2, groupsize=16)
    rep = optimize(teacher, grid,
                   DiscQuantConfig(lam=2e8, lambda_on="linear", seed=0))
    assert np.array_equal(rep.quantized, rtn(teacher.params, grid))
    passed("8", f"median KL (rtn, discquant): {medians}; huge-lambda limit "
                f"reproduces nearest rounding exactly")


def test_criterion_09_incoherence_two_bit_clause():
    """bits=2 over 8 teacher seeds: transformed nearest rounding strictly
    below plain nearest rounding on median held-out KL."""
    kl_plain, kl_rot = [], []
    for seed in range(8):
        teacher = random_model(seed=30 + seed)
        out = pipeline_with_incoherence(teacher, bits=2, groupsize=None,
                                        method="rtn", seeds=[seed],
                                        incoh_seed=seed, heldout_count=256)
        kl_plain.append(out["rows"][0]["kl_plain"])
        kl_rot.append(out["rows"][0]["kl_incoherent"])
    med_p, med_r = float(np.median(kl_plain)), float(np.median(kl_rot))
    assert med_r < med_p, (
        f"incoherent {med_r:.4f} vs plain {med_p:.4f}: a 3-level max-scaled "
        f"grid zeroes the bulk in both arms and outlier preservation wins")
    passed("9 (2-bit clause)", f"median KL incoherent {med_r:.4f} < plain {med_p:.4f}")


def test_criterion_09_transform_exactness():
    """Round trips exact to 1e-9; fast transform equals the dense Hadamard
    product to 1e-10 on dims up to 512."""
    rng = np.random.default_rng(0x9A)
    for dim in (2, 8, 64, 256, 512):
        t = RHT.from_seed(dim, seed=dim + 1)
        v = rng.standard_normal(dim)
        np.testing.assert_allclose(rht_apply(t, v), naive_hadamard_apply(t.signs, v),
                                   atol=1e-10)
    teacher = random_model(seed=77)
    tr = ModelIncoherence(teacher.arch, seed=7)
    back = tr.from_q(tr.to_q(teacher.params))
    assert np.max(np.abs(back - teacher.params)) <= 1e-9
    passed("9 (exactness clauses)", "fast == dense to 1e-10 on dims <= 512; "
                                    "model round trip exact to 1e-9")


def test_criterion_09_companion_three_bit_composition():
    """The composition win in its regime: at 3 bits the transformed arm
    beats the plain arm on median held-out KL over 8 teacher seeds."""
    kl_plain, kl_rot = [], []
    for seed in range(8):
        teacher = random_model(seed=30 + seed)
        out = pipeline_with_incoherence(teacher, bits=3, groupsize=None,
                                        method="rtn", seeds=[seed],
                                        incoh_seed=seed, heldout_count=256)
        kl_plain.append(out["rows"][0]["kl_plain"])
        kl_rot.append(out["rows"][0]["kl_incoherent"])
    med_p, med_r = float(np.median(kl_plain)), float(np.median(kl_rot))
    assert med_r < med_p
    passed("9 (companion, 3 bits)", f"median KL incoherent {med_r:.4f} < plain {med_p:.4f}")


def test_criterion_10_determinism():
    """Re-running an experiment with an identical config yields byte-identical
    report rows."""
    cfg = ExperimentConfig(
        experiment="comparison", seed=11, trials=2,
        params=ComparisonParams(
            bits_levels=(3,), methods=("rtn", "discquant"), heldout=32,
            discquant=DiscQuantConfig(iterations=40, warmup=8, batch_size=2),
            walk=WalkConfig(delta=0.05)))
    rows_a = json.dumps(run_comparison(cfg).rows).encode()
    rows_b = json.dumps(run_comparison(cfg).rows).encode()
    assert rows_a == rows_b
    passed("10", f"{len(rows_a)} bytes of report rows reproduced exactly")


def rel_err(grad, fd):
    scale = np.maximum(np.abs(fd), 1e-3)
    return float(np.max(np.abs(grad - fd) / scale))


def test_criterion_11_gradient_gate():
    """Every exposed gradient matches central finite differences to max
    relative error 1e-4 on random probe coordinates."""
    from discq.toymodel import ce_loss_rows, forward_next_token

    worst = 0.0
    for seed in range(4):
        model = random_model(seed=seed + 80)
        rng = np.random.default_rng(seed)
        probes = rng.choice(model.arch.n_params, size=32, replace=False)
        prefix = rng.integers(0, model.arch.vocab, size=3)
        target = int(rng.integers(0, model.arch.vocab))
        batch = sample_sequences(model, 3, seed=seed)
        student = random_model(seed=seed + 90)

        grad = per_sample_grad(model, (prefix, target))
        fd = central_diff(
            lambda p: -np.log(forward_next_token(model.with_params(p), prefix)[target]),
            model.params, probes)
        worst = max(worst, rel_err(grad[probes], fd))

        _, mgrad = mean_ce_grad(model, batch)
        fd = central_diff(
            lambda p: float(np.mean(ce_loss_rows(model.with_params(p), batch))),
            model.params, probes)
        worst = max(worst, rel_err(mgrad[probes], fd))

        _, kgrad = kl_term(model, student, batch)
        fd = central_diff(
            lambda p: kl_term(model, student.with_params(p), batch)[0],
            student.params, probes)
        worst = max(worst, rel_err(kgrad[probes], fd))
    assert worst <= 1e-4
    passed("11", f"worst gradient relative error {worst:.2e} <= 1e-4")


def test_criterion_12_reasonableness_probe():
    """Gaussian family fourth-to-second moment ratio in [2.5, 3.5] over 100
    random directions at 1e5 samples."""
    spec = SpectrumSpec(n=32, alpha=2.0)
    from discq.speclab import sample_gradients
    grads = sample_gradients(spec, 100_000, seed=12)
    rng = np.random.default_rng(0x12)
    ratios = []
    for _ in range(100):
        theta = rng.standard_normal(32)
        proj = grads @ theta
        ratios.append(float(np.mean(proj ** 4) / np.mean(proj ** 2) ** 2))
    assert min(ratios) >= 2.5 and max(ratios) <= 3.5
    passed("12", f"moment ratios in [{min(ratios):.3f}, {max(ratios):.3f}]")
