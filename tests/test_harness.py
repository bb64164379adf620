"""Experiment configs, runners, deterministic emission, and the CLI."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from discq.cli import main as cli_main
from discq.discquant import DiscQuantConfig
from discq.harness import (ComparisonParams, ExperimentConfig, FirstOrderParams,
                           Report, ScalingParams, child_seed, emit,
                           run_comparison, run_experiment, run_first_order,
                           run_scaling)
from discq.harness import _config_echo, _first_order_trial
from discq.lmwalk import WalkConfig
from discq.serialize import _json_value, load_record
from discq.speclab import SpectrumSpec
from discq.toymodel import ToyArch

from oracles import chain_first_order_trial


def tiny_comparison(trials=2, **over):
    params = dict(bits_levels=(3,), methods=("rtn", "discquant"), heldout=32,
                  discquant=DiscQuantConfig(iterations=40, warmup=8, batch_size=2),
                  walk=WalkConfig(delta=0.05))
    params.update(over)
    return ExperimentConfig(experiment="comparison", seed=7, trials=trials,
                            params=ComparisonParams(**params))


class TestConfig:
    def test_validation_happens_up_front(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="comparison", trials=0)
        with pytest.raises(ValueError):
            ComparisonParams(bits_levels=(1,))
        with pytest.raises(ValueError):
            ComparisonParams(methods=("gptq",))
        with pytest.raises(ValueError):
            FirstOrderParams(deltas=(0.01, 0.02))  # must go coarse -> fine
        with pytest.raises(ValueError):
            ComparisonParams(data_mix=1.5)
        with pytest.raises(ValueError):
            FirstOrderParams(methods=("lmwalk",))
        with pytest.raises(ValueError):
            ScalingParams(gen_m_grid=(8, 16, 32, 128))  # not geometric
        with pytest.raises(ValueError):
            ScalingParams(estimator_alphas=(0.5,))

    @pytest.mark.parametrize("deltas", ["[NaN]", "[Infinity, 0.1]"])
    def test_nonfinite_spacings_rejected_at_load(self, deltas):
        # Python's json reads NaN and Infinity; both got past d <= 0 and failed mid-run
        raw = json.loads(f'{{"experiment": "first_order", "params": {{"deltas": {deltas}}}}}')
        with pytest.raises(ValueError, match="grid spacings must be positive"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("experiment, params, key", [
        ("comparison", {"methods": ["rtn", "rtn"]}, "params.methods"),
        ("comparison", {"methods": []}, "params.methods"),
        ("comparison", {"bits_levels": [3, 3]}, "params.bits_levels"),
        ("first_order", {"methods": ["rtn", "rtn"]}, "params.methods"),
        ("first_order", {"methods": [], "include_zero_arm": False}, "params.methods"),
        ("scaling", {"estimator_alphas": [2.5, 2.5]}, "params.estimator_alphas"),
        ("scaling", {"estimator_alphas": [2, 2.0]}, "params.estimator_alphas"),
    ])
    def test_empty_or_repeated_arms_rejected_at_load(self, experiment, params, key):
        # a repeated arm ran twice under one report key; an empty list gave an empty report
        with pytest.raises(ValueError, match=f"'{key}' must list distinct arms"):
            ExperimentConfig.from_dict({"experiment": experiment, "params": params})

    def test_zero_arm_alone_is_an_arm_list(self):
        assert FirstOrderParams(methods=(), include_zero_arm=True).arms == ("identity",)

    @pytest.mark.parametrize("groupsize", [0, -3, 2.5, "16", "per-row", True])
    def test_bad_groupsize_rejected_up_front(self, groupsize):
        with pytest.raises(ValueError, match="groupsize"):
            ComparisonParams(groupsize=groupsize)

    def test_per_tensor_groupsize_normalised(self):
        assert ComparisonParams(groupsize="per-tensor").groupsize is None
        assert ComparisonParams(groupsize=None).groupsize is None
        assert ComparisonParams(groupsize=1).groupsize == 1
        cfg = ExperimentConfig(experiment="comparison",
                               params=ComparisonParams(groupsize="per-tensor"))
        assert _config_echo(cfg)["params"]["groupsize"] is None

    @pytest.mark.parametrize("params, field", [
        (lambda: ComparisonParams(seq_length=0), "seq_length"),
        (lambda: ComparisonParams(walk_samples=0), "walk_samples"),
        (lambda: FirstOrderParams(seq_length=0), "seq_length"),
    ], ids=["comparison.seq_length", "comparison.walk_samples", "first_order.seq_length"])
    def test_empty_sizes_rejected_up_front(self, params, field):
        with pytest.raises(ValueError, match=field):
            params()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="trails"):
            ExperimentConfig.from_dict({"experiment": "comparison", "trails": 3})

    @pytest.mark.parametrize("cfg", [
        tiny_comparison(incoherence=True, data_mix=0.25, groupsize="per-tensor",
                        arch=ToyArch(layers=2)),
        ExperimentConfig(experiment="first_order", seed=2,
                         params=FirstOrderParams(deltas=(0.1, 0.05),
                                                 methods=("rtn", "discquant"))),
        ExperimentConfig(experiment="scaling", seed=3, outdir="out",
                         params=ScalingParams(estimator_alphas=(1.5,),
                                              walk=WalkConfig(delta=0.05, eps=0.01))),
    ], ids=["comparison", "first_order", "scaling"])
    def test_config_echo_loads_back(self, cfg):
        echo = json.loads(json.dumps(_config_echo(cfg)))
        assert ExperimentConfig.from_dict(echo) == cfg

    def test_from_dict_roundtrip(self):
        raw = {
            "experiment": "comparison", "seed": 3, "trials": 2,
            "params": {"bits_levels": [2, 3], "groupsize": 16,
                       "methods": ["rtn"], "heldout": 16,
                       "arch": {"vocab": 8, "context": 3, "hidden": 8,
                                "layers": 1, "emb": 4},
                       "discquant": {"iterations": 16, "warmup": 4},
                       "walk": {"delta": 0.05}},
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.params.bits_levels == (2, 3)
        assert cfg.params.arch == ToyArch(vocab=8, context=3, hidden=8, layers=1, emb=4)
        assert cfg.params.discquant.iterations == 16

    def test_per_tensor_groupsize_string(self):
        cfg = ExperimentConfig.from_dict({
            "experiment": "comparison",
            "params": {"groupsize": "per-tensor", "methods": ["rtn"]}})
        assert cfg.params.groupsize is None

    def test_child_seed_stability(self):
        assert child_seed(1, 2) == child_seed(1, 2)
        assert child_seed(1, 2) != child_seed(1, 3)
        assert child_seed(1, 2) != child_seed(2, 2)


class TestComparison:
    def test_rows_and_summary(self):
        report = run_comparison(tiny_comparison())
        assert len(report.rows) == 2 * 1 * 2  # trials x bits x methods
        assert all(r["error"] is None for r in report.rows)
        assert report.summary["median_kl_bits3_rtn"] > 0
        seeds = [r["seed"] for r in report.rows]
        assert seeds == sorted(seeds)

    def test_rerun_rows_byte_identical(self, tmp_path):
        cfg = tiny_comparison()
        a, b = run_comparison(cfg), run_comparison(cfg)
        assert a.rows == b.rows
        emit(a, "json", tmp_path / "a.json")
        emit(b, "json", tmp_path / "b.json")
        ra = load_record(tmp_path / "a.json")
        rb = load_record(tmp_path / "b.json")
        assert ra["rows"] == rb["rows"]

    def test_adding_trials_preserves_existing(self):
        small = run_comparison(tiny_comparison(trials=2))
        large = run_comparison(tiny_comparison(trials=3))
        assert small.rows == [r for r in large.rows if r["trial"] < 2]

    def test_kl_monotone_in_bits(self):
        cfg = tiny_comparison(trials=3, bits_levels=(2, 3, 4))
        report = run_comparison(cfg)
        for method in ("rtn", "discquant"):
            meds = [report.summary[f"median_kl_bits{b}_{method}"] for b in (2, 3, 4)]
            assert meds[0] >= meds[1] >= meds[2]

    def test_worker_pool_rows_identical(self, monkeypatch):
        cfg = tiny_comparison(trials=3, methods=("rtn",))
        sequential = run_comparison(cfg).rows
        monkeypatch.setenv("DQ_WORKERS", "2")
        parallel = run_comparison(cfg).rows
        assert sequential == parallel

    def test_workers_not_an_int_named_in_python_runs(self, monkeypatch):
        # run_experiment raised "invalid literal for int() with base 10: 'abc'"
        monkeypatch.setenv("DQ_WORKERS", "abc")
        with pytest.raises(ValueError, match="DQ_WORKERS must be an int, got 'abc'"):
            run_experiment(tiny_comparison(methods=("rtn",)))

    def test_import_leaves_process_pool_out(self):
        import discq

        src = str(Path(discq.__file__).resolve().parents[1])
        code = "import sys, discq; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "False"

    @staticmethod
    def walk_rows(**over):
        rows = run_comparison(tiny_comparison(trials=1, methods=("lmwalk",), walk_samples=16,
                                              arch=ToyArch(hidden=8, emb=4), **over)).rows
        assert all(r["error"] is None for r in rows)
        return rows

    def test_walk_rows_follow_data_mix(self):
        assert self.walk_rows(data_mix=0.25) != self.walk_rows(data_mix=0.0)

    def test_walk_rows_follow_calibration_length(self):
        short = DiscQuantConfig(iterations=40, warmup=8, batch_size=2, seq_length=6)
        assert self.walk_rows(discquant=short) != self.walk_rows()

    def test_arm_failure_recorded_not_fatal(self):
        # walk arm needs m <= n/16; a huge sample count trips the precondition
        cfg = tiny_comparison(methods=("rtn", "lmwalk"), walk_samples=2000)
        report = run_comparison(cfg)
        errors = [r["error"] for r in report.rows if r["method"] == "lmwalk"]
        assert all(e is not None for e in errors)
        assert all(r["error"] is None for r in report.rows if r["method"] == "rtn")
        assert report.failed_rows


class TestFirstOrder:
    def test_rows_count_and_zero_arm(self):
        cfg = ExperimentConfig(
            experiment="first_order", seed=1, trials=2,
            params=FirstOrderParams(deltas=(0.1, 0.05), sequences=4,
                                    include_zero_arm=True))
        report = run_first_order(cfg)
        rows_per_group = 4 * 8  # sequences x positions
        assert len(report.rows) == 2 * 2 * 2 * rows_per_group
        zero_rows = [r for r in report.rows if r["method"] == "identity"]
        assert all(r["loss_change"] == 0 and r["first_order"] == 0 for r in zero_rows)
        assert report.summary["median_corr_spacing0.1_identity"] is None

    def test_rows_equal_rounder_chain(self):
        # both rounders and the zero arm, dispatched through pipeline.ROUNDERS
        cfg = ExperimentConfig(
            experiment="first_order", seed=5, trials=1,
            params=FirstOrderParams(deltas=(0.1, 0.05), sequences=3, methods=("rtn", "discquant"),
                                    include_zero_arm=True, arch=ToyArch(hidden=8, emb=4)))
        rows = _first_order_trial((cfg, 0))
        assert {r["method"] for r in rows} == {"rtn", "discquant", "identity"}
        assert json.dumps(rows) == json.dumps(chain_first_order_trial(cfg, 0))

    def test_discquant_arm(self):
        cfg = ExperimentConfig(
            experiment="first_order", seed=2, trials=1,
            params=FirstOrderParams(deltas=(0.1,), sequences=4, methods=("rtn", "discquant")))
        report = run_first_order(cfg)
        dq_rows = [r for r in report.rows if r["method"] == "discquant"]
        assert len(dq_rows) == len(report.rows) // 2 == 4 * 8
        assert all(np.isfinite([r["loss_change"], r["first_order"]]).all() for r in dq_rows)
        assert report.summary["median_corr_spacing0.1_discquant"] > 0.9

    def test_correlation_tightens_with_spacing(self):
        cfg = ExperimentConfig(
            experiment="first_order", seed=2, trials=4,
            params=FirstOrderParams(deltas=(0.2, 0.05), sequences=8))
        report = run_first_order(cfg)
        c_coarse = report.summary["median_corr_spacing0.2_rtn"]
        c_fine = report.summary["median_corr_spacing0.05_rtn"]
        assert c_fine >= c_coarse - 0.02


class TestScaling:
    def test_estimator_only_run(self):
        cfg = ExperimentConfig(
            experiment="scaling", seed=3, trials=1,
            params=ScalingParams(estimator_alphas=(2.5,), estimator_n=64,
                                 estimator_m_grid=(8, 16, 32, 64),
                                 estimator_trials=20, run_generalization=False))
        report = run_scaling(cfg)
        assert "estimator_slope_alpha2.5" in report.summary
        assert len(report.rows) == 4

    def test_generalization_only_run(self):
        cfg = ExperimentConfig(
            experiment="scaling", seed=4, trials=1,
            params=ScalingParams(run_estimator=False, gen_n=256,
                                 gen_m_grid=(2, 4, 8, 16), gen_trials=4,
                                 walk=WalkConfig(delta=0.05)))
        report = run_scaling(cfg)
        assert report.summary["generalization_slope"] < 0


    def test_row_layout(self):
        cfg = ExperimentConfig(
            experiment="scaling", seed=5, trials=1,
            params=ScalingParams(estimator_alphas=(2.5,), estimator_n=64,
                                 estimator_m_grid=(8, 16, 32, 64), estimator_trials=20,
                                 gen_n=128, gen_m_grid=(1, 2, 4, 8), gen_trials=1))
        report = run_scaling(cfg)
        assert [r["study"] for r in report.rows] == ["estimator"] * 4 + ["generalization"] * 4
        for row in report.rows:
            assert list(row) == ["seed", "study", "alpha", "m", "mean_error", "median_error"]


class TestEmit:
    def make_report(self):
        rows = [{"seed": 1, "value": 0.1, "note": None},
                {"seed": 2, "value": 2.5e-8, "note": "x"}]
        return Report(experiment="comparison", config={"trials": 2}, rows=rows,
                      summary={"median": 0.1}, wall_clock=1.25)

    def test_json_parse_emit_idempotent(self, tmp_path):
        report = self.make_report()
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        emit(report, "json", p1)
        emit(load_record(p1), "json", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_row_count(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "r.csv"
        emit(report, "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + 1
        assert lines[0] == "seed,value,note"
        assert lines[1] == "1,0.1,"

    def test_schema_version_present(self, tmp_path):
        report = self.make_report()
        emit(report, "json", tmp_path / "r.json")
        rec = load_record(tmp_path / "r.json")
        assert rec["schema_version"] == 1
        emit(report, "csv", tmp_path / "r.csv")  # csv keeps rows only

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            emit(self.make_report(), "json", tmp_path / "missing" / "r.json")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit(self.make_report(), "yaml", tmp_path / "r.yaml")


class TestCli:
    def test_walk_command(self, tmp_path):
        out = tmp_path / "walk.json"
        rc = cli_main(["walk", "--n", "128", "--m", "4", "--seed", "3",
                       "--delta", "0.05", "--out", str(out)])
        assert rc == 0
        rec = load_record(out)
        assert rec["fractional"] <= 64
        assert len(rec["x"]) == 128
        assert isinstance(rec["x"][0], str)  # hex floats

    def test_speclab_falpha_command(self, tmp_path):
        out = tmp_path / "falpha.csv"
        rc = cli_main(["speclab", "falpha", "--alpha", "2.5", "--n", "64",
                       "--m-grid", "8,16,32,64", "--trials", "20", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 5

    @pytest.mark.parametrize("study, flags, header", [
        ("falpha", ["--alpha", "2.5", "--n", "64", "--m-grid", "8,16,32,64", "--trials", "20"],
         "seed,alpha,m,mean_error,median_error"),
        ("gen", ["--alpha", "2.0", "--n", "128", "--m-grid", "1,2,4,8", "--trials", "1"],
         "seed,alpha,m,mean_quad,median_quad"),
    ], ids=["falpha", "gen"])
    def test_speclab_csv_header(self, tmp_path, study, flags, header):
        out = tmp_path / f"{study}.csv"
        assert cli_main(["speclab", study, *flags, "--seed", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == header
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["2", flags[1], m] for m in flags[5].split(",")]

    def test_teacher_then_quantize_and_jl(self, tmp_path):
        ckpt = tmp_path / "teacher.json"
        assert cli_main(["teacher", "--seed", "5", "--out", str(ckpt)]) == 0
        rep = tmp_path / "report.json"
        rc = cli_main(["quantize", "--bits", "3", "--groupsize", "16",
                       "--method", "rtn", "--seed", "1", "--teacher", str(ckpt),
                       "--heldout", "16", "--out", str(rep)])
        assert rc == 0
        rec = load_record(rep)
        assert rec["bits_per_param"] == 4.0  # 3 bits + 16/16 scale bits
        assert rec["heldout_kl"] >= 0
        jl = tmp_path / "jl.csv"
        rc = cli_main(["speclab", "jl", "--ckpt", str(ckpt), "--d", "16",
                       "--samples", "16", "--out", str(jl)])
        assert rc == 0

    def test_quantize_with_incoherence(self, tmp_path):
        rep = tmp_path / "inc.json"
        rc = cli_main(["quantize", "--bits", "3", "--method", "rtn", "--seed", "2",
                       "--incoherence", "on", "--incoh-seed", "9", "--heldout", "16",
                       "--out", str(rep)])
        assert rc == 0
        assert load_record(rep)["incoherence"] == "on"

    def test_quantize_rejects_nan_lr_before_any_work(self, tmp_path, capsys):
        rep = tmp_path / "nan.json"
        with pytest.raises(SystemExit) as caught:
            cli_main(["quantize", "--bits", "3", "--lr", "nan", "--out", str(rep)])
        assert caught.value.code == 2
        assert "argument --lr: lr must be finite" in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("argv, message", [
        (["speclab", "falpha", "--alpha", "1"], "argument --alpha: alpha must be finite and > 1"),
        (["speclab", "gen", "--alpha", "2", "--delta", "0"],
         "argument --delta: delta must be finite and positive"),
        (["quantize", "--bits", "1"], "argument --bits: must be >= 2, got 1"),
        (["quantize", "--bits", "3", "--groupsize", "0"],
         "argument --groupsize: groupsize must be an int >= 1"),
        (["quantize", "--bits", "3", "--iters", "10"],
         "arguments --iters, --warmup: need warmup <= iterations"),
        (["walk", "--n", "64", "--m", "2", "--delta", "5"],
         "argument --delta: delta must be finite and positive"),
        (["walk", "--n", "64", "--m", "2", "--eps", "0.5"],
         "arguments --delta, --eps: need eps <= delta"),
        (["walk", "--n", "64", "--m", "8"], "arguments --n, --m: m = 8 exceeds n/16 = 4.0"),
        (["teacher", "--layers", "3"], "argument --layers: layers must be one of (1, 2)"),
    ], ids=["falpha-alpha", "gen-delta", "quantize-bits", "quantize-groupsize",
            "quantize-iters", "walk-delta", "walk-eps", "walk-m", "teacher-layers"])
    def test_config_flags_checked_before_any_work(self, argv, message, tmp_path, capsys):
        # each ended in a traceback naming the config field, exiting 1
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as caught:
            cli_main(argv + ["--out", str(out)])
        assert caught.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["walk", "--n", "64", "--m", "2", "--seed", "-1"],
        ["teacher", "--seed", "-1"],
        ["quantize", "--bits", "3", "--seed", "-1"],
        ["quantize", "--bits", "3", "--incoh-seed", "-1"],
        ["speclab", "falpha", "--alpha", "2.5", "--seed", "-1"],
        ["speclab", "gen", "--alpha", "2.0", "--seed", "-1"],
        ["speclab", "jl", "--ckpt", "teacher.json", "--seed", "-1"],
    ], ids=["walk", "teacher", "quantize", "quantize-incoh", "falpha", "gen", "jl"])
    def test_negative_seed_rejected_before_any_work(self, argv, tmp_path, capsys):
        # numpy raised "expected non-negative integer", naming no flag
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as caught:
            cli_main(argv + ["--out", str(out)])
        assert caught.value.code == 2
        assert f"argument {argv[-2]}: must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["walk", "--n", "0", "--m", "1"], "--n"),
        (["walk", "--n", "64", "--m", "0"], "--m"),
        (["quantize", "--bits", "3", "--heldout", "0"], "--heldout"),
        (["speclab", "jl", "--ckpt", "teacher.json", "--samples", "0"], "--samples"),
        (["speclab", "jl", "--ckpt", "teacher.json", "--d", "0"], "--d"),
        (["speclab", "falpha", "--alpha", "2.5", "--n", "0"], "--n"),
        (["speclab", "falpha", "--alpha", "2.5", "--trials", "0"], "--trials"),
        (["speclab", "gen", "--alpha", "2.0", "--n", "0"], "--n"),
        (["speclab", "gen", "--alpha", "2.0", "--trials", "0"], "--trials"),
    ], ids=["walk-n", "walk-m", "quantize-heldout", "jl-samples", "jl-d", "falpha-n",
            "falpha-trials", "gen-n", "gen-trials"])
    def test_zero_count_rejected_before_any_work(self, argv, flag, tmp_path, capsys):
        # --heldout 0 and --samples 0 died in a numpy reshape, walk --n 0 blamed
        # "at least one constraint row": none named the flag
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as caught:
            cli_main(argv + ["--out", str(out)])
        assert caught.value.code == 2
        assert f"argument {flag}: must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("study", ["falpha", "gen"])
    @pytest.mark.parametrize("grid, message", [
        ("4,8,16", "m grid needs at least 4 points"),
        ("4,8,8,16", "m grid must be strictly increasing"),
        ("4,8,16,64", "m grid must be (approximately) geometrically spaced"),
        ("4,8,x,16", "invalid literal for int()"),
    ], ids=["short", "repeat", "uneven", "not-int"])
    def test_bad_m_grid_rejected_before_any_work(self, study, grid, message, tmp_path, capsys):
        # a bad grid was a traceback from inside the study
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as caught:
            cli_main(["speclab", study, "--alpha", "2.0", "--n", "512", "--m-grid", grid,
                      "--trials", "1", "--out", str(out)])
        assert caught.value.code == 2
        assert f"argument --m-grid: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["falpha", "--alpha", "2", "--trials", "5"],
         "arguments --m-grid, --trials: need at least 20 trials per grid point"),
        (["gen", "--alpha", "2", "--n", "100"],
         "arguments --n, --m-grid, --trials: largest m exceeds n/16"),
    ], ids=["falpha-trials", "gen-n"])
    def test_study_rules_checked_before_any_work(self, argv, message, tmp_path, capsys):
        # each was a traceback from inside the study, exiting 1, naming no flag
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as caught:
            cli_main(["speclab", *argv, "--out", str(out)])
        assert caught.value.code == 2
        assert f"dq speclab {argv[0]}: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_m_grid_keeps_zero_entries(self, tmp_path, monkeypatch):
        import discq.cli as cli

        def study(spec, m_grid, *args, **kwargs):
            raise _Stop(m_grid)

        monkeypatch.setattr(cli, "generalization_study", study)
        with pytest.raises(_Stop) as caught:
            cli_main(["speclab", "gen", "--alpha", "2.0", "--m-grid", "0,2,4,8,16",
                      "--out", str(tmp_path / "out.csv")])
        assert caught.value.args == ([0, 2, 4, 8, 16],)

    def test_run_command_exit_codes(self, tmp_path):
        cfg = {"experiment": "comparison", "seed": 1, "trials": 1,
               "params": {"bits_levels": [3], "methods": ["rtn"], "heldout": 8,
                          "walk": {"delta": 0.05}}}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli_main(["run", str(cfg_path), "--out", str(tmp_path),
                       "--format", "json,csv"])
        assert rc == 0
        assert (tmp_path / "comparison.json").exists()
        assert (tmp_path / "comparison.csv").exists()
        bad = {"experiment": "comparison", "seed": 1, "trials": 1,
               "params": {"bits_levels": [3], "methods": ["lmwalk"], "heldout": 8,
                          "walk_samples": 2000}}
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        rc = cli_main(["run", str(bad_path), "--out", str(tmp_path)])
        assert rc == 1


class TestConfigErrors:
    def test_missing_experiment_is_a_value_error(self):
        with pytest.raises(ValueError, match="'experiment'"):
            ExperimentConfig.from_dict({"seed": 1, "params": {}})

    @pytest.mark.parametrize("params", [None, [], ["rtn"], "rtn", 3])
    def test_params_not_an_object_is_a_value_error(self, params):
        with pytest.raises(ValueError, match="'params'"):
            ExperimentConfig.from_dict({"experiment": "comparison", "params": params})

    @pytest.mark.parametrize("params, key", [
        ({"arch": None}, "'params.arch'"),
        ({"discquant": {"lamda": 3}}, "'params.discquant.lamda'"),
        ({"bogus": 1}, "'params.bogus'"),
        ({"walk": [0.1]}, "'params.walk'"),
        ({"methods": 3}, "'params.methods'"),
    ])
    def test_malformed_params_key_is_a_value_error(self, params, key):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict({"experiment": "comparison", "params": params})

    @pytest.mark.parametrize("raw, key", [
        ({"seed": 1.5}, "'seed'"),
        ({"seed": True}, "'seed'"),
        ({"trials": True}, "'trials'"),
        ({"trials": "8"}, "'trials'"),
        ({"trials": 2.0}, "'trials'"),
        ({"params": {"bits_levels": [2.5]}}, r"'params\.bits_levels\[0\]'"),
        ({"params": {"bits_levels": [3, True]}}, r"'params\.bits_levels\[1\]'"),
        ({"params": {"bits_levels": ["3"]}}, r"'params\.bits_levels\[0\]'"),
        ({"outdir": 5}, "'outdir'"),
    ])
    def test_non_int_value_is_a_value_error(self, raw, key):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict({"experiment": "comparison", **raw})

    @pytest.mark.parametrize("params, key", [
        ({"heldout": 8.5}, "'params.heldout'"),
        ({"arch": {"hidden": 8.0}}, "'params.arch.hidden'"),
        ({"walk_samples": True}, "'params.walk_samples'"),
        ({"incoh_seed": 1.5}, "'params.incoh_seed'"),
        ({"incoherence": 1}, "'params.incoherence'"),
        ({"discquant": {"iterations": 16.0}}, "'params.discquant.iterations'"),
        ({"walk": {"max_phases": 3.0}}, "'params.walk.max_phases'"),
        ({"walk": {"steps_per_phase": 2.5}}, "'params.walk.steps_per_phase'"),
        ({"walk": {"eps": True}}, "'params.walk.eps'"),
        ({"data_mix": "0.25"}, "'params.data_mix'"),
        ({"discquant": {"lambda_on": 1}}, "'params.discquant.lambda_on'"),
        ({"methods": ["rtn", 3]}, r"'params\.methods\[1\]'"),
    ])
    def test_value_of_wrong_type_is_a_value_error(self, params, key):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict({"experiment": "comparison", "params": params})

    def test_declared_types_accept_json_values(self):
        cfg = ExperimentConfig.from_dict({"experiment": "comparison", "params": {
            "data_mix": 0, "groupsize": None, "incoherence": True,
            "walk": {"delta": 1, "eps": None, "steps_per_phase": None},
            "discquant": {"lam": 50, "lambda_on": "linear"}}})
        assert cfg.params.walk == WalkConfig(delta=1.0)
        assert (cfg.params.data_mix, cfg.params.discquant.lam) == (0.0, 50.0)

    def test_int_and_float_spellings_echo_and_key_alike(self):
        runs = []
        for alphas in ([2], [2.0]):
            cfg = ExperimentConfig.from_dict({"experiment": "scaling", "trials": 1, "params": {
                "estimator_alphas": alphas, "estimator_n": 16, "estimator_m_grid": [2, 4, 8, 16],
                "estimator_trials": 20, "run_generalization": False}})
            runs.append((_config_echo(cfg), sorted(run_scaling(cfg).summary)))
        assert runs[0] == runs[1]
        assert "estimator_slope_alpha2.0" in runs[0][1]

    def test_numpy_ints_accepted(self):
        cfg = ExperimentConfig(experiment="comparison", seed=np.int64(3), trials=np.int32(2),
                               params=ComparisonParams(bits_levels=(np.int64(3),)))
        assert _config_echo(cfg)["seed"] == 3

    @pytest.mark.parametrize("params", [{"gen_alpha": float("nan")}, {"gen_alpha": float("inf")},
                                        {"estimator_alphas": [float("nan")]}],
                             ids=["gen_alpha_nan", "gen_alpha_inf", "estimator_alpha_nan"])
    def test_nonfinite_alpha_rejected_at_load(self, params):
        # a NaN passed both bounds, and the run failed at its first walk
        with pytest.raises(ValueError, match="alpha must be finite"):
            ExperimentConfig.from_dict({"experiment": "scaling", "params": params})

    def test_nested_walk_config_still_loads(self):
        cfg = ExperimentConfig.from_dict({"experiment": "scaling",
                                          "params": {"walk": {"delta": 0.1}}})
        assert cfg.params.walk == WalkConfig(delta=0.1)


class TestNegativeSeeds:
    """A negative seed fails at load, naming its field.  It used to load, and
    numpy then raised "expected non-negative integer", naming none; the
    experiment seed and incoh_seed raised it outside the per-row try, so the
    whole comparison run died."""

    @pytest.mark.parametrize("build, key", [
        (lambda: ExperimentConfig(experiment="comparison", seed=-1), "seed"),
        (lambda: DiscQuantConfig(seed=-1), "seed"),
        (lambda: WalkConfig(seed=-1), "seed"),
        (lambda: SpectrumSpec(n=8, alpha=2.0, basis_seed=-1), "basis_seed"),
        (lambda: ComparisonParams(incoh_seed=-1), "incoh_seed"),
    ], ids=["experiment", "discquant", "walk", "spectrum", "incoh"])
    def test_from_python(self, build, key):
        with pytest.raises(ValueError, match=f"^{key} must be nonnegative, got -1"):
            build()

    @pytest.mark.parametrize("raw, key", [
        ({"seed": -1}, "seed"),
        ({"params": {"discquant": {"seed": -1}}}, "params.discquant.seed"),
        ({"params": {"walk": {"seed": -1}}}, "params.walk.seed"),
        ({"params": {"incoh_seed": -1}}, "params.incoh_seed"),
    ], ids=["experiment", "discquant", "walk", "incoh"])
    def test_from_json(self, raw, key):
        with pytest.raises(ValueError, match=re.escape(f"{key} must be nonnegative, got -1")):
            ExperimentConfig.from_dict({"experiment": "comparison", **raw})

    def test_spectrum_from_json(self):
        # no dq run config sets basis_seed; a JSON object goes through the same checker
        raw = json.loads('{"n": 8, "alpha": 2.0, "basis_seed": -1}')
        with pytest.raises(ValueError, match=re.escape("spec.basis_seed must be nonnegative")):
            _json_value("spec", raw, SpectrumSpec)


class TestPythonBuiltConfigs:
    """A config built in Python gets the type check a config loaded from JSON gets."""

    @pytest.mark.parametrize("build, key", [
        # ran the incoherent arm, and its rows read "incoherence": "no"
        (lambda: ComparisonParams(incoherence="no"), "'incoherence'"),
        # the held-out draw (outside the per-row try) killed the whole run
        (lambda: ComparisonParams(heldout=8.5), "'heldout'"),
        (lambda: FirstOrderParams(sequences=2.5), "'sequences'"),
        (lambda: ToyArch(hidden=8.0), "'hidden'"),
        (lambda: ScalingParams(gen_trials=1.5), "'gen_trials'"),
        (lambda: ScalingParams(run_estimator=0), "'run_estimator'"),
        # loaded, then sigma() raised "seed must be integer"
        (lambda: SpectrumSpec(n=8, alpha=2.0, basis="random-orthogonal", basis_seed=1.5),
         "'basis_seed'"),
    ], ids=["incoherence", "heldout", "sequences", "hidden", "gen_trials", "run_estimator",
            "basis_seed"])
    def test_value_of_wrong_type_is_a_value_error(self, build, key):
        with pytest.raises(ValueError, match=key):
            build()

    def test_values_stored_in_declared_form(self):
        params = ComparisonParams(bits_levels=[3], methods=["rtn"], data_mix=0)
        assert params == ComparisonParams(bits_levels=(3,), methods=("rtn",), data_mix=0.0)
        assert hash(params) == hash(ComparisonParams(bits_levels=(3,), methods=("rtn",)))
        walk = WalkConfig(delta=1, seed=np.int64(4))
        assert (type(walk.delta), type(walk.eps), type(walk.seed)) == (float, float, int)
        assert type(DiscQuantConfig(lam=np.float32(2.0)).lam) is float


class TestRunChecksInputs:
    """``dq run`` rejects its outside inputs before it runs the experiment."""

    CONFIG = {"experiment": "first_order", "trials": 1,
              "params": {"deltas": [0.1], "sequences": 2}}

    @pytest.fixture
    def run(self, tmp_path, monkeypatch):
        import discq.cli as cli

        def never(cfg):
            pytest.fail("the experiment ran before its inputs were checked")

        monkeypatch.setattr(cli, "run_experiment", never)

        def run(*flags, **config):
            path = tmp_path / "exp.json"
            path.write_text(json.dumps({**self.CONFIG, **config}))
            return cli_main(["run", str(path), *flags])
        return run

    def test_unknown_format(self, run, tmp_path):
        with pytest.raises(ValueError, match="xml"):
            run("--out", str(tmp_path), "--format", "json,xml")
        assert not (tmp_path / "first_order.json").exists()

    def test_missing_out_directory(self, run, tmp_path):
        with pytest.raises(ValueError, match="missing"):
            run("--out", str(tmp_path / "missing"))

    def test_missing_config_outdir(self, run, tmp_path):
        with pytest.raises(ValueError, match="missing"):
            run(outdir=str(tmp_path / "missing"))

    @pytest.mark.parametrize("workers", ["abc", "2.5", ""])
    def test_workers_not_an_int(self, run, tmp_path, monkeypatch, workers):
        monkeypatch.setenv("DQ_WORKERS", workers)
        with pytest.raises(ValueError, match="DQ_WORKERS"):
            run("--out", str(tmp_path))


RECORD_KEYS = ["schema_version", "experiment", "artifact_version", "config", "rows",
               "summary", "wall_clock"]


@pytest.mark.parametrize("cfg", [
    tiny_comparison(trials=1, methods=("rtn",)),
    ExperimentConfig(experiment="first_order", trials=1,
                     params=FirstOrderParams(deltas=(0.1,), sequences=2)),
    ExperimentConfig(experiment="scaling", trials=1,
                     params=ScalingParams(estimator_alphas=(2.5,), estimator_n=32,
                                          estimator_m_grid=(4, 8, 16, 32),
                                          estimator_trials=20, run_generalization=False)),
], ids=["comparison", "first_order", "scaling"])
def test_record_key_order(cfg):
    assert list(run_experiment(cfg).to_record()) == RECORD_KEYS


class _Stop(Exception):
    """Raised by a stand-in once it has captured what a command passed it."""


class TestCliDefaults:
    """The dq flags that set config fields default to the dataclass values."""

    @pytest.fixture
    def seen(self, monkeypatch):
        import discq.cli as cli
        seen = {}

        def capture(name):
            def stand_in(*args, **kwargs):
                seen[name] = (args, kwargs)
                raise _Stop
            return stand_in

        for name in ("lm_round", "quantize_model", "falpha_scaling_study",
                     "generalization_study"):
            monkeypatch.setattr(cli, name, capture(name))
        real_random_model = cli.random_model

        def random_model(arch, seed=0):
            seen["random_model"] = ((arch,), {"seed": seed})
            return real_random_model(arch, seed=seed)

        monkeypatch.setattr(cli, "random_model", random_model)
        return seen

    @staticmethod
    def run(argv, out):
        try:
            cli_main(argv + ["--seed", "7", "--out", str(out)])
        except _Stop:
            pass

    def test_no_optional_flags_give_dataclass_defaults(self, seen, tmp_path):
        out = tmp_path / "out"
        self.run(["walk", "--n", "64", "--m", "2"], out)
        assert seen["lm_round"][0][1] == WalkConfig(seed=7)
        self.run(["quantize", "--bits", "3"], out)
        assert seen["quantize_model"][1]["dq_cfg"] == DiscQuantConfig(seed=7)
        assert seen["random_model"][0][0] == ToyArch()
        del seen["random_model"]
        self.run(["teacher"], out)
        assert seen["random_model"][0][0] == ToyArch()
        sp = ScalingParams()
        self.run(["speclab", "falpha", "--alpha", "2.5"], out)
        (spec, m_grid, trials), _ = seen["falpha_scaling_study"]
        assert (spec.n, tuple(m_grid), trials) == \
            (sp.estimator_n, sp.estimator_m_grid, sp.estimator_trials)
        self.run(["speclab", "gen", "--alpha", "2.0"], out)
        (spec, m_grid, trials, walk), _ = seen["generalization_study"]
        assert (spec.n, tuple(m_grid), trials) == (sp.gen_n, sp.gen_m_grid, sp.gen_trials)
        assert walk == WalkConfig(delta=sp.walk.delta, seed=7)

    def test_every_flag_sets_its_field(self, seen, tmp_path):
        out = tmp_path / "out"
        self.run(["walk", "--n", "64", "--m", "2", "--delta", "0.03", "--eps", "0.01",
                  "--steps", "50", "--max-phases", "9"], out)
        assert seen["lm_round"][0][1] == WalkConfig(delta=0.03, eps=0.01, steps_per_phase=50,
                                                    max_phases=9, seed=7)
        self.run(["quantize", "--bits", "3", "--lambda", "50", "--lr", "0.2", "--iters", "64",
                  "--warmup", "8", "--clamp", "0.5"], out)
        assert seen["quantize_model"][1]["dq_cfg"] == DiscQuantConfig(
            lam=50.0, lr=0.2, iterations=64, warmup=8, clamp=0.5, seed=7)
        self.run(["teacher", "--vocab", "12", "--context", "3", "--hidden", "20",
                  "--layers", "2", "--emb", "6"], out)
        assert seen["random_model"][0][0] == ToyArch(vocab=12, context=3, hidden=20,
                                                     layers=2, emb=6)
        self.run(["speclab", "falpha", "--alpha", "2.5", "--n", "128",
                  "--m-grid", "4,8,16,32", "--trials", "21"], out)
        (spec, m_grid, trials), _ = seen["falpha_scaling_study"]
        assert (spec.n, list(m_grid), trials) == (128, [4, 8, 16, 32], 21)
        self.run(["speclab", "gen", "--alpha", "2.0", "--n", "512",
                  "--m-grid", "2,4,8,16", "--trials", "3", "--delta", "0.05"], out)
        (spec, m_grid, trials, walk), _ = seen["generalization_study"]
        assert (spec.n, list(m_grid), trials) == (512, [2, 4, 8, 16], 3)
        assert walk == WalkConfig(delta=0.05, seed=7)
