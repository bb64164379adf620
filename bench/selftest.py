"""Self-test of the benchmark itself, a few ops per workload.

    python3 bench/selftest.py

It checks that
* a traced op yields the same output fingerprint as an untraced one, on
  every workload, and the traced split accounts for the op;
* every wrapped attribute is the original object again after a traced run;
* the output checks catch a tampered walk result and an off-grid weight;
* a forced walk failure (``WalkConfig(max_phases=1, steps_per_phase=1)``) is
  counted as failed without stopping the run, and so is a check that raises
  (the emitted ``report.json`` removed before the spectral check reads it);
* the command prints the result line the benchmark contract asks for, and
  exits non-zero without one in a directory that holds only the benchmark.

It exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def in_process(scratch: str) -> None:
    import numpy as np

    import spans
    import workloads
    from discq import lmwalk

    originals = [(owner, attr, spans.current(owner, attr))
                 for owner, attr, _ in spans.targets()]
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(7, scratch)
        tracer = spans.Tracer()
        tracer.install()
        try:
            ops, problems = run.closed_loop(wl, math.inf, tracer, max_ops=2)
        finally:
            tracer.restore()
        check(not problems and all(o.ok for o in ops), f"{name}: no failed op {problems}")
        check([o.traced for o in ops] == [False, True]
              and ops[0].digest == ops[1].digest,
              f"{name}: traced and untraced fingerprints agree")
        shares = sum(v for k, v in tracer.layer_metrics().items() if k.startswith("layer."))
        check(0.9 < shares <= 1.0 + 1e-9, f"{name}: layer self shares sum to {shares:.4f}")
    check(all(spans.current(owner, attr) is original for owner, attr, original in originals),
          f"all {len(originals)} wrapped attributes are the originals again")

    walk = workloads.WalkSweep(7, scratch)
    results = [part() for part in walk.parts()]
    res = results[0]
    res.x[np.flatnonzero(res.frozen)[0]] = 0.5
    check(bool(walk.check(results)), "walk check catches a frozen coordinate moved to 0.5")

    quant = workloads.QuantizeWalk(7, scratch)
    outcomes = [part() for part in quant.parts()]
    outcomes[0].model.params[0] += 0.3 * quant.scales[0]
    check(bool(quant.check(outcomes)), "quantize check catches an off-grid weight")

    walk.cfg = lmwalk.WalkConfig(max_phases=1, steps_per_phase=1)
    ops, problems = run.closed_loop(walk, math.inf, max_ops=2)
    check(len(ops) == 2 and not any(o.ok for o in ops)
          and all("MaxPhasesExceeded" in p for p in problems),
          "forced walk failure counted in failed_ratio, run carries on")

    spectral = workloads.Spectral(7, scratch)

    def emit_and_remove():
        report = spectral.run_and_emit()
        os.remove(spectral.json_path)
        return report

    spectral.parts = lambda: [emit_and_remove]
    ops, problems = run.closed_loop(spectral, math.inf, max_ops=2)
    check(len(ops) == 2 and not any(o.ok for o in ops)
          and all("check raised FileNotFoundError" in p for p in problems),
          "a check that raises is counted in failed_ratio, run carries on")


def command(scratch: str) -> None:
    cmd = [sys.executable, "bench/run.py", "--workload", "walk_sweep", "--seed", "3",
           "--seconds", "1"]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        res = subprocess.run(cmd + ["--trace", str(trace)], cwd=run.ROOT,
                             capture_output=True, text=True, timeout=300)
        last = json.loads(res.stdout.strip().splitlines()[-1]) if res.returncode == 0 else {}
        check(set(last) == {"correct", "attempted", "failed", "metrics"}
              and last["correct"] and last["attempted"] >= 1
              and list(last["metrics"]) == [m["name"] for m in spec[kind]],
              f"--trace {trace} prints every {kind} metric")

    bare = Path(scratch) / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    res = subprocess.run(cmd + ["--trace", "0"], cwd=bare, capture_output=True, text=True,
                         timeout=180)
    check(res.returncode != 0 and '"metrics"' not in res.stdout,
          "without the sources the command fails and prints no result")


def main() -> int:
    run.pin_blas()
    run.import_discq()
    with tempfile.TemporaryDirectory(dir=run.outdir()) as scratch:
        in_process(scratch)
        command(scratch)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
