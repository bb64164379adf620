"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 bench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/baseline.json

For every workload in ``BENCHMARK.json`` it runs ``bench/run.py --trace 0``
once per seed, then ``--trace 1`` on the first seed, one run at a time, each
for the file's ``run_seconds``.  Each end-to-end metric gets its median,
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread as
a share of the median, next to the metric's bound in ``BENCHMARK.json``.  The traced run's per-layer figures and every run's
record go into the output file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2].removeprefix("record "))
    return result, record


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results, records = [], []
        for seed in args.seeds:
            result, record = run_once(workload, seed, seconds, trace=0)
            results.append(result)
            records.append(record)
            print(f"{workload} seed={seed} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"end_to_end": {}, "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results)}
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in results])
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            print(f"  {name}: median {stats['median']:.4g} spread {stats['spread']:.3f} "
                  f"(bound {bound}, a third of it {bound / 3:.3f})", flush=True)
        traced, record = run_once(workload, args.seeds[0], seconds, trace=1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        records.append(record)
        entry["records"] = records
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
