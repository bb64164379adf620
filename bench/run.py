"""discq benchmark: one closed-loop workload per process, checked and timed.

Run from the repository root, for example

    python3 bench/run.py --workload walk_sweep --seed 1 --seconds 28 --trace 0

One client runs ops back to back: the next op starts only when the previous
one has returned, and no op starts once the run's median op would end past
``--seconds``.  Every op's output is checked; an op that raises or fails its
check counts as failed and the run goes on.  BLAS is pinned to one thread in
this process's own environment before numpy is imported.

``--trace 0`` reports the end-to-end metrics, both measured against a
yardstick (``yardstick.py``): a fixed numpy/interpreter kernel that runs no
discq code, read between the parts of every op (one call into discq each,
see ``workloads.py``) and between every two set-up probes, which cancels
most of the machine's drift in speed.  ``op_p50_ys`` is the median over ops
of the op's time in yardsticks: the sum over its parts of each part's
seconds over the mean of the readings either side of it.  ``setup_s`` is the median of eight fresh processes, half
started before the ops and half after, each timed from its start until it
has imported discq and built the workload's inputs; it is scaled by
``YS_REF_S`` over the median of the readings taken around the probes, so
it reads in seconds on a machine where one reading takes ``YS_REF_S``.
The raw ``ops_per_s``, ``op_p50_s`` and probe seconds are printed and kept
in the run record.  ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced
ones, per op, plus the traced/untraced op-time ratio; the spans are written
to ``.bench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the run record (``record {...}``): versions, BLAS build, sizes, op count,
output fingerprint and the figures the metrics line leaves out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

# numpy, discq and the bench modules that import them are imported only
# after pin_blas(), inside functions.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 4  # per batch: one batch before the ops, one after them
YS_REF_S = 0.010  # setup_s is scaled to a machine where a yardstick reading takes this
TAIL_BEYOND = 10  # a tail percentile needs this many ops beyond it
WORKLOAD_NAMES = ("walk_sweep", "quantize_dq", "quantize_walk", "spectral")


def pin_blas() -> None:
    """Pin BLAS threads; must run before numpy is first imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_discq():
    """Import discq from this checkout's ``src``, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import discq

    if Path(discq.__file__).resolve().parent != (SRC / "discq").resolve():
        raise SystemExit(f"bench: imported discq from {discq.__file__}, not {SRC}")
    return discq


def measure_setup(workload: str, seed: int, count: int, yardstick):
    """Seconds from process start to inputs built, in fresh processes, and
    the yardstick readings taken before the first probe and after each."""
    times, readings = [], [yardstick.seconds()] if count else []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.communicate(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        readings.append(yardstick.seconds())
    return times, readings


@dataclass
class Op:
    traced: bool
    seconds: float
    ok: bool
    digest: str | None = None
    kls: list[float] = field(default_factory=list)
    ys: float = 0.0  # the op's time in yardsticks


def closed_loop(wl, seconds: float, tracer=None, max_ops: int | None = None):
    """Run ops back to back; with a tracer every second op is traced.

    The yardstick is read before the first op and after every part of an
    op.  Each part's seconds are divided by the mean of the readings either
    side of it, and an op's time in yardsticks is the sum of these.  Returns
    the ops and the problems found.  An op fails when it raises, when its
    check finds a problem or raises, or when its output differs from the
    first successful op's: every op does the same work on the same inputs.
    """
    from workloads import output_digest
    from yardstick import Yardstick

    yardstick = Yardstick()
    ops: list[Op] = []
    problems: list[str] = []
    start = time.perf_counter()
    reading = yardstick.seconds()
    min_ops = 1 if tracer is None else 2
    while max_ops is None or len(ops) < max_ops:
        median = statistics.median(o.seconds for o in ops) if ops else 0.0
        if len(ops) >= min_ops and time.perf_counter() - start + median > seconds:
            break
        i = len(ops)
        traced = tracer is not None and i % 2 == 1
        op = Op(traced, 0.0, ok=False)
        ops.append(op)
        output, error = [], None
        try:
            for part in wl.parts():
                t0 = time.perf_counter()
                try:
                    with tracer.op(i) if traced else nullcontext():
                        output.append(part())
                finally:
                    elapsed = time.perf_counter() - t0
                    before, reading = reading, yardstick.seconds()
                    op.seconds += elapsed
                    op.ys += elapsed / ((before + reading) / 2)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        if error is None:
            try:
                issues = wl.check(output)
                op.digest = output_digest(wl, output)
                op.kls = wl.heldout_kls(output)
            except Exception as exc:  # so is a check that cannot run
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            problems.append(f"op {i}: {error}")
            continue
        first = next((o.digest for o in ops if o.ok), op.digest)
        if op.digest != first:
            issues.append("output differs from the first op's")
        problems += [f"op {i}: {issue}" for issue in issues]
        op.ok = not issues
    return ops, problems


def tail(durations: list[float]):
    """(percentile, seconds) of the highest percentile with TAIL_BEYOND ops
    beyond it, or None when the run has too few ops for one."""
    n = len(durations)
    if n <= TAIL_BEYOND:
        return None
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return pct, sorted(durations)[n - TAIL_BEYOND - 1]


def run_record(args, wl, ops, problems, setup):
    import numpy as np

    untraced = [o.seconds for o in ops if not o.traced]
    kls = [kl for o in ops if o.ok for kl in o.kls]
    digests = sorted({o.digest for o in ops if o.digest})
    op_tail = tail(untraced)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "src_sha256": _src_sha256(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas_build(np), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "sizes": wl.sizes, "repeats": len(ops),
        "ops_untraced": len(untraced), "ops_traced": len(ops) - len(untraced),
        "ops_per_s": sum(o.ok for o in ops) / sum(o.seconds for o in ops),
        "op_p50_s": statistics.median(o.seconds for o in ops),
        "op_p50_ys": statistics.median(o.ys for o in ops),
        "op_seconds": [round(o.seconds, 6) for o in ops],
        "op_ys": [round(o.ys, 4) for o in ops],
        "op_tail": None if op_tail is None else {"percentile": op_tail[0],
                                                 "seconds": op_tail[1]},
        "failed_ratio": sum(not o.ok for o in ops) / len(ops),
        "heldout_kl_p50": statistics.median(kls) if kls else None,
        "setup_probe_seconds": setup[0],
        "setup_yardstick_seconds": setup[1],
        "output_sha256": digests[0] if len(digests) == 1 else digests,
        "problems": problems[:20],
    }


def end_to_end(ops, setup) -> dict:
    probes, readings = setup
    return {
        "op_p50_ys": {"value": statistics.median(o.ys for o in ops),
                      "unit": "yardsticks"},
        "setup_s": {"value": statistics.median(probes) * YS_REF_S / statistics.median(readings),
                    "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MiB"},
    }


def per_layer(tracer, ops, record, spec) -> dict:
    figures = tracer.layer_metrics()
    traced = [o.seconds for o in ops if o.traced]
    untraced = [o.seconds for o in ops if not o.traced]
    figures["trace_overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced)
                                       if traced and untraced else 0.0)
    figures["heldout_kl_p50"] = record["heldout_kl_p50"] or 0.0
    return {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "discq").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_build(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # the config layout differs across numpy builds
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "discq" / "__init__.py").is_file():
        raise SystemExit(f"bench: no discq sources under {SRC}")
    pin_blas()
    if args.setup_probe:
        import_discq()
        import workloads

        with tempfile.TemporaryDirectory(dir=outdir()) as scratch:
            workloads.WORKLOADS[args.workload](args.seed, scratch)
        print("ready", flush=True)
        return 0

    spec = _benchmark_spec()  # fail before any work if the file is missing
    from yardstick import Yardstick

    yardstick = Yardstick()
    probes = SETUP_PROBES if args.trace == 0 else 0
    setup_times, setup_readings = measure_setup(args.workload, args.seed, probes, yardstick)
    import_discq()
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    origin = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=outdir()) as scratch:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        if tracer is not None:
            tracer.install()
        try:
            ops, problems = closed_loop(wl, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
    more_times, more_readings = measure_setup(args.workload, args.seed, probes, yardstick)
    setup = (setup_times + more_times, setup_readings + more_readings)
    record = run_record(args, wl, ops, problems, setup)
    if tracer is not None:
        tracer.dump(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"), origin)
        metrics = per_layer(tracer, ops, record, spec)
    else:
        metrics = end_to_end(ops, setup)
    _print_table(args, record, metrics)
    print("record " + json.dumps(record))
    failed = sum(not o.ok for o in ops)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def outdir() -> str:
    OUT.mkdir(exist_ok=True)
    return str(OUT)


def _print_table(args, record, metrics) -> None:
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={record['repeats']} failed_ratio={record['failed_ratio']:.4g} (fraction)")
    for problem in record["problems"]:
        print(f"#   {problem}")
    if args.trace == 0:
        print(f"#   ops_per_s {record['ops_per_s']:.6g} 1/s")
        print(f"#   op_p50_s {record['op_p50_s']:.6g} s")
        op_tail = record["op_tail"]
        print("#   op_tail_s " + ("n/a: a tail percentile needs more than "
                                   f"{TAIL_BEYOND} ops" if op_tail is None else
                                   f"{op_tail['seconds']:.6g} s (p{op_tail['percentile']:.1f})"))
        if record["heldout_kl_p50"] is not None:
            print(f"#   heldout_kl_p50 {record['heldout_kl_p50']:.10g} nats")
    for name, m in metrics.items():
        print(f"#   {name} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
