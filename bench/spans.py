"""Spans around calls into discq, recorded from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper at the
name its caller looks up.  A ``from``-import binds a second name, so the
wrapper goes on every such name (``discq.discquant.kl_term`` as well as
``discq.toymodel.kl_term``); both spans carry the defining module's name.
``grad_to_q`` is a class-level alias of ``to_q`` and gets its own wrapper.
``restore`` puts every original object back.

A span is recorded only inside an op opened with ``Tracer.op``; outside one
the wrappers call straight through.  Spans stay in memory as
``[name, start, end, parent, op]`` rows; a layer's self time is its span
durations minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("toymodel", "discquant", "optim", "incoherence", "lmwalk", "speclab",
           "harness", "pipeline", "grid")


def _public_functions(module) -> list[str]:
    return [name for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and not name.startswith("_")]


def targets():
    """(owner, attribute, span name) for every traced call site."""
    from discq import (discquant, grid, harness, incoherence, lmwalk, optim,
                       pipeline, speclab, toymodel)

    sites = [(discquant, a) for a in ("sample_sequences", "kl_term", "interp_weights",
                                      "bracket_of", "finalize", "optimize")]
    sites += [(toymodel, a) for a in ("gradient_rows", "sample_sequences", "kl_term")]
    sites += [(grid, a) for a in _public_functions(grid)]
    sites += [(lmwalk, "lm_round")]
    sites += [(speclab, a) for a in _public_functions(speclab) + ["lm_round"]]
    sites += [(harness, a) for a in ("falpha_scaling_study", "generalization_study",
                                     "emit", "run_scaling")]
    sites += [(pipeline, "quantize_model")]
    out = [(owner, attr, _span_name(getattr(owner, attr))) for owner, attr in sites]
    out += [(optim.AdamW, "step", "optim.AdamW.step")]
    out += [(incoherence.ModelIncoherence, attr, f"incoherence.{attr}")
            for attr in ("to_q", "from_q", "grad_to_q")]
    return out


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def current(owner, attr):
    """The object stored at ``owner.attr`` (class dict entry for classes)."""
    return vars(owner)[attr]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.notes: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._op = None
        self._installed: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name in targets():
            original = current(owner, attr)
            setattr(owner, attr, self._wrap(original, name))
            self._installed.append((owner, attr, original))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = [name, start, end, parent, self._op]
            if note is not None:
                self.notes[name].append(note(args, kwargs, out, end - start))
            return out

        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Trace one op, or one part of it, under a root span named ``op``."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid] = ["op", start, time.perf_counter(), None, op_id]
            self._op = None

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return totals

    def dump(self, path: str, origin: float) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start - origin, end - origin, parent, op]))
                fh.write("\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures per traced op (0 where a layer was not reached)."""
        ops = [s for s in self.spans if s[0] == "op"]
        n_ops = len({op_id for *_, op_id in ops})
        if n_ops == 0:
            return {}
        op_total = sum(end - start for _, start, end, _, _ in ops)
        self_s = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
        out = {}
        for name in TIMED:
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / n_ops
        for name in COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0) / n_ops
        for module in MODULES:
            out[f"layer.{module}.self_share"] = sum(
                v for k, v in self_s.items() if k.split(".", 1)[0] == module) / op_total

        out["toymodel.kl_term.rows"] = sum(self.notes["toymodel.kl_term"]) / n_ops
        out["harness.emit.bytes"] = sum(self.notes["harness.emit"]) / n_ops
        steps = calls.get("optim.AdamW.step", 0)
        out["discquant.step_ms"] = (1e3 * inclusive["discquant.optimize"] / steps
                                    if steps else 0.0)
        shares = self.notes["discquant.optimize"]
        out["discquant.snapped_share"] = statistics.fmean(shares) if shares else 0.0

        walks = self.notes["lmwalk.lm_round"]
        for m in (8, 16, 32):
            times = [w["seconds"] for w in walks if w["m"] == m]
            out[f"lmwalk.lm_round.m{m}_s"] = statistics.median(times) if times else 0.0
        phases = sum(w["phases"] for w in walks)
        freezes = sum(w["freezes"] for w in walks)
        out["lmwalk.phases"] = phases / n_ops
        out["lmwalk.phase_accept_ratio"] = (sum(w["accepted"] for w in walks) / phases
                                            if phases else 0.0)
        out["lmwalk.freezes"] = freezes / n_ops
        out["lmwalk.us_per_freeze"] = (1e6 * inclusive["lmwalk.lm_round"] / freezes
                                       if freezes else 0.0)
        out["lmwalk.trivial_share"] = (sum(w["phases"] == 0 for w in walks) / len(walks)
                                       if walks else 0.0)
        out["lmwalk.residual_max"] = max((w["residual"] for w in walks), default=0.0)
        return out


def _kl_rows(args, kwargs, out, seconds):
    batch = args[2] if len(args) > 2 else kwargs["batch"]
    if batch.positions is None:
        return int(batch.sequences.size)
    return sum(len(p) for p in batch.positions)


def _walk(args, kwargs, out, seconds):
    cs = args[0] if args else kwargs["cs"]
    return {"m": cs.m, "seconds": seconds, "phases": out.phases,
            "accepted": len(out.accepted_freeze_counts),
            "freezes": sum(out.accepted_freeze_counts), "residual": out.residual_l2}


def _snapped(args, kwargs, out, seconds):
    return out.fractional_fraction


def _emit_bytes(args, kwargs, out, seconds):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return os.path.getsize(path)


# counts taken at the call boundary, from the arguments and the result
NOTES = {"toymodel.kl_term": _kl_rows, "lmwalk.lm_round": _walk,
         "discquant.optimize": _snapped, "harness.emit": _emit_bytes}

TIMED = ("toymodel.sample_sequences", "toymodel.kl_term", "toymodel.gradient_rows",
         "discquant.optimize", "optim.AdamW.step", "discquant.finalize",
         "incoherence.to_q", "incoherence.grad_to_q", "incoherence.from_q",
         "lmwalk.lm_round", "speclab.sample_gradients", "speclab.empirical_covariance",
         "speclab.schatten1_error", "speclab.falpha_scaling_study",
         "speclab.generalization_study", "harness.run_scaling", "harness.emit",
         "pipeline.quantize_model", "grid.build_block_scaling", "grid.bracket_of",
         "grid.interp_weights", "grid.rtn")
COUNTED = ("toymodel.sample_sequences", "toymodel.kl_term", "incoherence.to_q",
           "incoherence.grad_to_q", "incoherence.from_q", "lmwalk.lm_round",
           "speclab.schatten1_error", "pipeline.quantize_model", "grid.interp_weights")
