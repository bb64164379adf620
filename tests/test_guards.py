"""Names that code outside the package looks up in discq still resolve.

The benchmark's tracer (``bench/spans.py``) wraps discq functions at the
names their callers look them up by, the demos import from discq, and the
README shows ``dq`` command lines, ``dq run`` configs and Python blocks.  A
refactor that drops or moves one of those names, flags or config keys would
otherwise fail only in ``bench/selftest.py``, or when a demo or a README
example is run by hand.
"""

import ast
import importlib
import importlib.util
import json
import re
import shlex
from pathlib import Path

import pytest

from discq.cli import build_parser
from discq.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _bench_spans():
    """Import ``bench/spans.py`` by path; ``bench`` is not a package."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _bench_spans()
    sites = spans.targets()
    assert sites
    for owner, attr, _ in sites:
        assert callable(spans.current(owner, attr)), f"{owner.__name__}.{attr}"
    # every figure the tracer reports is fed by some traced name
    names = {name for *_, name in sites}
    assert set(spans.TIMED) | set(spans.COUNTED) | set(spans.NOTES) <= names


def test_tracer_sees_every_rounder_callee():
    """Each rounder in ``pipeline.ROUNDERS`` looks its callees up at call time.

    A table entry that bound ``grid.rtn`` or ``lmwalk.lm_round`` at import
    would call past the tracer's wrappers, and the benchmark's per-layer
    figures for that rounder would read 0.
    """
    from discq import pipeline
    from discq.discquant import DiscQuantConfig
    from discq.toymodel import ToyArch, random_model

    spans = _bench_spans()
    teacher = random_model(ToyArch(hidden=8, emb=4), seed=3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op_id, method in enumerate(pipeline.METHODS):
            with tracer.op(op_id):
                pipeline.quantize_model(teacher, 3, 16, method, seed=1, walk_samples=16,
                                        dq_cfg=DiscQuantConfig(iterations=4, warmup=1))
    finally:
        tracer.restore()
    seen = {method: {name for name, *_, op in tracer.spans if op == op_id}
            for op_id, method in enumerate(pipeline.METHODS)}
    assert "grid.rtn" in seen["rtn"]
    assert {"discquant.optimize", "discquant.finalize"} <= seen["discquant"]
    # lm_round calls none of these itself: each span here is one the rounder made
    assert {"lmwalk.lm_round", "discquant.finalize", "toymodel.gradient_rows",
            "toymodel.sample_sequences", "grid.bracket_of"} <= seen["lmwalk"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    checked = 0
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "discq":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
                checked += 1
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "discq":
                    importlib.import_module(alias.name)
                    checked += 1
    assert checked, f"{path.name} imports nothing from discq"


def _readme_python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                      flags=re.M | re.S)


@pytest.mark.parametrize("block", _readme_python_blocks(),
                         ids=lambda block: block.splitlines()[0][:40])
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


def _readme_experiment_configs() -> list[dict]:
    """Every README ``json`` block that is a ``dq run`` config."""
    blocks = re.findall(r"^```json\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.M | re.S)
    return [raw for raw in map(json.loads, blocks) if "experiment" in raw]


def test_readme_has_experiment_configs():
    assert _readme_experiment_configs()


@pytest.mark.parametrize("raw", _readme_experiment_configs(),
                         ids=lambda raw: json.dumps(raw)[:40])
def test_readme_experiment_config_loads(raw):
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.experiment == raw["experiment"]


def _readme_commands() -> list[str]:
    """Every ``dq`` line in README's fenced blocks, continuation lines joined."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.strip().startswith("dq ")]


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_parses(command):
    args = build_parser().parse_args(shlex.split(command)[1:])
    assert callable(args.fn)
