"""Names that code outside the package looks up in discq still resolve.

The benchmark's tracer (``bench/spans.py``) wraps discq functions at the
names their callers look them up by, the demos import from discq, and the
README shows ``dq`` command lines, ``dq run`` configs and Python blocks.  A
refactor that drops or moves one of those names, flags or config keys would
otherwise fail only in ``bench/selftest.py``, or when a demo or a README
example is run by hand.

The last guards walk the config classes' type hints: every field, a field
added later included, must reject a value of the wrong type with a
``ValueError`` naming it, whether the config is built in Python or loaded
from a ``dq run`` config.  So must every field that declares a range or
choices beside its type, for a value just outside them.
"""

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import json
import math
import re
import shlex
import typing
from pathlib import Path

import pytest

from discq import cli
from discq.cli import build_parser
from discq.harness import EXPERIMENTS, ExperimentConfig
from discq.serialize import NONNEGATIVE, Bound
from discq.speclab import SpectrumSpec

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


# (command, flag): dest, default, required, type; the default of a required
# flag is never read, so it stands as None
_FLAGS = {
    ("", "--version"): ("version", argparse.SUPPRESS, False, None),
    ("run", "config"): ("config", None, True, None),
    ("run", "--out"): ("out", None, False, None),
    ("run", "--format"): ("format", "json", False, None),
    ("walk", "--n"): ("n", None, True, "_count"),
    ("walk", "--m"): ("m", None, True, "_count"),
    ("walk", "--seed"): ("seed", 0, False, "_seed"),
    ("walk", "--delta"): ("delta", argparse.SUPPRESS, False, "float"),
    ("walk", "--eps"): ("eps", argparse.SUPPRESS, False, "float"),
    ("walk", "--steps"): ("steps_per_phase", argparse.SUPPRESS, False, "int"),
    ("walk", "--max-phases"): ("max_phases", argparse.SUPPRESS, False, "int"),
    ("walk", "--out"): ("out", None, True, None),
    ("speclab falpha", "--alpha"): ("alpha", None, True, "float"),
    ("speclab falpha", "--n"): ("n", 256, False, "_count"),
    ("speclab falpha", "--m-grid"): ("m_grid", (32, 64, 128, 256, 512), False, "parse"),
    ("speclab falpha", "--trials"): ("trials", 24, False, "_count"),
    ("speclab falpha", "--seed"): ("seed", 0, False, "_seed"),
    ("speclab falpha", "--out"): ("out", None, True, None),
    ("speclab gen", "--alpha"): ("alpha", None, True, "float"),
    ("speclab gen", "--n"): ("n", 1024, False, "_count"),
    ("speclab gen", "--m-grid"): ("m_grid", (8, 16, 32, 64), False, "parse"),
    ("speclab gen", "--trials"): ("trials", 20, False, "_count"),
    ("speclab gen", "--delta"): ("delta", 0.04, False, "float"),
    ("speclab gen", "--seed"): ("seed", 0, False, "_seed"),
    ("speclab gen", "--out"): ("out", None, True, None),
    ("speclab jl", "--ckpt"): ("ckpt", None, True, None),
    ("speclab jl", "--d"): ("d", 64, False, "_count"),
    ("speclab jl", "--samples"): ("samples", 128, False, "_count"),
    ("speclab jl", "--seed"): ("seed", 0, False, "_seed"),
    ("speclab jl", "--out"): ("out", None, True, None),
    ("quantize", "--bits"): ("bits", None, True, "int"),
    ("quantize", "--groupsize"): ("groupsize", None, False, "int"),
    ("quantize", "--method"): ("method", "discquant", False, None),
    ("quantize", "--lambda"): ("lam", argparse.SUPPRESS, False, "float"),
    ("quantize", "--lr"): ("lr", argparse.SUPPRESS, False, "float"),
    ("quantize", "--iters"): ("iterations", argparse.SUPPRESS, False, "int"),
    ("quantize", "--warmup"): ("warmup", argparse.SUPPRESS, False, "int"),
    ("quantize", "--clamp"): ("clamp", argparse.SUPPRESS, False, "float"),
    ("quantize", "--seed"): ("seed", 0, False, "_seed"),
    ("quantize", "--teacher"): ("teacher", None, False, None),
    ("quantize", "--heldout"): ("heldout", 256, False, "_count"),
    ("quantize", "--incoherence"): ("incoherence", "off", False, None),
    ("quantize", "--incoh-seed"): ("incoh_seed", 0, False, "_seed"),
    ("quantize", "--out"): ("out", None, True, None),
    ("teacher", "--seed"): ("seed", 0, False, "_seed"),
    ("teacher", "--vocab"): ("vocab", argparse.SUPPRESS, False, "int"),
    ("teacher", "--context"): ("context", argparse.SUPPRESS, False, "int"),
    ("teacher", "--hidden"): ("hidden", argparse.SUPPRESS, False, "int"),
    ("teacher", "--layers"): ("layers", argparse.SUPPRESS, False, "int"),
    ("teacher", "--emb"): ("emb", argparse.SUPPRESS, False, "int"),
    ("teacher", "--out"): ("out", None, True, None),
}


def _type_name(kind):
    """A flag's ``type`` by the ``discq.cli`` name bound to it, else its own name."""
    return next((name for name, value in vars(cli).items() if value is kind),
                getattr(kind, "__name__", None))


def _flags(parser, path=()):
    """(command, flag): (dest, default, required, type) for ``parser`` and its subcommands."""
    table = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                table.update(_flags(child, path + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            table[" ".join(path), "/".join(action.option_strings) or action.dest] = (
                action.dest, None if action.required else action.default, action.required,
                _type_name(action.type))
    return table


def test_cli_flags_keep_their_declarations():
    """Every ``dq`` flag keeps its name, dest, default, whether it is required
    and its type, however ``build_parser`` declares it."""
    assert _flags(build_parser()) == _FLAGS



# a JSON value of the wrong type for each declared scalar type
_WRONG = {int: 2.5, float: "2.5", bool: 1, str: 1}
# what a config class needs besides the field under test
_REQUIRED = {ExperimentConfig: {"experiment": "comparison"},
             SpectrumSpec: {"n": 8, "alpha": 2.0}}


def _wrong_value(hint):
    """A JSON value that no field declared ``hint`` takes, and the suffix
    (``[0]`` for a list item) that its error key carries."""
    if hint in _WRONG:
        return _WRONG[hint], ""
    members = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple:
        value, suffix = _wrong_value(members[0])
        return [value], "[0]" + suffix
    if len(members) == 1:
        return _wrong_value(members[0])
    return [], ""  # a config class, or a union of several types: a list fits none


def _json_fields():
    """(experiment, dotted config key, declared type) of every field a ``dq run``
    config can set, nested config objects included."""
    fields = [(experiment, name, hint) for experiment in EXPERIMENTS
              for name, hint in typing.get_type_hints(ExperimentConfig).items()
              if name != "experiment"]
    todo = [(experiment, "params", cls) for experiment, (cls, _) in EXPERIMENTS.items()]
    while todo:
        experiment, prefix, cls = todo.pop()
        for name, hint in typing.get_type_hints(cls).items():
            fields.append((experiment, f"{prefix}.{name}", hint))
            if dataclasses.is_dataclass(hint):
                todo.append((experiment, f"{prefix}.{name}", hint))
    return fields


def _python_fields():
    """(class, field, declared type) of every field of every config class that
    a ``dq run`` config reaches, and of ``SpectrumSpec``."""
    classes = {ExperimentConfig, SpectrumSpec, *(cls for cls, _ in EXPERIMENTS.values())}
    classes.update(hint for *_, hint in _json_fields() if dataclasses.is_dataclass(hint))
    return [(cls, name, hint) for cls in sorted(classes, key=lambda c: c.__name__)
            for name, hint in typing.get_type_hints(cls).items()]


@pytest.mark.parametrize("cls, name, hint", [
    pytest.param(cls, name, hint, id=f"{cls.__name__}.{name}")
    for cls, name, hint in _python_fields()])
def test_every_config_field_is_type_checked(cls, name, hint):
    """A field added later gets its type check from its annotation alone."""
    value, suffix = _wrong_value(hint)
    with pytest.raises(ValueError, match=re.escape(name + suffix)):
        cls(**{**_REQUIRED.get(cls, {}), name: value})


@pytest.mark.parametrize("experiment, key, hint", [
    pytest.param(experiment, key, hint, id=f"{experiment}:{key}")
    for experiment, key, hint in _json_fields()])
def test_every_config_key_is_type_checked(experiment, key, hint):
    value, suffix = _wrong_value(hint)
    raw = value
    for part in reversed(key.split(".")):
        raw = {part: raw}
    with pytest.raises(ValueError, match=re.escape(f"'{key}{suffix}'")):
        ExperimentConfig.from_dict({"experiment": experiment, **raw})


# The value guard walks the same fields with their declared bounds and choices
# (``Annotated[T, Bound]``, ``Literal[...]``): a value just outside each one, and
# NaN (and infinity, unless the bound holds it) for a float field, must raise a
# ``ValueError`` naming the field.

def _outside(hint):
    """(value, error key suffix) for each value just outside the bound or
    choices ``hint`` declares; none for a hint that declares neither."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        return [([value], "[0]" + suffix) for value, suffix in _outside(args[0])]
    if origin is typing.Literal:
        return [("unlisted" if isinstance(args[0], str) else max(args) + 1, "")]
    if origin is not typing.Annotated:
        return []
    kind, bound = args
    assert isinstance(bound, Bound), hint
    if int in (typing.get_args(kind) or (kind,)):
        below, above = bound.lo - 1, bound.hi + 1
        values = []
    else:
        lo, hi = float(bound.lo), float(bound.hi)
        below, above = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        values = [math.nan] + ([] if math.inf in bound else [math.inf])
    if bound.lo > -math.inf:
        values.append(below if bound.lo_in else type(below)(bound.lo))
    if bound.hi < math.inf:
        values.append(above if bound.hi_in else type(above)(bound.hi))
    return [(value, "") for value in values]


def _declared(cls, name):
    """The annotation of field ``name`` of ``cls``, its bound or choices kept."""
    return typing.get_type_hints(cls, include_extras=True)[name]


def _owner(experiment, key):
    """The config class whose field the dotted ``key`` of a ``dq run`` config sets,
    and the field's name."""
    *path, name = key.split(".")
    cls = ExperimentConfig
    for part in path:
        cls = EXPERIMENTS[experiment][0] if part == "params" else typing.get_type_hints(cls)[part]
    return cls, name


_PYTHON_OUTSIDE = [(cls, name, value, suffix) for cls, name, _ in _python_fields()
                   for value, suffix in _outside(_declared(cls, name))]
_JSON_OUTSIDE = [(experiment, key, value, suffix) for experiment, key, _ in _json_fields()
                 for value, suffix in _outside(_declared(*_owner(experiment, key)))]


def test_value_guards_cover_declared_fields():
    covered = {(cls.__name__, name) for cls, name, *_ in _PYTHON_OUTSIDE}
    assert {("ExperimentConfig", "seed"), ("SpectrumSpec", "alpha"), ("ToyArch", "layers"),
            ("ComparisonParams", "methods"), ("WalkConfig", "delta")} <= covered
    assert {key for _, key, *_ in _JSON_OUTSIDE} >= {"seed", "params.discquant.tau",
                                                      "params.walk.eps", "params.data_mix"}


@pytest.mark.parametrize("cls, name, hint", [
    pytest.param(cls, name, hint, id=f"{cls.__name__}.{name}")
    for cls, name, hint in _python_fields() if name.endswith("seed")])
def test_every_seed_field_is_nonnegative(cls, name, hint):
    assert _declared(cls, name) == typing.Annotated[int, NONNEGATIVE]


def _seeded_calls():
    """A call that turns a ``seed`` argument into a generator, per public entry."""
    import numpy as np

    from discq.discquant import init_x
    from discq.grid import bracket_of, explicit_grid
    from discq.incoherence import RHT, ModelIncoherence
    from discq.lmwalk import WalkConfig
    from discq.speclab import (falpha_scaling_study, generalization_study, jl_spectrum,
                               sample_gradients)
    from discq.toymodel import ToyArch, random_model

    spec = SpectrumSpec(n=64, alpha=2.0)
    return {
        "random_model": lambda seed: random_model(seed=seed),
        "ModelIncoherence": lambda seed: ModelIncoherence(ToyArch(), seed=seed),
        "RHT.from_seed": lambda seed: RHT.from_seed(8, seed),
        "sample_gradients": lambda seed: sample_gradients(spec, 4, seed=seed),
        "falpha_scaling_study": lambda seed: falpha_scaling_study(
            spec, [4, 8, 16, 32], 20, seed=seed),
        "generalization_study": lambda seed: generalization_study(
            SpectrumSpec(n=256, alpha=2.0), [1, 2, 4, 8], 1, WalkConfig(), seed=seed),
        "jl_spectrum": lambda seed: jl_spectrum(np.ones((3, 4)), 2, seed=seed),
        "init_x": lambda seed: init_x("uniform-random",
                                      bracket_of(np.zeros(3), explicit_grid([0.0, 1.0], n=3)),
                                      seed=seed),
    }


@pytest.mark.parametrize("name", list(_seeded_calls()))
def test_negative_seed_named_where_a_generator_is_built(name):
    # numpy raised "expected non-negative integer", naming no argument
    with pytest.raises(ValueError, match=re.escape("seed must be nonnegative, got -1")):
        _seeded_calls()[name](-1)


def test_generators_are_built_in_serialize_only():
    """Every seeded generator goes through ``serialize.seeded_rng`` or ``child_seed``,
    which check the seed, so no module builds a numpy seed sequence by hand."""
    for path in sorted((ROOT / "src" / "discq").glob("*.py")):
        if path.name != "serialize.py":
            assert not re.search(r"default_rng|SeedSequence", path.read_text()), path.name


@pytest.mark.parametrize("cls, name, value, suffix", [
    pytest.param(*case, id=f"{case[0].__name__}.{case[1]}={case[2]!r}")
    for case in _PYTHON_OUTSIDE])
def test_every_config_field_is_value_checked(cls, name, value, suffix):
    """A field added later gets its value check from its annotation alone."""
    with pytest.raises(ValueError, match=re.escape(f"{name}{suffix} must be")):
        cls(**{**_REQUIRED.get(cls, {}), name: value})


@pytest.mark.parametrize("experiment, key, value, suffix", [
    pytest.param(*case, id=f"{case[0]}:{case[1]}={case[2]!r}") for case in _JSON_OUTSIDE])
def test_every_config_key_is_value_checked(experiment, key, value, suffix):
    raw = value
    for part in reversed(key.split(".")):
        raw = {part: raw}
    with pytest.raises(ValueError, match=re.escape(f"{key}{suffix} must be")):
        ExperimentConfig.from_dict({"experiment": experiment, **raw})
