"""Names that code outside the package looks up in discq still resolve.

The benchmark's tracer (``bench/spans.py``) wraps discq functions at the
names their callers look them up by, the demos import from discq, and the
README shows ``dq`` command lines.  A refactor that drops or moves one of
those names or flags would otherwise fail only in ``bench/selftest.py``, or
when a demo or a README command is run by hand.
"""

import ast
import importlib
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

from discq.cli import build_parser

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
