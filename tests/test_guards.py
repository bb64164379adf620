"""Names that code outside the package looks up in discq still resolve.

The benchmark's tracer (``bench/spans.py``) wraps discq functions at the
names their callers look them up by, and the demos import from discq.  A
refactor that drops or moves one of those names would otherwise fail only
in ``bench/selftest.py`` or when a demo is run by hand.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

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
