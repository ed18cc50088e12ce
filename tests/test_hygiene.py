"""Source hygiene checks that need no linter: unused imports and import cost."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracspec

SOURCES = sorted(Path(fracspec.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used | exported
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_check_flags_an_unused_import():
    tree = ast.parse("import os\nfrom x import y, z as w\n__all__ = ['y']\n")
    assert _unused_imports(tree) == ["os (line 1)", "w (line 2)"]


def test_import_loads_no_scipy():
    # the package needs numpy alone; importing any scipy subpackage loads
    # scipy._lib._array_api, which pulls in numpy.f2py, numpy.testing,
    # numpy.ma and numpy.random, about 0.3 s and 25 MB
    code = "import sys, fracspec, fracspec.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(fracspec.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    loaded = set(out.stdout.split())
    assert "fracspec.cli" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
