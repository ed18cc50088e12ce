"""Source hygiene checks that need no linter: unused imports, private names
nothing reads, and import cost."""

import ast
import importlib
import inspect
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
                if alias.name != "*":  # re-exports the module's __all__
                    imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            # a computed __all__ reads its names, which count as used above
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
    # a star import binds no name of its own; a computed __all__ reads its modules
    tree = ast.parse("from . import a, b\nfrom .a import *\n__all__ = sorted(a.__all__)\n")
    assert _unused_imports(tree) == ["b (line 1)"]


_EXPORTING = ["asymptotics", "errors", "integro", "nystrom", "phase"]


def _init_strings(tree: ast.Module) -> list[str]:
    """Every string constant in tree but its docstring and the value of
    __version__."""
    skip = {id(tree.body[0].value)} if ast.get_docstring(tree) is not None else set()
    skip |= {id(node.value) for node in tree.body if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "__version__" for t in node.targets)}
    return sorted(node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in skip)


def test_each_export_is_named_once():
    # a public name is listed in its module's __all__ alone; the package
    # re-exports those lists, so its __init__ holds no second list of names
    union = set().union(*(importlib.import_module(f"fracspec.{m}").__all__ for m in _EXPORTING))
    assert fracspec.__all__ == sorted(union) + ["__version__"]
    init = Path(fracspec.__file__)
    assert _init_strings(ast.parse(init.read_text())) == ["__version__"]


def test_check_flags_a_name_list_in_init():
    tree = ast.parse('"""Doc."""\nfrom .a import f\n__version__ = "1"\n'
                     '__all__ = ["f", "__version__"]\n')
    assert _init_strings(tree) == ["__version__", "f"]
    assert _init_strings(ast.parse('x = "a"\n__version__ = "1"\n')) == ["a"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Private names defined in trees that no tree reads.

    Covers module-level names, names in class bodies and self._x
    attributes; a load of the bare name or of an attribute of that name
    anywhere in trees counts as a read.
    """
    defined, read = {}, set()
    for mod, tree in trees.items():
        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        scopes = [(tree.body, "")] + [(c.body, c.name + ".") for c in classes]
        for body, owner in scopes:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = getattr(node, "targets", [getattr(node, "target", None)])
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                defined.update({f"{mod}: {owner}{n}": n for n in names if _private(n)})
        for cls in classes:
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"
                        and _private(node.attr)):
                    defined[f"{mod}: {cls.name}.{node.attr}"] = node.attr
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(key for key, name in defined.items() if name not in read)


def test_no_unread_private_names():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert _unread_private_names(trees) == []


def test_check_flags_an_unread_private_name():
    mod = ast.parse(
        "_A = 1\n_B: int = 2\nprint(_A)\n"
        "class C:\n"
        "    def __init__(self):\n        self._x = self._y = 1\n"
        "    def _m(self):\n        return self._x\n"
    )
    unread = ["m.py: C._m", "m.py: C._y"]
    assert _unread_private_names({"m.py": mod}) == unread + ["m.py: _B"]
    other = ast.parse("from m import _B\nprint(_B)\n")  # read in another module
    assert _unread_private_names({"m.py": mod, "n.py": other}) == unread


def _unread_exports(exports, trees: dict[str, ast.Module]) -> list[str]:
    """Names of exports that no tree reads (dunders, such as __version__,
    are metadata and exempt)."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(n for n in exports if n not in read and not n.endswith("__"))


def test_every_export_has_a_package_caller():
    # an export only tests read is a second evaluation path to maintain
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES
             if p.name != "__init__.py"}
    unread = _unread_exports(fracspec.__all__, trees)
    assert unread == []


def test_check_flags_an_unread_export():
    mod = ast.parse("def f():\n    return g()\ndef g():\n    pass\nh = 1\n")
    assert _unread_exports(["f", "g", "h", "__version__"], {"m.py": mod}) == ["f", "h"]


def _package_reads(tree: ast.Module, package: str) -> set[str]:
    """Every name read as an attribute of the module imported as package."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == package}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}


# the benchmark's own scripts that call the library by its public names
_BENCH_CALLERS = ["perfbench/make_reference.py", "perfbench/tests/test_checks.py"]


@pytest.mark.parametrize("name", _BENCH_CALLERS)
def test_benchmark_reads_only_exports(name):
    # a name dropped from the package then fails here, not in the benchmark
    tree = ast.parse((Path(__file__).parents[1] / name).read_text())
    reads = _package_reads(tree, "fracspec")
    assert reads and sorted(reads - set(fracspec.__all__)) == []


def test_check_finds_the_package_reads():
    mod = ast.parse("import fracspec as fs\nimport numpy as np\n"
                    "fs.a(np.b, fs.c.d)\nx = fs\n")
    assert _package_reads(mod, "fracspec") == {"a", "c"}


def _required_spans(tree: ast.Module) -> set[str]:
    """Every span name that a LayerMetric call in tree requires, with the
    module-level string constants it names resolved."""
    consts = {t.id: node.value.value for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Constant) for t in node.targets
              if isinstance(t, ast.Name)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "LayerMetric":
            kw = {k.arg: k.value for k in node.keywords}
            req = node.args[2] if len(node.args) > 2 else kw["requires"]
            names |= {e.value if isinstance(e, ast.Constant) else consts[e.id] for e in req.elts}
    return names


def _untraceable(names) -> list[str]:
    """The names the benchmark's tracer cannot wrap: it wraps the public
    functions that each fracspec submodule defines, and PhaseTable."""
    bad = []
    for name in names:
        short, _, attr = name.partition(".")
        try:
            obj = getattr(importlib.import_module(f"fracspec.{short}"), attr, None)
        except ImportError:
            obj = None
        if not (name == "phase.PhaseTable" or (
                inspect.isfunction(obj) and not attr.startswith("_")
                and obj.__module__ == f"fracspec.{short}")):
            bad.append(name)
    return sorted(bad)


# required by the benchmark but gone from the program (ROADMAP item 1): their
# metrics read 0 and are listed as absent
_STALE_SPANS = ["cli.ThreadPoolExecutor", "phase.h0"]


def test_benchmark_layers_trace_existing_functions():
    # a traced function deleted or made private would silently zero the
    # per-layer metric that requires it; the stale names must still be
    # required, so this exemption goes when the benchmark drops them
    tree = ast.parse((Path(__file__).parents[1] / "perfbench/layers.py").read_text())
    assert _untraceable(_required_spans(tree)) == _STALE_SPANS


def test_check_flags_an_untraceable_span():
    mod = ast.parse(
        'S = "nystrom.discretize_and_solve"\n'
        'M = (LayerMetric("a", "s", (S, "phase.PhaseTable"), f),\n'
        '     LayerMetric("b", "s", requires=("phase._row_blocks", "nystrom.np"), compute=f),\n'
        '     LayerMetric("c", "s", ("nosuch.f", "phase.xc0", "integro.g0"), f))\n'
    )
    required = _required_spans(mod)
    assert required == {"nystrom.discretize_and_solve", "phase.PhaseTable", "phase._row_blocks",
                        "nystrom.np", "nosuch.f", "phase.xc0", "integro.g0"}
    # integro.g0 is phase's function, imported
    assert _untraceable(required) == ["integro.g0", "nosuch.f", "nystrom.np", "phase._row_blocks"]


def _owners(tree: ast.Module) -> dict:
    """id(node) -> name of the innermost function around node (ast.walk
    visits outer functions first, so inner ones overwrite them)."""
    funcs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    return {id(c): f.name for f in funcs for c in ast.walk(f)}


def _stepped_loops(trees: dict[str, ast.Module]) -> list[str]:
    """'module: function' for each three-argument range or np.arange call,
    by the function around it (None at module level)."""
    found = []
    for mod, tree in trees.items():
        owner = _owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and len(node.args) == 3 and (
                (isinstance(node.func, ast.Name) and node.func.id == "range")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "arange"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np")
            ):
                found.append(f"{mod}: {owner.get(id(node))}")
    return sorted(found)


# the row-block generator itself
_STEPPED = ["phase.py: _row_blocks"]


def test_row_sweeps_take_their_edges_from_one_generator():
    # a stepped loop of its own is a second row-block mechanism to keep in step
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert _stepped_loops(trees) == _STEPPED


def test_check_flags_a_stepped_loop():
    mod = ast.parse(
        "import numpy as np\n"
        "def f(n):\n    return [range(0, n, 2), range(n), np.arange(0, n)]\n"
        "def g(n):\n    def h():\n        return np.arange(0, n, 4)\n    return h\n"
        "e = list(range(0, 9, 3))\n"
    )
    assert _stepped_loops({"m.py": mod}) == ["m.py: None", "m.py: f", "m.py: h"]


def _uses_by_function(tree: ast.Module, names: set) -> list[str]:
    """'function: name' for each use of one of names, bare or as an
    attribute, called or not, by the innermost function around it (None at
    module level). Import statements are not uses."""
    owner = _owners(tree)
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "id", getattr(node, "attr", None))  # of a Name or an Attribute
        if name in names:
            found.append(f"{owner.get(id(node))}: {name}")
    return sorted(found)


CLI_TREE = ast.parse((Path(fracspec.__file__).parent / "cli.py").read_text())


def test_the_cli_builds_its_reference_solve_in_one_place():
    # the variant's kernel, the grid and the solver are named in
    # cli._reference alone, so a change of reference route touches one function
    uses = _uses_by_function(CLI_TREE, {"KernelSpec", "build_grid", "discretize_and_solve"})
    assert uses == ["_reference: KernelSpec", "_reference: build_grid",
                    "_reference: discretize_and_solve"]


def test_check_flags_a_call_outside_its_function():
    mod = ast.parse(
        "from m import Spec, solve\n"
        "def _ref(o):\n    return partial(solve, Spec(o))\n"
        "def f():\n    def g():\n        return m.Spec(1)\n    return Spec(2)\n"
        "Spec(3)\nrun = solve\n"
    )
    assert _uses_by_function(mod, {"Spec", "solve"}) == [
        "None: Spec", "None: solve", "_ref: Spec", "_ref: solve", "f: Spec", "g: Spec",
    ]


def _catches_by_function(tree: ast.Module, name: str) -> list[str]:
    """The innermost function around each except clause that names the
    exception class name, alone or in a tuple (None at module level)."""
    owner = _owners(tree)
    return sorted(
        str(owner.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and name in {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
    )


def test_the_cli_turns_library_refusals_into_usage_errors_in_one_place():
    # a run's inputs are checked by the library types that own each rule;
    # cli._usage maps their refusal to exit 2 and main any later one to 3,
    # so no command catches a FracspecError to restate a rule of its own
    assert _catches_by_function(CLI_TREE, "FracspecError") == ["_usage", "main"]


def test_the_cli_reports_output_path_errors_in_one_place():
    # _config_flags reads the --config file; every failure to create or
    # write under --out is mapped to a usage error by _write_outputs alone
    assert _catches_by_function(CLI_TREE, "OSError") == ["_config_flags", "_write_outputs"]


def test_check_flags_a_catch_outside_its_function():
    mod = ast.parse(
        "def _usage():\n    try:\n        pass\n    except E as e:\n        pass\n"
        "def f():\n    try:\n        pass\n    except (OSError, m.E):\n        pass\n"
        "    except ValueError:\n        pass\n"
        "try:\n    pass\nexcept E:\n    pass\nexcept:\n    pass\n"
    )
    assert _catches_by_function(mod, "E") == ["None", "_usage", "f"]


def _formats_outside_the_cli(texts: dict[str, str]) -> list[str]:
    """Modules other than cli.py whose text holds the CSV float format."""
    return sorted(name for name, text in texts.items()
                  if name != "cli.py" and ".12e" in text)


def test_output_formats_live_in_the_cli():
    # every output file is formatted by cli; a .12e elsewhere is a second
    # place that the byte format of an output is kept
    assert _formats_outside_the_cli({p.name: p.read_text() for p in SOURCES}) == []


def test_check_flags_a_format_outside_the_cli():
    texts = {"cli.py": 'f"{v:.12e}"', "m.py": 'f"{v:.12e}"', "n.py": 'f"{v:.12g}"'}
    assert _formats_outside_the_cli(texts) == ["m.py"]


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
    # the spectrum roots are refined in a serial loop, with no thread pool
    assert "concurrent.futures" not in loaded


def test_jobs_load_no_numpy_random(tmp_path):
    # importing numpy.random costs about 15 ms and 5.5 MB of RSS; the
    # Lanczos start vector is plain arithmetic so that no job needs it.
    # numpy.polynomial costs about 4 ms and 0.8 MB; the Gauss-Legendre rule
    # is one recurrence pass and Newton on local Taylor polynomials, not
    # leggauss's O(m^3) eigensolve, and the kernel series is economized by
    # its own Chebyshev identities, not by numpy.polynomial.chebyshev
    code = (
        "import sys\n"
        "from fracspec.cli import main\n"
        "out = sys.argv[1]\n"
        "jobs = [\n"
        "    ['spectrum', '--n-max', '5', '--m', '200', '--out', out],\n"
        "    ['eigenfunction', '--n', '3', '--m', '100', '--exact', '--out', out],\n"
        "    ['validate', '--m', '100'],\n"
        "]\n"
        "print([main(argv) for argv in jobs])\n"
        "print('numpy.random' in sys.modules)\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fracspec.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert out.stdout.splitlines()[-3:] == ["[0, 0, 0]", "False", "False"]
