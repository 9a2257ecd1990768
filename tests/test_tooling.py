"""Scripts outside the package that no other test runs: the benchmark's
tracer wraps totkit functions by name, from outside the package, so every
name it lists must still resolve, or ``bench/run.py --trace 1`` breaks
without any other test noticing; and the demos are the public usage
examples, so each must still run.  Also the package's import graph, which
no import error shows while every module is loaded anyway."""

import ast
import importlib
import runpy
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

from totkit.sepsys import Universe

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
PACKAGE = ROOT / "src" / "totkit"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _layers() -> dict:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no LAYERS")


def test_traced_functions_resolve():
    layers = _layers()
    assert len(layers) >= 10
    for metric, where in layers.items():
        for module, names in where.items():
            mod = importlib.import_module(f"totkit.{module}")
            for name in names:
                assert callable(getattr(mod, name, None)), (metric, module, name)


def test_timed_universe_primitives_resolve():
    for name in ("nested", "corner_uids", "meet"):
        assert callable(getattr(Universe, name, None)), name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def _totkit_imports(nodes, module: str) -> set:
    """The other totkit modules that the import statements among ``nodes`` import."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "totkit"):
            path = (node.module or "").removeprefix("totkit").lstrip(".")
            out.update([path.split(".")[0]] if path else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("totkit."))
    out.discard(module)
    return out


def test_package_imports_are_module_level_and_acyclic():
    """No function imports a totkit module, and the module-level imports
    inside the package form a DAG, so no module reaches up at call time."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = _totkit_imports(ast.walk(func), path.stem)
                assert not inner, f"{path.stem}.{func.name} imports {sorted(inner)}"
        graph[path.stem] = _totkit_imports(ast.walk(tree), path.stem)
    assert {"cli", "graphio", "pipelines", "splinter", "treedec"} <= set(graph)
    list(TopologicalSorter(graph).static_order())  # raises CycleError naming a cycle


def _universe_private_names() -> set:
    """The private attributes and methods that ``sepsys.Universe`` defines."""
    tree = ast.parse((PACKAGE / "sepsys.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Universe")
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self":
            names.add(node.attr)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_no_module_but_sepsys_reads_a_private_universe_field():
    """A universe is read through its public lookups, so its tables can
    change shape inside ``sepsys`` alone.  Names are matched without types:
    another class reusing one of these private names would need another."""
    private = _universe_private_names()
    assert {"_pairs", "_inv", "_order"} <= private
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "sepsys.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant):  # getattr(u, "_pairs")
                name = node.value
            else:
                continue
            assert name not in private, f"{path.stem} line {node.lineno} reads Universe.{name}"
