"""Scripts outside the package that no other test runs: the benchmark's
tracer wraps totkit functions by name, from outside the package, so every
name it lists must still resolve, or ``bench/run.py --trace 1`` breaks
without any other test noticing; and the demos are the public usage
examples, so each must still run."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

from totkit.sepsys import Universe

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
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
