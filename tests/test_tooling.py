"""The benchmark's tracer wraps totkit functions by name, from outside the
package; every name it lists must still resolve, or ``bench/run.py --trace 1``
breaks without any other test noticing."""

import ast
import importlib
from pathlib import Path

from totkit.sepsys import Universe

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
