"""Scripts outside the package that no other test runs: the benchmark's
tracer wraps totkit functions by name, from outside the package, so every
name it lists must still resolve, or ``bench/run.py --trace 1`` breaks
without any other test noticing; the benchmark's ``verify`` workload counts
an output as correct only with the checks it lists; and the demos are the
public usage examples, so each must still run.  Also the package's import
graph, which no import error shows while every module is loaded anyway, and
that every name the package exports has a reader outside the tests."""

import argparse
import ast
import contextlib
import importlib
import io
import json
import runpy
import shutil
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

from totkit.cli import build_parser, main
from totkit.sepsys import Universe

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
WORKLOADS = ROOT / "bench" / "workloads.py"
BENCH = sorted((ROOT / "bench").glob("*.py"))
PACKAGE = ROOT / "src" / "totkit"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _bench_constant(path: Path, name: str):
    """The literal value a benchmark script assigns to ``name``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/{path.name} defines no {name}")


def test_traced_functions_resolve():
    layers = _bench_constant(TRACER, "LAYERS")
    assert len(layers) >= 10
    for metric, where in layers.items():
        for module, names in where.items():
            mod = importlib.import_module(f"totkit.{module}")
            for name in names:
                assert callable(getattr(mod, name, None)), (metric, module, name)


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def test_verify_runs_the_checks_the_benchmark_expects(tmp_path):
    """``verify`` of each command's untampered artifact reports the checks
    the ``verify`` workload requires; ``tangles``, which it does not run,
    reports its levels."""
    expected = {**_bench_constant(WORKLOADS, "EXPECTED_CHECKS"), "tangles": ["levels"]}
    graph = tmp_path / "graph.txt"
    graph.write_text("1 2\n1 3\n2 3\n3 4\n4 5\n4 6\n5 6\n")
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({"points": [1, 2, 3, 4, 5]}))
    for command in ("tangles", "tot", "canonical-tot", "clique-tot", "circle-tangles"):
        if command == "circle-tangles":
            out = _cli(command, "--input", str(circle), "--m", "1", "--n", "4")
        else:
            out = _cli(command, "--input", str(graph))
        artifact = tmp_path / f"{command}.json"
        artifact.write_text(out)
        report = json.loads(_cli("verify", "--input", str(artifact)))
        assert report["ok"] is True and report["diagnostic"]["checks"] == expected[command], command


@pytest.mark.parametrize("workload", ["tot-transversal", "clique-circle", "verify"])
def test_traced_benchmark_run_passes(tmp_path, workload):
    """A short traced run of the benchmark ends correct with no failed job.
    The trace also times the ``Universe`` primitives on the universes the
    run enumerates, so a primitive that raises on one of them fails the run,
    and it wraps the profile search by name.  ``tot-transversal`` searches
    with rule (T) only; ``clique-circle`` is the one workload that runs
    rules (P) and (F); ``verify`` is the one that runs ``verify_artifact``,
    ``automorphisms`` and ``lift_permutation``, and rebuilds a family in
    step one.  It runs on a copy of ``src/`` and ``bench/``, as it writes
    its results and work files next to the script."""
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__", "results", ".work"))
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.05", "--trace", "1"]
    run = subprocess.run([sys.executable, "bench/run.py", *argv], cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0


def test_timed_universe_primitives_resolve():
    for name in ("nested", "corner_uids", "meet"):
        assert callable(getattr(Universe, name, None)), name


def _names_read(path: Path) -> set:
    """The names that code in ``path`` reads, as names, attributes or string
    constants, leaving out import statements and ``__all__`` lists."""
    tree = ast.parse(path.read_text())
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ):
            skip.update(map(id, ast.walk(node)))
    names = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):  # the tracer's LAYERS
            names.add(node.value)
    return names


def test_every_exported_name_is_read_outside_the_tests():
    """Each name in the ``__all__`` of a package module is read by code in
    ``src/``, ``bench/`` or ``demos/``; a re-export does not count.  A name
    only tests read belongs in ``tests/oracles.py``, or nowhere."""
    read = set().union(*map(_names_read, [*PACKAGE.glob("*.py"), *BENCH, *DEMOS]))
    unread = [
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in getattr(importlib.import_module(f"totkit.{path.stem}"), "__all__", [])
        if name not in read
    ]
    assert not unread


def test_readme_library_tour_runs():
    """The ``python`` block of README's Library tour runs, and each line
    commented ``# True`` is true."""
    tour = README.read_text().split("## Library tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```\n", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    claims = [line.split("#")[0] for line in block.splitlines() if line.rstrip().endswith("# True")]
    assert claims and all(eval(claim, namespace) is True for claim in claims)


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


def _readme_flag_table() -> dict:
    """Subcommand -> flag cells of the README's per-subcommand flag table."""
    rows = {}
    for line in README.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").replace("\\|", "/").split("|")]
        if len(cells) == 2 and cells[0].startswith("`") and cells[1].startswith("`--"):
            rows[cells[0].strip("`")] = [c.strip().strip("`") for c in cells[1].split(",")]
    return rows


def test_readme_flag_table_matches_the_parser():
    """Each subcommand's flags, in order, with the choices of ``--format``."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {}
    for name, sub in subparsers.choices.items():
        flags[name] = [
            action.option_strings[-1] + (" " + "/".join(action.choices) if action.choices else "")
            for action in sub._actions
            if action.option_strings and action.dest != "help"
        ]
    assert _readme_flag_table() == flags
