"""Command-line interface: artifacts, verification, exit codes, determinism."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totkit import cli
from totkit.cli import main
from totkit.errors import (
    HierarchicalConditionError,
    InternalContradictionError,
    SplinterConditionError,
)


TWO_K4_EDGES = "\n".join(
    ["1 2", "1 3", "1 4", "2 3", "2 4", "3 4", "4 5", "5 6", "5 7", "5 8", "6 7", "6 8", "7 8"]
)


@pytest.fixture()
def two_k4_file(tmp_path):
    p = tmp_path / "two_k4.txt"
    p.write_text(TWO_K4_EDGES + "\n")
    return str(p)


@pytest.fixture()
def circle_file(tmp_path):
    p = tmp_path / "circle.json"
    p.write_text(json.dumps({"points": [1, 2, 3, 4]}))
    return str(p)


P3 = {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tot_two_k4(capsys, two_k4_file):
    code, out, _ = run(capsys, "tot", "--input", two_k4_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "totkit/1"
    assert doc["displays"] is True
    bags = [set(n["bag"]) for n in doc["decomposition"]["nodes"]]
    assert {1, 2, 3, 4} in bags and {5, 6, 7, 8} in bags


def test_tot_dot_output(capsys, two_k4_file):
    code, out, _ = run(capsys, "tot", "--input", two_k4_file, "--format", "dot")
    assert code == 0
    assert out.startswith("graph treedec {")


def test_byte_identical_runs(capsys, two_k4_file):
    _, out1, _ = run(capsys, "canonical-tot", "--input", two_k4_file)
    _, out2, _ = run(capsys, "canonical-tot", "--input", two_k4_file)
    assert out1 == out2


def test_artifacts_pass_their_own_verify(capsys, tmp_path, two_k4_file, circle_file):
    for argv in (
        ["tot", "--input", two_k4_file],
        ["canonical-tot", "--input", two_k4_file],
        ["clique-tot", "--input", two_k4_file],
        ["circle-tangles", "--input", circle_file, "--m", "1", "--n", "4"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        artifact = tmp_path / (argv[0] + ".json")
        artifact.write_text(out)
        code, vout, _ = run(capsys, "verify", "--input", str(artifact))
        assert code == 0, (argv, vout)
        assert json.loads(vout)["ok"] is True


def test_verify_rejects_crossing_tamper(capsys, tmp_path, two_k4_file):
    code, out, _ = run(capsys, "tot", "--input", two_k4_file)
    doc = json.loads(out)
    # replace one separation with a real separation crossing the other one
    doc["nested_set"][0] = [[1, 2, 3, 4, 6, 7, 8], [4, 5, 6, 7, 8]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--input", str(bad))
    assert code == 4
    assert "cross" in err


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"schema": "totkit/1", "command": "canonical-tot", "nested_set": []},
        {"schema": "totkit/1", "command": "tot", "graph": {"vertices": [1]}, "nested_set": {}},
        {"schema": "totkit/1", "command": "circle-tangles", "params": {"m": 1, "n": 4}, "tree_set": []},
        {"schema": "totkit/1", "command": "circle-tangles", "circle": {"points": [1, 2, 3, 4]}, "params": {"m": 1}, "tree_set": []},
        {
            "schema": "totkit/1",
            "command": "tot",
            "graph": {"vertices": [1, 2], "edges": [[1, 2]]},
            "nested_set": [],
            "decomposition": {"nodes": [{"id": 0}], "edges": []},
        },
        {"schema": "totkit/1", "command": "canonical-tot", "graph": P3, "nested_set": [[[[1]], [2, 3]]]},
        {"schema": "totkit/1", "command": "canonical-tot", "graph": P3, "nested_set": [[[1, 2], [2, 9]]]},
        {"schema": "totkit/1", "command": "tot", "graph": {"vertices": [1, 2], "edges": [[1, 9]]}, "nested_set": []},
        {
            "schema": "totkit/1",
            "command": "tot",
            "graph": P3,
            "nested_set": [],
            "decomposition": {"nodes": [{"id": 0, "bag": [[1]]}], "edges": []},
        },
        {
            "schema": "totkit/1",
            "command": "tot",
            "graph": P3,
            "nested_set": [],
            "decomposition": {"nodes": [{"id": 0, "bag": [1, 2, 3]}, {"id": 1, "bag": [3]}], "edges": [[0, [1]]]},
        },
        {
            "schema": "totkit/1",
            "command": "circle-tangles",
            "circle": {"points": [1, 2, [3], 4, 5]},
            "params": {"m": 1, "n": 4},
            "tree_set": [],
        },
    ],
    ids=[
        "array",
        "no-graph",
        "nested-set-not-list",
        "no-circle",
        "no-n",
        "node-without-bag",
        "unhashable-side-member",
        "unknown-side-vertex",
        "unknown-graph-vertex",
        "unhashable-bag-member",
        "unhashable-edge-end",
        "unhashable-point",
    ],
)
def test_verify_refuses_malformed_artifact(capsys, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--input", str(bad))
    assert code == 4
    assert json.loads(err)["error"] == "verification"


def test_circle_order_graph_unknown_point_is_exit_2(capsys, tmp_path):
    p = tmp_path / "circle.json"
    p.write_text(json.dumps({"points": [1, 2, 3, 4, 5], "order_graph": [[1, 9, 1]]}))
    code, _, err = run(capsys, "circle-tangles", "--input", str(p), "--m", "1", "--n", "4")
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "input" and "9" in diag["message"]


@pytest.mark.parametrize(
    "command, pipeline, exc, code, kind",
    [
        ("clique-tot", "clique_pipeline", HierarchicalConditionError((0, 0, 1, 2)), 2, "precondition"),
        ("tot", "graph_pipeline", SplinterConditionError((0, 1, 1, 2)), 2, "precondition"),
        ("canonical-tot", "graph_pipeline", InternalContradictionError("1 and 2 cross"), 4, "internal"),
    ],
)
def test_pipeline_errors_map_to_exit_codes(
    capsys, monkeypatch, two_k4_file, command, pipeline, exc, code, kind
):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, pipeline, fail)
    got, out, err = run(capsys, command, "--input", two_k4_file)
    assert got == code
    assert out == ""
    diag = json.loads(err)
    assert diag == {"error": kind, "message": str(exc)}


def test_tangles_command(capsys, two_k4_file):
    code, out, _ = run(capsys, "tangles", "--input", two_k4_file)
    assert code == 0
    doc = json.loads(out)
    counts = [lvl["count"] for lvl in doc["levels"]]
    assert counts[:3] == [1, 3, 2]
    assert doc["maximal_tangles"] == 3


def test_circle_join_check(capsys, circle_file):
    code, out, _ = run(
        capsys,
        "circle-tangles",
        "--input",
        circle_file,
        "--m",
        "1",
        "--n",
        "4",
        "--join",
        "1|2,3,4",
        "3|4,1,2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["join_check"]["join"] == [[1, 3], [2, 4]]
    assert doc["join_check"]["in_circle_subsystem"] is False


def test_circle_parameter_validation(capsys, circle_file):
    code, _, err = run(capsys, "circle-tangles", "--input", circle_file, "--m", "0", "--n", "4")
    assert code == 2
    code, _, err = run(capsys, "circle-tangles", "--input", circle_file, "--m", "1", "--n", "3")
    assert code == 2


def test_missing_input_is_exit_2(capsys):
    code, _, err = run(capsys, "tot", "--input", "/no/such/file")
    assert code == 2


def test_size_bound_is_exit_3(capsys, tmp_path):
    edges = [(i, j) for i in range(1, 12) for j in range(i + 1, 12)]
    big = tmp_path / "k11.txt"
    big.write_text("\n".join(f"{u} {v}" for u, v in edges))
    code, _, err = run(capsys, "tot", "--input", str(big))
    assert code == 3


def test_corpus_command(capsys):
    code, out, _ = run(capsys, "corpus", "--max-vertices", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 10  # 1 + 1 + 2 + 6 connected graphs up to iso
    assert all("vertices" in g for g in doc["graphs"])


def test_corpus_stress_sample_records_counters(capsys):
    code, out, _ = run(capsys, "corpus", "--max-vertices", "2", "--sample-seven", "3")
    assert code == 0
    doc = json.loads(out)
    sample = doc["seven_vertex_sample"]
    assert len(sample) == 3
    assert all("counter" in g and len(g["vertices"]) == 7 for g in sample)


def test_json_graph_input(capsys, tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}))
    code, out, _ = run(capsys, "tangles", "--input", str(p))
    assert code == 0


def test_order_fn_cut_file(capsys, tmp_path, circle_file):
    cut = tmp_path / "weights.txt"
    cut.write_text("1 2 1\n2 3 1\n3 4 1\n4 1 1\n1 3 2\n2 4 2\n")
    code, out, _ = run(
        capsys,
        "circle-tangles",
        "--input",
        circle_file,
        "--m",
        "1",
        "--n",
        "4",
        "--order-fn",
        f"cut:{cut}",
    )
    assert code == 0
    assert json.loads(out)["params"]["order_fn"].startswith("cut:")


def test_k_flag_caps_levels(capsys, two_k4_file):
    code, out, _ = run(capsys, "tangles", "--input", two_k4_file, "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert all(lvl["max_order"] < 2 for lvl in doc["levels"])


@pytest.mark.parametrize(
    "doc",
    [{"points": [1, 2, [3], 4, 5]}, {"points": [1, 2, {"x": 3}, 4, 5]}, {"points": [1, 2, 3, 4, 5], "order_graph": [[1, [2], 1]]}],
    ids=["list-point", "object-point", "list-order-graph-end"],
)
def test_circle_values_refused_as_input(capsys, tmp_path, doc):
    p = tmp_path / "circle.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "circle-tangles", "--input", str(p), "--m", "1", "--n", "4")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


def test_mixed_label_types_sort_without_error(capsys, tmp_path):
    """Side lists of mutually unordered labels (1 and "a") sort by type name first."""
    g = tmp_path / "g.txt"
    g.write_text("1 a\na 2\n2 b\n")
    code, out, _ = run(capsys, "canonical-tot", "--input", str(g))
    assert code == 0
    assert json.loads(out)["nested_set"] == [[[1, 2, "a"], [2, "b"]], [[1, "a"], [2, "a", "b"]]]
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"points": [1, "a", 3, 4, 5]}))
    code, out, _ = run(capsys, "circle-tangles", "--input", str(c), "--m", "1", "--n", "4")
    assert code == 0 and json.loads(out)["efficient"] is True


# ----------------------------------------------------------------------
# fuzz: one leaf of a valid document replaced by an arbitrary JSON value


def _leaf_paths(doc, path=()):
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _leaf_paths(doc[k], path + (k,))
    elif isinstance(doc, list) and doc:
        for i, v in enumerate(doc):
            yield from _leaf_paths(v, path + (i,))
    else:
        yield path


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 9),
    st.floats(-2, 9, allow_nan=False),
    st.sampled_from(["", "a", "1", "cycle", "complete", "cut:inline", "tot", "totkit/1"]),
    st.lists(st.integers(0, 5), max_size=2),
    st.dictionaries(st.sampled_from(["id", "bag"]), st.integers(0, 3), max_size=1),
)


@pytest.fixture(scope="module")
def fuzz_documents(tmp_path_factory):
    """Valid documents to mutate, each with the command that reads it: a graph
    input, a circle input, and the four artifacts made from them."""
    tmp = tmp_path_factory.mktemp("fuzz")
    house = {"vertices": [1, 2, 3, 4, 5], "edges": [[1, 2], [2, 3], [3, 4], [4, 1], [3, 5]]}
    circle = {"points": [1, 2, 3, 4, 5], "order_graph": [[1, 2, 1], [2, 3, 1], [3, 4, 2], [4, 5, 1], [5, 1, 1]]}
    docs = [(house, ["canonical-tot"]), (circle, ["circle-tangles", "--m", "1", "--n", "4"])]
    for doc, command in list(docs):
        path = tmp / f"{command[0]}.json"
        path.write_text(json.dumps(doc))
        makes = [["tot"], ["canonical-tot"], ["clique-tot"]] if doc is house else [command]
        for argv in makes:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([argv[0], "--input", str(path)] + argv[1:]) == 0
            docs.append((json.loads(out.getvalue()), ["verify"]))
    return tmp, docs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(which=st.integers(0, 5), pick=st.integers(0, 10**6), value=_LEAVES)
def test_mutated_documents_fail_cleanly(fuzz_documents, which, pick, value):
    tmp, docs = fuzz_documents
    doc, command = docs[which]
    paths = list(_leaf_paths(doc))
    path = tmp / f"mutated{which}.json"
    path.write_text(json.dumps(_replaced(doc, paths[pick % len(paths)], value)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], "--input", str(path)] + command[1:])
    assert code in (0, 2, 3, 4)
    assert isinstance(json.loads(err.getvalue() if code else out.getvalue()), dict)


def test_verify_and_tangles_stop_after_the_family(capsys, monkeypatch, tmp_path, two_k4_file, circle_file):
    """Neither ``verify`` nor ``tangles`` extracts or builds a decomposition."""
    from totkit import graphio, pipelines

    artifacts = []
    for argv in (
        ["tot", "--input", two_k4_file],
        ["canonical-tot", "--input", two_k4_file],
        ["clique-tot", "--input", two_k4_file],
        ["circle-tangles", "--input", circle_file, "--m", "1", "--n", "4"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        artifacts.append(tmp_path / f"{argv[0]}.json")
        artifacts[-1].write_text(out)

    def refuse(*args, **kwargs):
        raise AssertionError("second pipeline step called")

    extractions = []

    def counting(*args, **kwargs):
        extractions.append(1)
        return extract(*args, **kwargs)

    extract = graphio.extract_canonical
    monkeypatch.setattr(pipelines, "_extract_and_check", refuse)
    monkeypatch.setattr(graphio, "extract_canonical", counting)
    for path in artifacts:
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0 and json.loads(out)["ok"] is True
    # one re-extraction per automorphism, for each of the two canonical artifacts
    from totkit.graphio import load_graph
    from totkit.universes import automorphisms

    assert len(extractions) == 2 * len(automorphisms(load_graph(two_k4_file)))
    code, out, _ = run(capsys, "tangles", "--input", two_k4_file)
    assert code == 0 and json.loads(out)["maximal_tangles"] == 3


def test_verify_refuses_a_family_failing_the_hierarchical_condition(capsys, monkeypatch, tmp_path, two_k4_file):
    from totkit import graphio

    code, out, _ = run(capsys, "canonical-tot", "--input", two_k4_file)
    artifact = tmp_path / "canonical.json"
    artifact.write_text(out)
    monkeypatch.setattr(graphio, "splinters_hierarchically", lambda fam: (False, (0, 1, 2, 3)))
    code, _, err = run(capsys, "verify", "--input", str(artifact))
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "precondition" and "(0, 1, 2, 3)" in diag["message"]


@pytest.mark.parametrize("command", ["tot", "circle-tangles", "verify"])
def test_undecodable_input_is_exit_2(capsys, tmp_path, command):
    p = tmp_path / "binary"
    p.write_bytes(b"\xff\xfe\x00\x81")
    argv = [command, "--input", str(p)] + (["--m", "1", "--n", "4"] if command == "circle-tangles" else [])
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert json.loads(err)["error"] == "input"
