"""Command-line interface: artifacts, verification, exit codes, determinism."""

import contextlib
import io
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totkit import graphio
from totkit.cli import main
from totkit.errors import (
    HierarchicalConditionError,
    InputError,
    InternalContradictionError,
    SeparationError,
    SplinterConditionError,
)
from totkit.universes import cut_order_fn


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


def _cycle8_with_chords():
    """8-point cycle weighted [1, 2, 1, 1, 1, 2, 1, 2] plus the unit chords i-(i+4)."""
    points = list(range(1, 9))
    weights = [1, 2, 1, 1, 1, 2, 1, 2]
    edges = [[p, points[(i + 1) % 8], w] for i, (p, w) in enumerate(zip(points, weights))]
    return {"points": points, "order_graph": edges + [[i, i + 4, 1] for i in range(1, 5)]}


def _complete7_random():
    """7 points, the complete order graph weighted Random(0).randint(1, 1000) in pair order."""
    import random

    rng = random.Random(0)
    points = list(range(1, 8))
    edges = [[i, j, rng.randint(1, 1000)] for i in points for j in points if i < j]
    return {"points": points, "order_graph": edges}


CYCLE8_WITH_CHORDS_SHA256 = "800a216643fbee37f915feee43061e6de7e5d2d5ecb1feea5a5e9e405b1c132a"


def test_many_key_circle_families_finish_and_verify(capsys, tmp_path):
    """Circle families with many keys at few levels (825 keys in 24 distinct
    sets; 7,154 keys in 7): both runs finish, their artifacts verify, the
    8-point stdout keeps its bytes, and no O(K^2) key-order relation is built."""
    import hashlib
    import time

    from totkit.graphio import parse_order_spec
    from totkit.pipelines import circle_pipeline

    for name, doc in (("cycle8", _cycle8_with_chords()), ("complete7", _complete7_random())):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "circle-tangles", "--input", str(path), "--m", "1", "--n", "4")
        assert code == 0, err
        assert time.perf_counter() - start < 20.0
        if name == "cycle8":
            assert hashlib.sha256(out.encode()).hexdigest() == CYCLE8_WITH_CHORDS_SHA256
        artifact = tmp_path / f"{name}.out.json"
        artifact.write_text(out)
        code, vout, _ = run(capsys, "verify", "--input", str(artifact))
        assert code == 0 and json.loads(vout)["ok"] is True, vout
    doc = _complete7_random()
    points, edges = doc["points"], [tuple(e) for e in doc["order_graph"]]
    family = circle_pipeline(points, 1, 4, parse_order_spec("cut:inline", points, edges)).family
    assert len(family.keys) == 7154
    assert "prec" not in family.__dict__


@pytest.mark.parametrize("value", [False, "x"])
def test_verify_refuses_a_display_flag_that_is_not_true(capsys, tmp_path, two_k4_file, circle_file, value):
    """The flag records the display check that verify recomputes, so an
    artifact that passes every other check but says otherwise is refused."""
    for argv, flag in (
        (["tot", "--input", two_k4_file], "displays"),
        (["canonical-tot", "--input", two_k4_file], "displays"),
        (["clique-tot", "--input", two_k4_file], "displays"),
        (["circle-tangles", "--input", circle_file, "--m", "1", "--n", "4"], "efficient"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc[flag] is True
        doc[flag] = value
        artifact = tmp_path / (argv[0] + ".json")
        artifact.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--input", str(artifact))
        assert code == 4, argv
        assert json.loads(err) == {
            "error": "verification",
            "message": f"artifact field {flag!r} does not match its recomputed value",
        }


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
    "order_graph, message",
    [
        ([[1, 9, 1]], "names unknown point 9"),
        ([[1, 2, 1], [2, 3, 1.5]], "needs an integer weight"),
        ([[1, 2, -1]], "needs a non-negative weight"),
    ],
    ids=["unknown-point", "float-weight", "negative-weight"],
)
def test_malformed_order_graph_is_input_to_the_command_and_a_verify_failure(capsys, tmp_path, order_graph, message):
    circle = {"points": [1, 2, 3, 4, 5], "order_graph": [[i, i % 5 + 1, 1] for i in range(1, 6)]}
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(circle))
    argv = ["--input", str(path), "--m", "1", "--n", "4", "--order-fn", "cut:inline"]
    code, out, _ = run(capsys, "circle-tangles", *argv)
    assert code == 0
    doc = json.loads(out)
    doc["circle"]["order_graph"] = order_graph
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--input", str(bad))
    assert code == 4
    diag = json.loads(err)
    assert diag["error"] == "verification" and message in diag["message"]
    path.write_text(json.dumps(dict(circle, order_graph=order_graph)))
    code, out, err = run(capsys, "circle-tangles", *argv)
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "input" and message in diag["message"]


def test_cut_file_unknown_point_is_exit_2(capsys, tmp_path, circle_file):
    cut = tmp_path / "weights.txt"
    cut.write_text("1 2 1\n1 9 1\n")
    argv = ["circle-tangles", "--input", circle_file, "--m", "1", "--n", "4", "--order-fn", f"cut:{cut}"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "input" and "unknown point 9" in diag["message"]
    with pytest.raises(SeparationError, match="unknown point 9"):
        cut_order_fn([1, 2, 3, 4], [(1, 2, 1), (1, 9, 1)])


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_output_is_exit_2(capsys, tmp_path, two_k4_file, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "tot", "--input", two_k4_file, "--output", str(target))
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "input" and diag["message"].startswith(f"cannot write {target}")


@pytest.mark.parametrize("weight", [0.5, True, float("nan"), float("inf")], ids=["0.5", "true", "NaN", "Infinity"])
def test_circle_order_graph_non_integer_weight_is_exit_2(capsys, tmp_path, weight):
    edges = [[i, i % 5 + 1, 1] for i in range(1, 6)]
    edges[2][2] = weight
    p = tmp_path / "circle.json"
    p.write_text(json.dumps({"points": [1, 2, 3, 4, 5], "order_graph": edges}))
    code, out, err = run(capsys, "circle-tangles", "--input", str(p), "--m", "1", "--n", "4")
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "input" and "integer weight" in diag["message"]


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

    monkeypatch.setattr(graphio, pipeline, fail)
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


def test_circle_join_refuses_an_ambiguous_point(capsys, tmp_path):
    """Points ``1`` and ``"1"`` both read as the token ``1``."""
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"points": [1, "1", 2, 3, 4]}))
    argv = ["circle-tangles", "--input", str(path), "--m", "1", "--n", "4", "--join"]
    code, out, err = run(capsys, *argv, "1,2|3,4", "2|3,4")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input", "message": "ambiguous point '1' in separation spec"}
    code, _, err = run(capsys, *argv, "2|3,4", "5|2")
    assert code == 2
    assert json.loads(err)["message"] == "unknown point '5' in separation spec"


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


def test_graph_with_more_than_5000_separations_is_searched(capsys, tmp_path):
    """Two disjoint K1,4 graphs: 6,385 separations, within the vertex bound."""
    edges = [(c, c + i) for c in (1, 6) for i in range(1, 5)]
    path = tmp_path / "two-stars.txt"
    path.write_text("\n".join(f"{u} {v}" for u, v in edges))
    code, out, err = run(capsys, "tangles", "--input", str(path))
    assert code == 0, err
    assert json.loads(out)["maximal_tangles"] == 8


def test_corpus_command(capsys):
    code, out, _ = run(capsys, "corpus", "--max-vertices", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 10  # 1 + 1 + 2 + 6 connected graphs up to iso
    assert all("vertices" in g for g in doc["graphs"])


def test_corpus_without_flags_emits_the_six_vertex_corpus(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 143
    assert doc["params"]["max_vertices"] == 6


def test_corpus_stress_sample_records_counters(capsys):
    code, out, _ = run(capsys, "corpus", "--max-vertices", "2", "--sample-seven", "3")
    assert code == 0
    doc = json.loads(out)
    sample = doc["seven_vertex_sample"]
    assert len(sample) == 3
    assert all("counter" in g and len(g["vertices"]) == 7 for g in sample)


def test_corpus_refuses_a_negative_sample_count(capsys):
    code, out, err = run(capsys, "corpus", "--max-vertices", "2", "--sample-seven", "-1")
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "input" and "--sample-seven" in diag["message"]


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


@pytest.mark.parametrize("order_graph", [None, [[1, 2, 1]]], ids=["plain", "inline"])
@pytest.mark.parametrize("spec", ["", "bogus"])
def test_unknown_order_fn_is_exit_2(capsys, tmp_path, spec, order_graph):
    """The ``order_fn`` default applies only when the flag is absent: an
    empty spec names no order function, like any other unknown one."""
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"points": [1, 2, 3, 4], "order_graph": order_graph}))
    code, out, err = run(capsys, "circle-tangles", "--input", str(p), "--m", "1", "--n", "4", "--order-fn", spec)
    assert code == 2 and out == ""
    assert json.loads(err)["message"] == f"unknown order-fn spec {spec!r}"


def test_verify_reads_a_cut_file_again_from_the_working_directory(capsys, tmp_path, monkeypatch):
    """A ``cut:FILE`` artifact records the spec, not the weights: ``verify``
    re-reads FILE relative to its own working directory."""
    made, elsewhere = tmp_path / "made", tmp_path / "elsewhere"
    made.mkdir()
    elsewhere.mkdir()
    (made / "c.json").write_text(json.dumps({"points": [1, 2, 3, 4, 5, 6]}))
    (made / "w.txt").write_text("1 2 1\n2 3 1\n3 4 1\n4 5 1\n5 6 1\n6 1 1\n")
    monkeypatch.chdir(made)
    code, out, _ = run(capsys, "circle-tangles", "--input", "c.json", "--m", "1", "--n", "4", "--order-fn", "cut:w.txt")
    assert code == 0
    artifact = str(made / "art.json")
    (made / "art.json").write_text(out)
    assert run(capsys, "verify", "--input", artifact)[0] == 0
    monkeypatch.chdir(elsewhere)
    code, _, err = run(capsys, "verify", "--input", artifact)
    assert code == 2 and json.loads(err)["message"].startswith("cannot read w.txt")
    monkeypatch.chdir(made)
    (made / "w.txt").write_text("1 2 1\n2 3 5\n3 4 1\n4 5 1\n5 6 5\n6 1 1\n")
    code, _, err = run(capsys, "verify", "--input", artifact)
    assert code == 4 and json.loads(err)["error"] == "verification"


def test_duplicate_points_are_input_to_the_command_and_a_verify_failure(capsys, tmp_path, circle_file):
    code, out, _ = run(capsys, "circle-tangles", "--input", circle_file, "--m", "1", "--n", "4")
    doc = json.loads(out)
    doc["circle"]["points"] = [1, 2, 2, 4]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--input", str(bad))
    assert code == 4
    assert json.loads(err) == {"error": "verification", "message": "duplicate points in cyclic order"}
    bad.write_text(json.dumps({"points": [1, 2, 2, 4]}))
    code, _, err = run(capsys, "circle-tangles", "--input", str(bad), "--m", "1", "--n", "4")
    assert code == 2
    assert json.loads(err) == {"error": "input", "message": "duplicate points in cyclic order"}


@pytest.mark.parametrize(
    "twin, bad",
    [
        ('{"vertices":[1,2,3],"edges":[[1,2],[1,3]]}', '{"vertices":[1,2,3],"edges":[[1,2],[true,3]]}'),
        ('{"vertices":[1,2],"edges":[[1,2]]}', '{"vertices":[1,1.0,2],"edges":[[1,2]]}'),
        ('{"vertices":[1,2,3],"edges":[[1,2]]}', '{"vertices":[1,2,NaN],"edges":[[1,2]]}'),
        ('{"points":[1,2,3,4,5],"order_graph":[[1,2,1]]}', '{"points":[1,2,3,4,5],"order_graph":[[true,2,1]]}'),
        ('{"points":[1,2,3,4,5]}', '{"points":[1,2,3,4,Infinity]}'),
    ],
    ids=["true-edge-end", "1-and-1.0", "NaN-vertex", "true-order-graph-end", "Infinity-point"],
)
def test_json_labels_that_merge_or_are_no_json_are_refused(capsys, tmp_path, twin, bad):
    """A boolean equals 0 or 1 and 1.0 equals 1, so such labels would merge
    with others, and NaN or Infinity would be written back as no JSON: each
    is refused at load (exit 2) and in an artifact's input block by ``verify``
    (exit 4), where ``twin`` is a valid input the artifact is made from."""
    circle = '"points"' in bad
    path = tmp_path / "in.json"
    argv = ["circle-tangles", "--m", "1", "--n", "4"] if circle else ["canonical-tot"]
    path.write_text(bad)
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert code == 2 and out == "" and json.loads(err)["error"] == "input"
    path.write_text(twin)
    code, out, _ = run(capsys, *argv, "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    doc["circle" if circle else "graph"] = json.loads(bad)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 4 and out == "" and json.loads(err)["error"] == "verification"


VERTEX_LIST = '"vertices" must be a list'
EDGE_PAIRS = '"edges" must be a list of [u, v] pairs'


@pytest.mark.parametrize(
    "bad, message",
    [
        ('{"vertices":"abc","edges":["ab","bc"]}', VERTEX_LIST),
        ('{"vertices":{"a":1,"b":2,"c":3},"edges":[["a","b"]]}', VERTEX_LIST),
        ('{"vertices":["a","b","c"],"edges":["ab","bc"]}', EDGE_PAIRS),
        ('{"vertices":[1,2,3],"edges":[[1,2,3]]}', EDGE_PAIRS),
        ('{"vertices":[1,2,3],"edges":{"1":2}}', EDGE_PAIRS),
    ],
    ids=["string-vertices", "object-vertices", "string-edges", "three-ends", "object-edges"],
)
def test_graph_json_of_the_wrong_shape_is_refused(capsys, tmp_path, bad, message):
    """A vertex list and edges of two ends each are asked for; a string or an
    object would otherwise be read as its characters or keys.  Refused at
    load (exit 2) and in an artifact's graph block by ``verify`` (exit 4)."""
    path = tmp_path / "in.json"
    path.write_text(bad)
    code, out, err = run(capsys, "clique-tot", "--input", str(path))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input", "message": message}
    path.write_text(json.dumps(P3))
    code, out, _ = run(capsys, "clique-tot", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    doc["graph"] = json.loads(bad)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "verification", "message": f"artifact graph: {message}"}


def test_verify_refuses_decomposition_labels_equal_to_but_not_a_vertex(capsys, tmp_path):
    """``true`` equals the vertex 1, ``2.0`` the vertex 2, and ``true`` the node id 1."""
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(P3))
    code, out, _ = run(capsys, "tot", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    for swap in ({1: True}, {2: 2.0}):
        bad = json.loads(out)
        for nd in bad["decomposition"]["nodes"]:
            nd["bag"] = [swap.get(v, v) for v in nd["bag"]]
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "verify", "--input", str(path))
        assert code == 4 and "bag member that is no vertex" in json.loads(err)["message"]
    doc["decomposition"]["edges"] = [[0, True]]
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 4 and "not a pair of node ids" in json.loads(err)["message"]


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
    # one extraction for each of the two canonical artifacts
    assert len(extractions) == 2
    code, out, _ = run(capsys, "tangles", "--input", two_k4_file)
    assert code == 0 and json.loads(out)["maximal_tangles"] == 3


@pytest.mark.parametrize("command", ["canonical-tot", "clique-tot"])
def test_verify_refuses_a_nested_superset_of_the_canonical_set(capsys, tmp_path, two_k4_file, command):
    """One more separation, nested with every exported one, keeps the set
    nested and displaying, but it is no longer the canonical extraction: the
    identity, the first automorphism checked, refuses it."""
    from totkit.graphio import _find_uid, parse_graph_json
    from totkit.universes import enumerate_graph_separations

    code, out, _ = run(capsys, command, "--input", two_k4_file)
    assert code == 0
    doc = json.loads(out)
    del doc["decomposition"]
    u = enumerate_graph_separations(parse_graph_json(doc["graph"]))
    exported = {_find_uid(u, p) for p in doc["nested_set"]}
    extra = next(
        x for x in u.unoriented_ids() if x not in exported and all(u.nested(x, y) for y in exported)
    )
    doc["nested_set"].append([list(side) for side in u.side_labels(extra)])
    artifact = tmp_path / "superset.json"
    artifact.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(artifact))
    assert code == 4 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "verification"
    assert diag["message"] == "not canonical under vertex permutation (0, 1, 2, 3, 4, 5, 6, 7)"


def test_verify_of_an_empty_canonical_set_checks_the_identity_only(capsys, monkeypatch, tmp_path):
    """Every permutation fixes the empty set, so ``verify`` of the empty
    ``clique-tot`` set of K5 builds no automorphism generator; one appended
    separation is still refused at the identity, before any other generator."""
    from totkit import graphio

    k5 = {"vertices": list(range(5)), "edges": [[i, j] for i in range(5) for j in range(i + 1, 5)]}
    graph = tmp_path / "k5.json"
    graph.write_text(json.dumps(k5))
    code, out, _ = run(capsys, "clique-tot", "--input", str(graph))
    assert code == 0
    doc = json.loads(out)
    assert doc["nested_set"] == []

    def refuse(g):
        yield tuple(range(g.n))
        raise AssertionError("automorphism generators built")

    monkeypatch.setattr(graphio, "automorphism_generators", refuse)
    artifact = tmp_path / "clique.json"
    artifact.write_text(out)
    code, out, _ = run(capsys, "verify", "--input", str(artifact))
    assert code == 0 and json.loads(out)["ok"] is True
    del doc["decomposition"]
    doc["nested_set"].append([[0, 1, 2, 3], [0, 1, 2, 3, 4]])
    artifact.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(artifact))
    assert code == 4 and out == ""
    assert json.loads(err) == {
        "error": "verification",
        "message": "not canonical under vertex permutation (0, 1, 2, 3, 4)",
    }


def test_verify_refuses_a_family_failing_the_hierarchical_condition(capsys, monkeypatch, tmp_path, two_k4_file):
    """The canonical extraction runs before its precheck, so ``verify``
    names a failing precheck's witness only when the extraction fails too:
    here its self-check reports a missed set."""
    from totkit import splinter

    code, out, _ = run(capsys, "canonical-tot", "--input", two_k4_file)
    artifact = tmp_path / "canonical.json"
    artifact.write_text(out)
    monkeypatch.setattr(splinter, "splinters_hierarchically", lambda fam: (False, (0, 1, 2, 3)))
    monkeypatch.setattr(splinter, "_missed_keys", lambda sets, nested: list(sets)[:1])
    code, _, err = run(capsys, "verify", "--input", str(artifact))
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "precondition" and "(0, 1, 2, 3)" in diag["message"]


def test_verify_skips_the_precheck_when_the_extraction_succeeds(capsys, monkeypatch, tmp_path, two_k4_file):
    """A precheck patched to fail is never asked while the extraction
    verifies its own output, so ``verify`` passes."""
    from totkit import splinter

    code, out, _ = run(capsys, "canonical-tot", "--input", two_k4_file)
    artifact = tmp_path / "canonical.json"
    artifact.write_text(out)
    monkeypatch.setattr(splinter, "splinters_hierarchically", lambda fam: (False, (0, 1, 2, 3)))
    code, out, _ = run(capsys, "verify", "--input", str(artifact))
    assert code == 0 and json.loads(out)["ok"] is True


def test_verify_names_a_separation_that_is_no_clique_separation(capsys, tmp_path):
    """In a ``clique-tot`` artifact of the 6-cycle, an appended separation
    whose separator ``{1, 3}`` is no clique is named as such; a pair that is
    no separation at all keeps its message, and a decomposition inducing a
    non-clique separation does not induce the exported set."""
    graph = tmp_path / "c6.json"
    graph.write_text(json.dumps({"vertices": [1, 2, 3, 4, 5, 6], "edges": [[i, i % 6 + 1] for i in range(1, 7)]}))
    code, out, _ = run(capsys, "clique-tot", "--input", str(graph))
    assert code == 0
    doc = json.loads(out)
    artifact = tmp_path / "c6.artifact.json"
    cases = [
        ({"nested_set": [[[1, 3], [1, 2, 3, 4, 5, 6]]], "decomposition": None},
         "([1, 3], [1, 2, 3, 4, 5, 6]) is not a clique separation of the graph"),
        ({"nested_set": [[[1], [2, 3, 4, 5, 6]]], "decomposition": None},
         "([1], [2, 3, 4, 5, 6]) is not a separation of this universe"),
        ({"decomposition": {"nodes": [{"id": 0, "bag": [1, 2, 3, 4]}, {"id": 1, "bag": [1, 4, 5, 6]}],
                            "edges": [[0, 1]]}},
         "decomposition does not induce the exported set"),
    ]
    for change, message in cases:
        tampered = {k: v for k, v in {**doc, **change}.items() if v is not None}
        artifact.write_text(json.dumps(tampered))
        code, out, err = run(capsys, "verify", "--input", str(artifact))
        assert code == 4 and out == ""
        assert json.loads(err) == {"error": "verification", "message": message}


def test_verify_refuses_an_appended_separation_without_a_family(capsys, tmp_path):
    """K3 has one maximal tangle, so no family and the empty canonical set;
    ``verify`` used to skip the canonical check there and pass the tamper."""
    graph = tmp_path / "k3.json"
    graph.write_text(json.dumps({"vertices": [1, 2, 3], "edges": [[1, 2], [1, 3], [2, 3]]}))
    code, out, _ = run(capsys, "canonical-tot", "--input", str(graph))
    assert code == 0
    doc = json.loads(out)
    assert doc["nested_set"] == []
    del doc["decomposition"]
    doc["nested_set"].append([[3], [1, 2, 3]])
    artifact = tmp_path / "k3.artifact.json"
    artifact.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(artifact))
    assert code == 4 and out == ""
    assert json.loads(err) == {
        "error": "verification",
        "message": "not canonical under vertex permutation (0, 1, 2)",
    }


@pytest.mark.parametrize("command", ["tot", "canonical-tot", "clique-tot"])
def test_verify_refuses_a_graph_artifact_without_its_decomposition(capsys, tmp_path, two_k4_file, command):
    """The exported set passes every other check, so only the missing
    (or null) decomposition is left to refuse."""
    code, out, _ = run(capsys, command, "--input", two_k4_file)
    assert code == 0
    doc = json.loads(out)
    artifact = tmp_path / "artifact.json"
    for tampered in ({k: v for k, v in doc.items() if k != "decomposition"}, {**doc, "decomposition": None}):
        artifact.write_text(json.dumps(tampered))
        code, out, err = run(capsys, "verify", "--input", str(artifact))
        assert code == 4 and out == ""
        assert json.loads(err) == {"error": "verification", "message": "artifact field 'decomposition' is missing"}


@pytest.mark.parametrize(
    "pair", [[[1, 2, 3, 4, 1], [4, 5, 6, 7, 8]], [[1, 2, 3, 4], [4, 5, 6, 7, 8, 8]]], ids=["left", "right"]
)
def test_verify_refuses_a_side_list_repeating_a_label(capsys, tmp_path, two_k4_file, pair):
    code, out, _ = run(capsys, "tot", "--input", two_k4_file)
    doc = json.loads(out)
    assert doc["nested_set"][0] == [[1, 2, 3, 4], [4, 5, 6, 7, 8]]
    doc["nested_set"][0] = pair
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(artifact))
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "verification", "message": f"separation {pair!r} repeats a label"}


def test_verify_rebuilds_the_join_check(capsys, tmp_path, two_k4_file):
    """``verify`` rebuilds the ``join_check`` block of ``circle-tangles
    --join`` from its operands with the code the flag runs, and refuses a
    flipped verdict, a replaced join, operands that are no separations and
    a block in any other artifact."""
    circle = tmp_path / "circle6.json"
    circle.write_text(json.dumps({"points": [1, 2, 3, 4, 5, 6]}))
    argv = ["circle-tangles", "--input", str(circle), "--m", "1", "--n", "4", "--join", "1,2|3,4,5,6", "1,2,3|4,5,6"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    block = doc["join_check"]
    assert block == {
        "operands": [[[1, 2], [3, 4, 5, 6]], [[1, 2, 3], [4, 5, 6]]],
        "join": [[1, 2, 3], [4, 5, 6]],
        "in_circle_subsystem": True,
    }
    artifact = tmp_path / "artifact.json"
    artifact.write_text(out)
    code, out, _ = run(capsys, "verify", "--input", str(artifact))
    assert code == 0 and json.loads(out)["ok"] is True
    mismatch = "artifact field 'join_check' does not match its recomputed value"
    _, tot, _ = run(capsys, "tot", "--input", two_k4_file)
    cases = [
        ({**doc, "join_check": {**block, "in_circle_subsystem": False}}, mismatch),
        ({**doc, "join_check": {**block, "join": [[1], [2]]}}, mismatch),
        ({**doc, "join_check": {k: v for k, v in block.items() if k != "join"}}, mismatch),
        ({**doc, "join_check": {**block, "operands": [[[1], [2]], [[1, 2, 3], [4, 5, 6]]]}},
         "join operands are not bipartitions of the points"),
        ({**doc, "join_check": {**block, "operands": [[[1, 9], [2]], 5]}},
         "join operands [[[1, 9], [2]], 5]: cannot unpack non-iterable int object"),
        ({**doc, "join_check": "x"}, "artifact field 'join_check' is no join check of a circle"),
        ({**json.loads(tot), "join_check": block}, "artifact field 'join_check' is no join check of a circle"),
    ]
    for tampered, message in cases:
        artifact.write_text(json.dumps(tampered))
        code, out, err = run(capsys, "verify", "--input", str(artifact))
        assert code == 4 and out == ""
        assert json.loads(err) == {"error": "verification", "message": message}


def test_verify_checks_a_generating_set_not_the_whole_group(capsys, monkeypatch, tmp_path):
    """``star_graph(6)`` has 6! automorphisms; ``verify`` of its
    ``canonical-tot`` artifact lists none of them and lifts the exported set
    under at most ``n(n-1)/2 + 1`` permutations."""
    from totkit import corpus, graphio, universes

    g = corpus.star_graph(6)
    graph = tmp_path / "star6.json"
    graph.write_text(json.dumps({"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}))
    code, out, _ = run(capsys, "canonical-tot", "--input", str(graph))
    assert code == 0 and json.loads(out)["nested_set"]
    artifact = tmp_path / "star6.artifact.json"
    artifact.write_text(out)

    def refuse(*args, **kwargs):
        raise AssertionError("automorphisms listed")

    lifts = []
    lift = graphio.lift_permutation

    def counting(universe, perm, oids=None):
        lifts.append(perm)
        return lift(universe, perm, oids)

    monkeypatch.setattr(universes, "automorphisms", refuse)
    monkeypatch.setattr(graphio, "automorphisms", refuse, raising=False)
    monkeypatch.setattr(graphio, "lift_permutation", counting)
    code, out, _ = run(capsys, "verify", "--input", str(artifact))
    assert code == 0 and json.loads(out)["ok"] is True
    assert lifts[0] == tuple(range(g.n)) and len(lifts) <= g.n * (g.n - 1) // 2 + 1


@pytest.mark.parametrize("command", ["canonical-tot", "clique-tot"])
def test_verify_agrees_with_a_check_of_every_automorphism(capsys, tmp_path, small_corpus, command):
    """On each artifact, and on its tampers with the decomposition dropped
    (the first member dropped; the first separation nested with every member
    appended), ``verify``'s verdict and message are those of the oracle that
    lifts the exported set under every automorphism in lexicographic order,
    once the nested and display checks pass."""
    from oracles import first_moving_automorphism, pairwise_distinguishes_all
    from totkit.graphio import _find_uid
    from totkit.pipelines import clique_pipeline, graph_pipeline

    moved = 0
    for i, g in enumerate(small_corpus):
        graph = tmp_path / f"g{i}.json"
        graph.write_text(json.dumps({"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}))
        code, out, _ = run(capsys, command, "--input", str(graph))
        assert code == 0
        res = clique_pipeline(g) if command == "clique-tot" else graph_pipeline(g, canonical=True)
        u = res.universe
        doc = json.loads(out)
        exported = [_find_uid(u, p) for p in doc["nested_set"]]
        extra = next(x for x in u.unoriented_ids() if x not in exported and all(u.nested(x, y) for y in exported))
        tampers = [doc, {**doc, "nested_set": doc["nested_set"][1:]} if exported else None,
                   {**doc, "nested_set": doc["nested_set"] + [[list(side) for side in u.side_labels(extra)]]}]
        for tampered in filter(None, tampers):
            if tampered is not doc:
                tampered = {k: v for k, v in tampered.items() if k != "decomposition"}
            nested = frozenset(_find_uid(u, p) for p in tampered["nested_set"])
            artifact = tmp_path / "artifact.json"
            artifact.write_text(json.dumps(tampered))
            code, out, err = run(capsys, "verify", "--input", str(artifact))
            if not pairwise_distinguishes_all(nested, res.profiles):
                assert code == 4
                assert json.loads(err)["message"] == "exported set does not efficiently distinguish the tangles"
                continue
            perm = first_moving_automorphism(g, u, nested, res.nested)
            if perm is None:
                assert code == 0 and json.loads(out)["ok"] is True, (g, tampered)
            else:
                moved += 1
                assert code == 4 and json.loads(err) == {
                    "error": "verification",
                    "message": f"not canonical under vertex permutation {perm}",
                }, (g, tampered)
    assert moved >= len(small_corpus)


@pytest.mark.parametrize("command", ["tot", "circle-tangles", "verify"])
def test_undecodable_input_is_exit_2(capsys, tmp_path, command):
    p = tmp_path / "binary"
    p.write_bytes(b"\xff\xfe\x00\x81")
    argv = [command, "--input", str(p)] + (["--m", "1", "--n", "4"] if command == "circle-tangles" else [])
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert json.loads(err)["error"] == "input"


def test_circle_max_vertices_bounds_the_points(capsys, tmp_path):
    p = tmp_path / "circle7.json"
    p.write_text(json.dumps({"points": [1, 2, 3, 4, 5, 6, 7]}))
    argv = ["circle-tangles", "--input", str(p), "--m", "1", "--n", "4"]
    code, out, err = run(capsys, *argv, "--max-vertices", "5")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "size-bound"
    code, out, _ = run(capsys, *argv, "--max-vertices", "7")
    assert code == 0 and json.loads(out)["params"]["max_vertices"] == 7


@pytest.mark.parametrize(
    "argv",
    [[], ["tot"], ["nope"], ["tot", "--input"], ["tangles", "--input", "g.txt", "--k", "x"],
     ["circle-tangles", "--input", "c.json", "--m", "1"],
     ["corpus", "--format", "text"], ["clique-tot", "--input", "g.txt", "--k", "2"]],
    ids=["no-command", "no-input", "unknown-command", "input-without-value", "non-integer-k",
         "no-n", "format-on-corpus", "k-on-clique-tot"],
)
def test_usage_errors_are_exit_2_with_json(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "input" and diag["message"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tot", "--help"])
    assert exc.value.code == 0
    assert "--input" in capsys.readouterr().out


# ----------------------------------------------------------------------
# round trip: every artifact passes verify, which recomputes with its params


def _swap_one_side_member(pairs) -> bool:
    """Replace, in the first side that allows it, a member only that side has
    by one only the other side has; the result is no separation."""
    for pair in pairs:
        a, b = pair
        only_a = [v for v in a if v not in b]
        only_b = [v for v in b if v not in a]
        if only_a and only_b:
            pair[0] = [only_b[0] if v == only_a[0] else v for v in a]
            return True
    return False


# values no command line records: mistyped, or out of range for the command
_BAD_PARAMS = {
    "max_vertices": ["5", 5.0, True, None],
    "k": ["1", 1.5, True, [1]],
    "prune_redundant": [True, "false", 0, None],
    "m": ["1", 1.0, True, 0],
    "n": ["4", 4.5, None, 3],
    "order_fn": ["bogus", 7, "cut:inline"],
}


def _verify_code(capsys, tmp_path, doc) -> int:
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert isinstance(json.loads(err if code else out), dict)
    return code


def _round_trip(capsys, tmp_path, argv, size) -> bool:
    """Whether a swapped side member could be tried on the artifact ``argv`` makes."""
    code, out, err = run(capsys, *argv)
    assert code == 0, (argv, err)
    doc = json.loads(out)
    assert _verify_code(capsys, tmp_path, doc) == 0, argv
    swapped = json.loads(out)
    key = "tree_set" if doc["command"] == "circle-tangles" else "nested_set"
    tried = _swap_one_side_member(swapped[key])
    if tried:
        assert _verify_code(capsys, tmp_path, swapped) == 4, argv
    miscounted = json.loads(out)
    miscounted["levels"][-1]["count"] += 1
    assert _verify_code(capsys, tmp_path, miscounted) == 4, argv
    bad = dict(_BAD_PARAMS, max_vertices=_BAD_PARAMS["max_vertices"] + [size - 1])
    if doc["command"] == "clique-tot":
        bad["k"] = bad["k"] + [1]
    for name in doc["params"]:
        for value in bad.get(name, []):
            tampered = json.loads(out)
            tampered["params"][name] = value
            assert _verify_code(capsys, tmp_path, tampered) == 4, (argv, name, value)
    return tried


@pytest.mark.parametrize("command", ["tot", "canonical-tot", "clique-tot"])
def test_graph_artifacts_round_trip_through_verify(capsys, tmp_path, small_corpus, command):
    """Every k in {none, 1, 2, 3} (``tot`` and ``canonical-tot``) and a vertex
    bound below the default, on the connected graphs with at most 5 vertices."""
    swaps = 0
    for i, g in enumerate(small_corpus):
        path = tmp_path / f"g{i}.json"
        path.write_text(json.dumps({"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}))
        for k in [None, 1, 2, 3] if command != "clique-tot" else [None]:
            argv = [command, "--input", str(path), "--max-vertices", str(g.n)]
            swaps += _round_trip(capsys, tmp_path, argv + ([] if k is None else ["--k", str(k)]), g.n)
    assert swaps >= 20


def test_circle_artifacts_round_trip_through_verify(capsys, tmp_path):
    """Both orders and (m, n) in (1, 4), (1, 5), (2, 4), on 3 to 5 points."""
    swaps = 0
    for npoints in (3, 4, 5):
        path = tmp_path / f"circle{npoints}.json"
        path.write_text(json.dumps({"points": list(range(1, npoints + 1))}))
        for order in ("cycle", "complete"):
            for m, n in ((1, 4), (1, 5), (2, 4)):
                argv = ["circle-tangles", "--input", str(path), "--order-fn", order, "--m", str(m), "--n", str(n),
                        "--max-vertices", str(npoints)]
                swaps += _round_trip(capsys, tmp_path, argv, npoints)
    assert swaps >= 10


def test_verify_recomputes_the_recorded_levels(capsys, tmp_path, two_k4_file):
    """A 5-point ``cycle`` artifact relabelled ``complete`` keeps its tree set
    but not its levels (``[1, 5]``, 6 tangles against ``[1, 6, 5]``, 12), and
    a graph artifact with one level count changed keeps everything else."""
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"points": [1, 2, 3, 4, 5]}))
    code, out, _ = run(capsys, "circle-tangles", "--input", str(path), "--m", "1", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    doc["params"]["order_fn"] = "complete"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 4 and json.loads(err) == {
        "error": "verification",
        "message": "artifact field 'levels' does not match its recomputed value",
    }
    code, out, _ = run(capsys, "canonical-tot", "--input", two_k4_file)
    assert code == 0
    doc = json.loads(out)
    doc["levels"][1]["count"] -= 1
    assert _verify_code(capsys, tmp_path, doc) == 4


def test_empty_inline_order_graph_round_trips_through_verify(capsys, tmp_path):
    """The artifact records an empty ``order_graph`` as empty, not as null,
    so that its recorded ``cut:inline`` still finds the graph."""
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"points": [1, 2, 3, 4, 5], "order_graph": []}))
    code, out, _ = run(capsys, "circle-tangles", "--input", str(path), "--m", "1", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["order_fn"] == "cut:inline" and doc["circle"]["order_graph"] == []
    assert _verify_code(capsys, tmp_path, doc) == 0


def test_found_artifacts_with_k_pass_verify(capsys, tmp_path, two_k4_file):
    """``canonical-tot --k 1`` and ``tot --k 1`` on two K4s joined by an edge:
    ``verify`` used to recompute with the default k and refuse both."""
    for command in ("canonical-tot", "tot"):
        code, out, _ = run(capsys, command, "--input", two_k4_file, "--k", "1")
        assert code == 0
        assert _verify_code(capsys, tmp_path, json.loads(out)) == 0


# ----------------------------------------------------------------------
# fuzz: seeded changes, deletions, duplicates and shuffles of artifact fields


PIPELINE_ARGV = {
    "tangles": [],
    "tot": [],
    "canonical-tot": [],
    "clique-tot": [],
    "circle-tangles": ["--m", "1", "--n", "4"],
}
EXPORTED = {"nested_set", "decomposition", "tree_set"}
_CHANGED = [None, True, False, 0, 1, -1, 99, 1.5, "", "x", [], {}]


@pytest.fixture()
def pipeline_artifacts(capsys, tmp_path, two_k4_file):
    """The artifact of each pipeline command, on two K4s joined by an edge
    or on a 6-point circle, with the input it was made from."""
    circle = tmp_path / "circle6.json"
    circle.write_text(json.dumps({"points": [1, 2, 3, 4, 5, 6]}))
    made = {}
    for command, extra in PIPELINE_ARGV.items():
        path = str(circle) if command == "circle-tangles" else two_k4_file
        code, out, _ = run(capsys, command, "--input", path, *extra)
        assert code == 0
        made[command] = (path, json.loads(out))
    return made


def _nodes(value, path=()):
    """The path of ``value`` and of every value nested in it."""
    yield path
    if isinstance(value, dict):
        for key in value:
            yield from _nodes(value[key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))


def _near(value) -> list:
    """Values close to ``value``: its negation, a neighbour or a longer string."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, -value - 1]
    return [value + "x"] if isinstance(value, str) else []


def _mutated(doc: dict, field: str, op: str, rng):
    """A copy of ``doc`` with ``op`` applied at a place inside ``doc[field]``
    that ``rng`` picks, or None when ``op`` finds no place there."""
    doc = json.loads(json.dumps(doc))

    def at(path):
        node = doc
        for step in path:
            node = node[step]
        return node

    paths = [(field,) + p for p in _nodes(doc[field])]
    if op == "change":
        path = rng.choice(paths)
        old = graphio.dump_json(at(path))
        values = _near(at(path)) + _CHANGED
        at(path[:-1])[path[-1]] = rng.choice([v for v in values if graphio.dump_json(v) != old])
    elif op == "delete":
        path = rng.choice(paths)
        del at(path[:-1])[path[-1]]
    elif op == "duplicate":
        containers = [p for p in paths if isinstance(at(p), (list, dict)) and at(p)]
        if not containers:
            doc[field] = [doc[field], doc[field]]
            return doc
        node = at(rng.choice(containers))
        if isinstance(node, list):
            i = rng.randrange(len(node))
            node.insert(i, json.loads(json.dumps(node[i])))
        else:
            key = rng.choice(sorted(node))
            node[key + "_copy"] = json.loads(json.dumps(node[key]))
    else:  # shuffle a list whose items differ
        lists = [p for p in paths if isinstance(at(p), list) and len({graphio.dump_json(v) for v in at(p)}) > 1]
        if not lists:
            return None
        node = at(rng.choice(lists))
        before = graphio.dump_json(node)
        while graphio.dump_json(node) == before:
            rng.shuffle(node)
    return doc


def _input_of(doc: dict):
    """The input the artifact ``doc`` states, as JSON text, or None when it
    states none that parses."""
    try:
        if doc.get("command") == "circle-tangles":
            return graphio.dump_json(graphio.parse_circle_json(doc.get("circle"), ValueError))
        g = graphio.parse_graph_json(doc.get("graph"))
    except (ValueError, InputError):
        return None
    return graphio.dump_json(graphio.graph_payload(g))


def _keys_reversed(value):
    if isinstance(value, dict):
        return {key: _keys_reversed(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_keys_reversed(item) for item in value]
    return value


def test_verify_refuses_every_mutation_of_a_recorded_field(capsys, tmp_path, pipeline_artifacts):
    """Every mutation exits 0, 2, 3 or 4 with a JSON diagnostic.  One of a
    recorded field (all but the params and the exported set) exits 4 unless
    it states another valid input, which another artifact could be made
    from.  Reordering keys changes no JSON document, so it exits 0."""
    rng = random.Random(1)
    refused = 0
    for command, (_, doc) in pipeline_artifacts.items():
        assert _verify_code(capsys, tmp_path, doc) == 0
        assert _verify_code(capsys, tmp_path, _keys_reversed(doc)) == 0
        for field in sorted(doc):
            for op in ("change", "delete", "duplicate", "shuffle") * 3:
                mutated = _mutated(doc, field, op, rng)
                if mutated is None:
                    continue
                code = _verify_code(capsys, tmp_path, mutated)
                if field not in EXPORTED | {"params"} and _input_of(mutated) in (None, _input_of(doc)):
                    assert code == 4, (command, field, op, mutated.get(field))
                    refused += 1
    assert refused >= 250


def test_the_recorded_fields_are_the_artifact_less_its_exported_set(pipeline_artifacts):
    """The layout of schema totkit/1: what ``verify`` rebuilds, and what it
    validates (the params) or checks semantically (the exported set) instead."""
    for command, (path, made) in pipeline_artifacts.items():
        params = made["params"]
        source = graphio.load_circle(path) if command == "circle-tangles" else graphio.load_graph(path)
        result = graphio.run_command(command, source, params)
        doc = graphio.artifact(command, params, source, result)
        assert graphio.dump_json(doc) == graphio.dump_json(made)
        recorded = graphio.recorded_fields(command, source, result)
        assert graphio.dump_json({key: doc[key] for key in recorded}) == graphio.dump_json(recorded)
        exported = {"tangles": set(), "circle-tangles": {"tree_set"}}.get(command, {"nested_set", "decomposition"})
        expected = {"params"} | exported
        assert doc.keys() - recorded.keys() == expected, command


# ----------------------------------------------------------------------
# fuzz: edge-list text


_TEXT_TOKENS = st.sampled_from(["1", "4", "a", "é", "頂", "-2", "1.5", "#", "# x é", "", "1 2 3"])
_TEXT_OPS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "duplicate", "reverse", "loop", "comment", "insert", "drop"]),
        st.integers(0, 10),
        _TEXT_TOKENS,
    ),
    max_size=5,
)


def _mutated_edge_list(ops) -> str:
    """A path on 1, 2, 3 after ``ops``: token mutations, duplicate and
    reversed edges, self-loops, ``#`` comments, non-ASCII labels."""
    lines = [["1", "2"], ["2", "3"]]
    for op, i, tok in ops:
        line = lines[i % len(lines)] if lines else [tok]
        if op == "replace":
            line[i % len(line)] = tok
        elif op == "duplicate":
            lines.append(list(line))
        elif op == "reverse":
            lines.append(line[::-1])
        elif op == "loop":
            lines.append([tok, tok])
        elif op == "comment":
            line.append("#" + tok)
        elif op == "insert":
            lines.insert(i % (len(lines) + 1), [tok])
        elif lines:
            del lines[i % len(lines)]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ops=_TEXT_OPS, command=st.sampled_from(["tangles", "tot", "canonical-tot", "clique-tot"]))
def test_mutated_edge_lists_fail_cleanly(tmp_path_factory, ops, command):
    path = tmp_path_factory.getbasetemp() / "mutated.txt"
    path.write_text(_mutated_edge_list(ops), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--input", str(path)])
    assert code in (0, 2, 3, 4)
    assert isinstance(json.loads(err.getvalue() if code else out.getvalue()), dict)


# ----------------------------------------------------------------------
# params as the command writes them, side labels of their own type, corpus artifacts

PARAMS_MISMATCH = {"error": "verification", "message": "artifact field 'params' does not match its recomputed value"}


def _verify_err(capsys, tmp_path, doc) -> tuple:
    """The exit code and the parsed stderr diagnostic of ``verify`` on ``doc``."""
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert out == "" or code == 0
    return code, json.loads(err) if code else None


def _made(capsys, *argv) -> dict:
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def _without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize(
    "argv, tamper",
    [
        (["tot"], lambda doc: {**doc, "params": {**doc["params"], "bogus": 5}}),
        (["tot"], lambda doc: _without(doc, "params")),
        (["tot"], lambda doc: {**doc, "params": {}}),
        (["tangles"], lambda doc: {**doc, "params": {**doc["params"], "prune_redundant": False}}),
        (["circle-tangles", "--m", "1", "--n", "4"], lambda doc: {**doc, "params": _without(doc["params"], "order_fn")}),
    ],
    ids=["extra-key", "deleted", "empty", "prune-on-tangles", "inline-without-order-fn"],
)
def test_verify_refuses_params_the_command_does_not_write(capsys, tmp_path, two_k4_file, argv, tamper):
    """Before, a missing entry took a default and an unknown one was never read."""
    path = tmp_path / "inline.json"
    path.write_text(json.dumps({"points": [1, 2, 3, 4, 5], "order_graph": [[i, i % 5 + 1, 1] for i in range(1, 6)]}))
    doc = _made(capsys, argv[0], "--input", str(path) if argv[0] == "circle-tangles" else two_k4_file, *argv[1:])
    assert argv[0] != "circle-tangles" or doc["params"]["order_fn"] == "cut:inline"
    assert _verify_err(capsys, tmp_path, tamper(doc)) == (4, PARAMS_MISMATCH)


@pytest.mark.parametrize("label", [True, 1.0], ids=["true", "float"])
def test_verify_refuses_a_side_label_of_another_type(capsys, tmp_path, two_k4_file, label):
    """``true`` and ``1.0`` equal ``1`` in Python, so the label lookup took
    them for vertex 1 and the artifact passed."""
    doc = _made(capsys, "tot", "--input", two_k4_file)
    assert doc["nested_set"][0] == [[1, 2, 3, 4], [4, 5, 6, 7, 8]]
    pair = doc["nested_set"][0] = [[label, 2, 3, 4], [4, 5, 6, 7, 8]]
    code, diag = _verify_err(capsys, tmp_path, doc)
    assert code == 4 and diag["message"] == (
        f"separation {pair!r}: label {label!r} is of another type than ground-set label 1"
    )


def test_a_join_naming_a_point_twice_is_refused(capsys, tmp_path):
    """Exit 2 at the command line, which recorded ``[1, 1, 2]`` before, and
    exit 4 in ``verify`` of a ``join_check`` whose operand repeats a label."""
    path = tmp_path / "circle6.json"
    path.write_text(json.dumps({"points": [1, 2, 3, 4, 5, 6]}))
    argv = ["circle-tangles", "--input", str(path), "--m", "1", "--n", "4", "--join"]
    repeated = [[1, 1, 2], [3, 4, 5, 6]]
    code, out, err = run(capsys, *argv, "1,1,2|3,4,5,6", "1,2,3|4,5,6")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input", "message": f"separation {repeated!r} repeats a label"}
    doc = _made(capsys, *argv, "1,2|3,4,5,6", "1,2,3|4,5,6")
    doc["join_check"]["operands"][0] = repeated
    assert _verify_err(capsys, tmp_path, doc) == (
        4, {"error": "verification", "message": f"separation {repeated!r} repeats a label"}
    )


def test_corpus_refuses_more_seven_vertex_graphs_than_there_are_at_once(capsys):
    """853 classes of connected graphs on 7 vertices: a sample of 854 could
    never be drawn, and the command ran until killed."""
    start = time.perf_counter()
    code, out, err = run(capsys, "corpus", "--max-vertices", "1", "--sample-seven", "854")
    assert time.perf_counter() - start < 5
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "size-bound" and "853" in json.loads(err)["message"]


@pytest.mark.parametrize("sample", [0, 3])
def test_corpus_artifacts_round_trip_through_verify(capsys, tmp_path, sample):
    for max_vertices in range(1, 6):
        doc = _made(capsys, "corpus", "--max-vertices", str(max_vertices), "--sample-seven", str(sample))
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(doc))
        report = _made(capsys, "verify", "--input", str(path))
        assert report == {"command": "verify", "diagnostic": {"checks": ["graphs"], "command": "corpus"},
                          "ok": True, "schema": "totkit/1"}


def test_verify_rebuilds_a_corpus_artifact(capsys, tmp_path):
    """Changed graphs or counts, and params the command line cannot record,
    exit 4; before, ``verify`` read a corpus artifact's schema alone."""
    doc = _made(capsys, "corpus", "--max-vertices", "4", "--sample-seven", "2")
    mismatch = {"error": "verification", "message": "artifact does not match the corpus its params give"}
    first = doc["seven_vertex_sample"][0]
    for tampered in (
        {**doc, "count": 99},
        {**doc, "graphs": doc["graphs"][:1]},
        {**doc, "seven_vertex_sample": doc["seven_vertex_sample"][1:]},
        {**doc, "seven_vertex_sample": [{**first, "counter": 0}, *doc["seven_vertex_sample"][1:]]},
        {key: value for key, value in doc.items() if key != "seven_vertex_sample"},
        {**doc, "extra": None},
    ):
        assert _verify_err(capsys, tmp_path, tampered) == (4, mismatch)
    for params in ({**doc["params"], "k": None}, {"max_vertices": 4}, None):
        assert _verify_err(capsys, tmp_path, {**doc, "params": params}) == (4, PARAMS_MISMATCH)
    for key, value in (("max_vertices", "x"), ("max_vertices", True), ("max_vertices", 4.0), ("max_vertices", 8),
                       ("sample_seven", -1), ("sample_seven", 1.5), ("sample_seven", 854)):
        code, diag = _verify_err(capsys, tmp_path, {**doc, "params": {**doc["params"], key: value}})
        assert code == 4 and diag["message"] == f"artifact param {key!r} has the invalid value {value!r}"
