"""Command-line interface: artifacts, verification, exit codes, determinism."""

import json

import pytest

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
    ],
    ids=["array", "no-graph", "nested-set-not-list", "no-circle", "no-n", "node-without-bag"],
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
