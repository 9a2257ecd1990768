"""The benchmark's workloads: inputs drawn or relabelled from the seed, and their checks.

Each workload makes a list of jobs, one CLI command on one input file each.
``make`` is the timed set-up (it may call totkit: the corpus generators, and
for ``verify`` the commands that make its artifacts); ``prepare`` is untimed
and computes what the checks compare against.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable

import checks
from checks import CheckError, require


@dataclass
class Job:
    name: str
    argv: list
    check: Callable | None = None  # check(rc, stdout, stderr), raises CheckError
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    make: Callable  # (totkit package, seed, work dir, runner) -> jobs; timed as set-up
    prepare: Callable  # (jobs, runner) -> None; untimed, sets every job's check


def relabel(vertices, edges, rng: random.Random):
    """The graph under a seed-drawn permutation of its vertex labels, and the map used."""
    vs = list(vertices)
    img = vs[:]
    rng.shuffle(img)
    perm = dict(zip(vs, img))
    return [perm[v] for v in vs], [(perm[u], perm[v]) for u, v in edges], perm


def write_graph(path: Path, vertices, edges) -> str:
    path.write_text(json.dumps({"vertices": list(vertices), "edges": [list(e) for e in edges]}))
    return str(path)


def artifact(rc, out, err) -> dict:
    require(rc == 0, f"exit code {rc}, stderr {err.strip()!r}")
    return json.loads(out)


# ----------------------------------------------------------------------
# graph jobs with an equivariance check against the unrelabelled graph


def graph_job(work: Path, name: str, command: str, vertices, edges, rng, canonical: bool) -> Job:
    rv, re_, perm = relabel(vertices, edges, rng)
    path = write_graph(work / f"{name}.json", rv, re_)
    job = Job(name, [command, "--input", path])
    job.info = {"vertices": rv, "edges": re_, "perm": perm, "command": command, "canonical": canonical,
                "base": (list(vertices), list(edges))}
    return job


def prepare_graph_jobs(jobs, run) -> None:
    for job in jobs:
        info = job.info
        if not info["canonical"]:
            job.check = lambda rc, out, err, info=info: checks.graph_artifact(
                artifact(rc, out, err), info["vertices"], info["edges"], info["command"])
            continue
        base_path = Path(job.argv[2]).with_suffix(".base.json")
        rc, out, err, _ = run([info["command"], "--input", write_graph(base_path, *info["base"])])
        base = set(map(checks.sep, artifact(rc, out, err)["nested_set"]))
        expect = checks.map_seps(base, info["perm"])
        auts = checks.brute_automorphisms(info["vertices"], info["edges"])

        def check(rc, out, err, info=info, expect=expect, auts=auts):
            got = checks.graph_artifact(artifact(rc, out, err), info["vertices"], info["edges"], info["command"])
            require(got == expect, f"{info['command']} output does not commute with the relabelling")
            checks.check_invariant(got, auts, "automorphism")

        job.check = check


# ----------------------------------------------------------------------
# corpus-canonical

SEVEN_VERTEX_GRAPHS = 120
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112]  # OEIS A001349, n = 1..6


def connected(n: int, edges) -> bool:
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def draw_seven(rng: random.Random, count: int):
    pos = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    out, seen = [], set()
    while len(out) < count:
        mask = rng.getrandbits(len(pos))
        edges = [p for b, p in enumerate(pos) if mask >> b & 1]
        if mask in seen or not connected(7, edges):
            continue
        seen.add(mask)
        out.append((list(range(1, 8)), [(i + 1, j + 1) for i, j in edges]))
    return out


def make_corpus(tk, seed: int, work: Path, run):
    rng = random.Random(seed)
    graphs = tk.corpus.all_connected_graphs(6)
    counts = [sum(1 for g in graphs if g.n == n) for n in range(1, 7)]
    require(counts == CONNECTED_COUNTS, f"connected graphs per order {counts}, expected {CONNECTED_COUNTS}")
    inputs = [(list(g.vertices), g.edges) for g in graphs] + draw_seven(rng, SEVEN_VERTEX_GRAPHS)
    return [graph_job(work, f"g{i}", "canonical-tot", vs, es, rng, True) for i, (vs, es) in enumerate(inputs)]


# ----------------------------------------------------------------------
# clique-circle

# Most of the time goes to the hierarchical precheck of the star and circle families.
# circle-tangles on 8 points with the complete order (5 s, one job) is left out, see README.md.
CLIQUE_GRAPHS = [("star", 5), ("star", 6), ("path", 7), ("path", 8), ("two_cliques", 4), ("cycle", 6), ("cycle", 8)]
CIRCLES = [(5, "cycle", 1, 4), (5, "complete", 1, 4), (6, "cycle", 1, 4), (6, "complete", 1, 4),
           (6, "complete", 1, 5), (7, "cycle", 1, 4), (7, "cycle", 1, 5), (8, "cycle", 2, 4)]


def named_graph(tk, kind: str, size):
    make = {"star": tk.corpus.star_graph, "path": tk.corpus.path_graph, "cycle": tk.corpus.cycle_graph,
            "two_cliques": tk.corpus.two_cliques, "complete": tk.corpus.complete_graph,
            "complete_bipartite": tk.corpus.complete_bipartite}[kind]
    return make(*size) if isinstance(size, tuple) else make(size)


def make_clique_circle(tk, seed: int, work: Path, run):
    rng = random.Random(seed)
    jobs = []
    for kind, size in CLIQUE_GRAPHS:
        g = named_graph(tk, kind, size)
        jobs.append(graph_job(work, f"{kind}{size}", "clique-tot", list(g.vertices), g.edges, rng, True))
    for n, order, m, k in CIRCLES:
        labels = rng.sample(range(1, 100), n)  # the circle's points, in cyclic order
        path = work / f"circle{n}-{order}-{m}-{k}.json"
        path.write_text(json.dumps({"points": labels}))
        tail = ["--order-fn", order, "--m", str(m), "--n", str(k)]
        job = Job(path.stem, ["circle-tangles", "--input", str(path)] + tail)
        job.info = {"points": labels, "perm": {i + 1: p for i, p in enumerate(labels)}}
        jobs.append(job)
    return jobs


def prepare_clique_circle(jobs, run) -> None:
    prepare_graph_jobs([j for j in jobs if "vertices" in j.info], run)
    for job in jobs:
        info = job.info
        if "points" not in info:
            continue
        base_path = Path(job.argv[2]).with_suffix(".base.json")
        base_path.write_text(json.dumps({"points": sorted(info["perm"])}))
        base_argv = ["circle-tangles", "--input", str(base_path)] + job.argv[3:]
        base = checks.circle_artifact(artifact(*run(base_argv)[:3]), sorted(info["perm"]))
        expect = checks.map_seps(base, info["perm"])

        def check(rc, out, err, info=info, expect=expect):
            got = checks.circle_artifact(artifact(rc, out, err), info["points"])
            require(got == expect, "circle tree set does not commute with the relabelling")

        job.check = check


# ----------------------------------------------------------------------
# tot-transversal

TREES_ON_SEVEN = 11  # OEIS A000055


def trees(n: int):
    """Unlabelled trees on n vertices: every tree arises by attaching vertex k to an earlier
    vertex; duplicates are removed by a rooted canonical form taken at the centre."""

    def canon(adj, v, parent):
        return "(" + "".join(sorted(canon(adj, w, v) for w in adj[v] if w != parent)) + ")"

    def centres(adj):
        deg = {v: len(adj[v]) for v in adj}
        layer = [v for v in adj if deg[v] <= 1]
        left = len(adj)
        while left > 2:
            left -= len(layer)
            nxt = []
            for v in layer:
                for w in adj[v]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
            layer = nxt
        return layer

    found = {}
    for parents in product(*[range(k) for k in range(1, n)]):
        adj = {v: [] for v in range(n)}
        for k, p in enumerate(parents, 1):
            adj[k].append(p)
            adj[p].append(k)
        found.setdefault(min(canon(adj, c, None) for c in centres(adj)), parents)
    return [(list(range(1, n + 1)), [(k + 1, p + 1) for k, p in enumerate(ps, 1)]) for ps in found.values()]


def make_tot(tk, seed: int, work: Path, run):
    rng = random.Random(seed)
    ts = trees(7)
    require(len(ts) == TREES_ON_SEVEN, f"{len(ts)} trees on 7 vertices, expected {TREES_ON_SEVEN}")
    return [graph_job(work, f"tree{i}", "tot", vs, es, rng, False) for i, (vs, es) in enumerate(ts)]


# ----------------------------------------------------------------------
# verify

# Graphs with 2 to 120 automorphisms; canonical artifacts are re-extracted once per
# automorphism.  tot artifacts only come from graphs with small families.
VERIFY_GRAPHS = [("clique-tot", "complete", 5), ("clique-tot", "complete_bipartite", (3, 3)),
                 ("clique-tot", "complete_bipartite", (2, 4)), ("clique-tot", "cycle", 7),
                 ("clique-tot", "two_cliques", 3), ("clique-tot", "path", 5),
                 ("canonical-tot", "path", 5), ("canonical-tot", "path", 6), ("canonical-tot", "two_cliques", 3),
                 ("canonical-tot", "star", 3), ("canonical-tot", "cycle", 6), ("canonical-tot", "cycle", 7),
                 ("tot", "path", 5), ("tot", "two_cliques", 3), ("tot", "star", 3)]
VERIFY_CIRCLES = [(5, "cycle"), (5, "complete")]
EXPECTED_CHECKS = {"tot": ["nested", "decomposition", "display"],
                   "canonical-tot": ["nested", "decomposition", "display", "canonical"],
                   "clique-tot": ["nested", "decomposition", "display", "canonical"],
                   "circle-tangles": ["nested", "display"]}
# Malformed artifacts; each should be refused with exit code 2 or 4 and a JSON diagnostic.
MALFORMED = {"no-graph": {"schema": "totkit/1", "command": "canonical-tot", "nested_set": []}, "array": []}


def verify_job(work: Path, name: str, doc, check) -> Job:
    path = work / f"{name}.artifact.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return Job(name, ["verify", "--input", str(path)], check)


def verified(kind: str):
    def check(rc, out, err):
        doc = artifact(rc, out, err)
        require(doc.get("ok") is True and doc.get("command") == "verify", "verify did not report ok")
        require(doc["diagnostic"]["checks"] == EXPECTED_CHECKS[kind], f"verify ran checks {doc['diagnostic']}")
    return check


def refused(codes):
    def check(rc, out, err):
        require(rc in codes, f"exit code {rc}, expected one of {codes}")
        require(isinstance(json.loads(err), dict), "diagnostic on stderr is not a JSON object")
    return check


def drop_separation(doc: dict) -> dict:
    doc["nested_set"] = doc["nested_set"][1:]
    return doc


def empty_bag_vertex(doc: dict) -> dict:
    """Remove a vertex from the only bag that holds it."""
    nodes = doc["decomposition"]["nodes"]
    node, v = next((nd, v) for nd in nodes for v in nd["bag"] if sum(v in other["bag"] for other in nodes) == 1)
    node["bag"].remove(v)
    return doc


def make_verify(tk, seed: int, work: Path, run):
    rng = random.Random(seed)
    jobs = []
    for command, kind, size in VERIFY_GRAPHS:
        g = named_graph(tk, kind, size)
        vs, es, _ = relabel(list(g.vertices), g.edges, rng)
        name = f"{command}-{kind}{'x'.join(map(str, size)) if isinstance(size, tuple) else size}"
        rc, out, err, _ = run([command, "--input", write_graph(work / f"{name}.json", vs, es)])
        job = verify_job(work, name, out, verified(command))
        job.info = {"doc": artifact(rc, out, err), "vertices": vs, "edges": es, "command": command}
        jobs.append(job)
    for n, order in VERIFY_CIRCLES:
        path = work / f"circle{n}-{order}.json"
        points = rng.sample(range(1, 100), n)
        path.write_text(json.dumps({"points": points}))
        rc, out, err, _ = run(["circle-tangles", "--input", str(path), "--order-fn", order, "--m", "1", "--n", "4"])
        job = verify_job(work, path.stem, out, verified("circle-tangles"))
        job.info = {"doc": artifact(rc, out, err), "points": points}
        jobs.append(job)
    base = next(j for j in jobs if j.name == "canonical-tot-path5").info
    for tamper in (drop_separation, empty_bag_vertex):
        doc = tamper(json.loads(json.dumps(base["doc"])))
        job = verify_job(work, f"tampered-{tamper.__name__}", doc, refused((4,)))
        job.info = dict(base, doc=doc, tampered=True)
        jobs.append(job)
    for name, doc in MALFORMED.items():
        jobs.append(verify_job(work, f"malformed-{name}", doc, refused((2, 4))))
    return jobs


def prepare_verify(jobs, run) -> None:
    """The artifacts pass the independent checks, and the tampered ones do not."""
    for job in jobs:
        info = job.info
        if "doc" not in info:
            continue
        try:
            if "points" in info:
                checks.circle_artifact(info["doc"], info["points"])
            else:
                got = checks.graph_artifact(info["doc"], info["vertices"], info["edges"], info["command"])
                if info["command"] != "tot":
                    checks.check_invariant(got, checks.brute_automorphisms(info["vertices"], info["edges"]),
                                           "automorphism")
        except CheckError:
            if info.get("tampered"):
                continue
            raise
        if info.get("tampered"):
            raise CheckError(f"{job.name} passes the independent checks, so it tests nothing")


WORKLOADS = {
    "corpus-canonical": Workload(make_corpus, prepare_graph_jobs),
    "clique-circle": Workload(make_clique_circle, prepare_clique_circle),
    "tot-transversal": Workload(make_tot, prepare_graph_jobs),
    "verify": Workload(make_verify, prepare_verify),
}
