"""Output checks that do not use totkit.

Separations arrive as JSON side lists ``[A, B]``.  Every check raises
``CheckError`` with a reason; ``self_test`` feeds each check a deliberately
wrong output so that none of them passes vacuously.
"""

from __future__ import annotations

from itertools import permutations


class CheckError(Exception):
    pass


def require(cond, reason: str) -> None:
    if not cond:
        raise CheckError(reason)


def sep(pair) -> frozenset:
    """An unoriented separation as the set of its two sides."""
    a, b = pair
    return frozenset((frozenset(a), frozenset(b)))


def sides(s: frozenset) -> tuple[frozenset, frozenset]:
    a, *rest = s
    return a, (rest[0] if rest else a)


def nested(r: frozenset, s: frozenset) -> bool:
    """Some orientations satisfy (A, B) <= (C, D): A within C and D within B."""
    a, b = sides(r)
    c, d = sides(s)
    return any(x <= y and w <= z for x, z in ((a, b), (b, a)) for y, w in ((c, d), (d, c)))


def check_nested(seps) -> None:
    seps = list(seps)
    for i, r in enumerate(seps):
        for s in seps[i + 1 :]:
            require(nested(r, s), f"exported separations {sorted(map(sorted, r))} and {sorted(map(sorted, s))} cross")


def check_decomposition(vertices, edges, dec: dict, exported: set) -> None:
    """A valid tree-decomposition whose tree edges induce exactly ``exported``."""
    bags = {nd["id"]: frozenset(nd["bag"]) for nd in dec["nodes"]}
    tree = [tuple(e) for e in dec["edges"]]
    require(bags, "decomposition has no nodes")
    require(len(tree) == len(bags) - 1, "decomposition edge count is not nodes - 1")
    adj = {x: set() for x in bags}
    for x, y in tree:
        require(x in bags and y in bags, "decomposition edge has an unknown end")
        adj[x].add(y)
        adj[y].add(x)

    def component(start, allowed, cut=None):
        seen, stack = {start}, [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in allowed and y not in seen and {x, y} != cut:
                    seen.add(y)
                    stack.append(y)
        return seen

    require(component(next(iter(bags)), bags) == set(bags), "decomposition tree is not connected")
    require(frozenset().union(*bags.values()) == frozenset(vertices), "bags do not cover the vertices")
    for u, v in edges:
        require(any(u in b and v in b for b in bags.values()), f"edge {u}-{v} lies in no bag")
    for v in vertices:
        holding = {x for x, b in bags.items() if v in b}
        require(component(next(iter(holding)), holding) == holding, f"bags holding {v} are not connected")
    induced = set()
    for x, y in tree:
        left = component(x, bags, cut={x, y})
        a = frozenset().union(*(bags[z] for z in left))
        b = frozenset().union(*(bags[z] for z in bags if z not in left))
        induced.add(frozenset((a, b)))
    require(induced == exported, "decomposition does not induce exactly the exported separations")


def brute_automorphisms(vertices, edges) -> list[dict]:
    """Every vertex permutation that maps the edge set onto itself."""
    vs = list(vertices)
    es = {frozenset(e) for e in edges}
    deg = {v: sum(v in e for e in es) for v in vs}
    out = []
    for img in permutations(vs):
        p = dict(zip(vs, img))
        if all(deg[v] == deg[p[v]] for v in vs) and {frozenset((p[u], p[v])) for u, v in es} == es:
            out.append(p)
    return out


def map_seps(seps, perm: dict) -> set:
    return {frozenset(frozenset(perm[v] for v in side) for side in s) for s in seps}


def check_invariant(seps: set, perms, what: str) -> None:
    for p in perms:
        require(map_seps(seps, p) == seps, f"output is not invariant under the {what} {p}")


def check_interval(s: frozenset, points) -> None:
    """Both sides are cyclic intervals of ``points``."""
    n = len(points)
    for side in sides(s):
        inside = [p in side for p in points]
        changes = sum(inside[i] != inside[(i + 1) % n] for i in range(n))
        require(changes <= 2, f"side {sorted(side)} is not a cyclic interval")


def dihedral(points) -> list[dict]:
    n = len(points)
    out = []
    for shift in range(n):
        for flip in (1, -1):
            out.append({points[i]: points[(flip * i + shift) % n] for i in range(n)})
    return out


def graph_artifact(doc, vertices, edges, command: str) -> set:
    """Checks shared by every graph artifact; returns the exported set."""
    require(isinstance(doc, dict) and doc.get("schema") == "totkit/1", "artifact schema is not totkit/1")
    require(doc.get("command") == command, f"artifact command is {doc.get('command')!r}")
    g = doc["graph"]
    require(sorted(g["vertices"]) == sorted(vertices), "artifact graph has other vertices")
    require({frozenset(e) for e in g["edges"]} == {frozenset(e) for e in edges}, "artifact graph has other edges")
    require(doc.get("displays") is True, "artifact does not claim to display its tangles")
    exported = [sep(p) for p in doc["nested_set"]]
    require(len(set(exported)) == len(exported), "exported separations repeat")
    check_nested(exported)
    check_decomposition(vertices, edges, doc["decomposition"], set(exported))
    return set(exported)


def circle_artifact(doc, points) -> set:
    require(isinstance(doc, dict) and doc.get("schema") == "totkit/1", "artifact schema is not totkit/1")
    require(doc.get("command") == "circle-tangles", "artifact is not a circle-tangles artifact")
    require(doc["circle"]["points"] == list(points), "artifact circle has other points")
    require(doc.get("efficient") is True, "tree set does not claim to be efficient")
    exported = [sep(p) for p in doc["tree_set"]]
    require(len(set(exported)) == len(exported), "exported separations repeat")
    check_nested(exported)
    for s in exported:
        check_interval(s, points)
    out = set(exported)
    check_invariant(out, dihedral(points), "dihedral map")
    return out


def self_test() -> None:
    """Each check must reject one deliberately wrong output."""

    def rejects(fn, *args) -> None:
        try:
            fn(*args)
        except CheckError:
            return
        raise CheckError(f"{fn.__name__} accepted a wrong output")

    crossing = [sep([[1, 2, 3], [1, 3, 4]]), sep([[1, 2, 4], [2, 3, 4]])]  # on the 4-cycle 1-2-3-4
    rejects(check_nested, crossing)
    check_nested([sep([[1, 2], [2, 3, 4]]), sep([[1, 2, 3], [3, 4]])])
    path = ([1, 2, 3], [(1, 2), (2, 3)])
    good = {"nodes": [{"id": 0, "bag": [1, 2]}, {"id": 1, "bag": [2, 3]}], "edges": [[0, 1]]}
    exported = {sep([[1, 2], [2, 3]])}
    check_decomposition(*path, good, exported)
    rejects(check_decomposition, *path, {"nodes": [{"id": 0, "bag": [1, 2]}, {"id": 1, "bag": [3]}], "edges": [[0, 1]]}, exported)
    rejects(check_decomposition, *path, good, set())
    rejects(check_decomposition, *path, {"nodes": good["nodes"], "edges": []}, exported)
    auts = brute_automorphisms(*path)
    require(len(auts) == 2, "the path on three vertices has two automorphisms")
    rejects(check_invariant, {sep([[1, 2], [2, 3]]), sep([[1], [1, 2, 3]])}, auts, "automorphism")
    rejects(check_interval, sep([[1, 3], [2, 4]]), [1, 2, 3, 4])
    rejects(check_invariant, {sep([[1, 2], [3, 4]])}, dihedral([1, 2, 3, 4]), "dihedral map")
    doc = {"schema": "totkit/1", "command": "tot", "graph": {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]},
           "displays": False, "nested_set": [[[1, 2], [2, 3]]], "decomposition": good}
    rejects(graph_artifact, doc, *path, "tot")
