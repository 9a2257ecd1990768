"""Inputs, schema totkit/1 artifacts, the command map, and ``verify``.

Graphs arrive either as edge-list text (``u v`` per line, ``#`` comments,
isolated vertices as a single token) or as JSON documents
``{"vertices": [...], "edges": [[u, v], ...]}``.  Circle ground sets arrive
as JSON ``{"points": [... in cyclic order ...], "order_graph": [[u, v, w],
...]}``.  JSON labels are numbers or strings: booleans, non-finite numbers
and two labels equal in Python but of different types (``1`` and ``1.0``)
are refused, since a universe could not keep them apart or write them back.

:func:`command_params` is the one place that says which params a command
records, and :func:`run_command` the one that turns them into a pipeline
call.  Every schema totkit/1 document is built here: :func:`artifact` for
the pipeline commands (params, :func:`recorded_fields`, exported set),
:func:`corpus_artifact` for ``corpus`` and :func:`verify_report` for
``verify``.  :func:`verify_artifact` rebuilds an artifact's params and
recorded fields with these same functions, compares them as JSON, and
checks the exported set semantically.
Artifacts all carry ``"schema": "totkit/1"`` and are byte-identical across
runs for identical inputs.
"""

from __future__ import annotations

import json
import math
from itertools import chain

from .corpus import CONNECTED_ON_SEVEN, all_connected_graphs, seven_vertex_sample
from .errors import InputError, SeparationError, VerificationError
from .pipelines import (
    PipelineResult,
    circle_pipeline,
    circle_tangles,
    clique_pipeline,
    clique_profiles,
    graph_pipeline,
    graph_tangles,
)
from .profiles import orientation_to_json
from .sepsys import Universe
from .splinter import efficiently_distinguishes_all, extract_canonical
from .treedec import (
    TreeDecomposition,
    decomposition_to_json,
    induced_uids,
    is_valid_tree_decomposition,
)
from .universes import (
    Graph,
    automorphism_generators,
    complete_cut_order,
    cut_order_fn,
    cycle_cut_order,
    label_key,
    lift_permutation,
)

SCHEMA = "totkit/1"

__all__ = [
    "SCHEMA",
    "parse_graph_text",
    "parse_graph_json",
    "load_graph",
    "load_circle",
    "parse_circle_json",
    "parse_order_spec",
    "parse_sep_spec",
    "command_params",
    "run_command",
    "join_check",
    "recorded_fields",
    "artifact",
    "corpus_artifact",
    "dump_json",
    "nested_set_payload",
    "verify_artifact",
    "verify_report",
]


def _token(tok: str):
    try:
        return int(tok)
    except ValueError:
        return tok


def parse_graph_text(text: str) -> Graph:
    vertices = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [_token(t) for t in line.split()]
        if len(parts) == 1:
            vertices.append(parts[0])
        elif len(parts) == 2:
            vertices.extend(parts)
            edges.append((parts[0], parts[1]))
        else:
            raise InputError(f"line {lineno}: expected 'u v' or a single vertex")
    if not vertices:
        raise InputError("no vertices in edge list")
    try:
        return Graph(vertices, edges)
    except SeparationError as exc:
        raise InputError(str(exc)) from exc


def _check_labels(labels, error: type):
    """Refuse booleans, non-finite numbers, and two labels equal in Python
    but of different types, so of different :func:`label_key`, among the
    hashable ``labels``."""
    kinds = {}
    for v in labels:
        kind = kinds.setdefault(v, v.__class__)
        if kind is not v.__class__:
            raise error(f"label {v!r} equals a label of type {kind.__name__}")
        if kind is bool or (kind is float and not math.isfinite(v)):
            raise error(f"label {v!r} is a boolean or a non-finite number")


def parse_graph_json(doc) -> Graph:
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise InputError('graph JSON needs {"vertices": [...], "edges": [...]}')
    vertices, edges = doc["vertices"], doc.get("edges", [])
    if not isinstance(vertices, list):
        raise InputError('"vertices" must be a list')
    if not (isinstance(edges, list) and all(isinstance(e, list) and len(e) == 2 for e in edges)):
        raise InputError('"edges" must be a list of [u, v] pairs')
    try:
        _check_labels(chain(vertices, *edges), InputError)
        return Graph(vertices, edges)
    except (SeparationError, TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def read_json(path: str, text: str | None = None):
    """The JSON document in file ``path`` (whose ``text`` may be given)."""
    try:
        return json.loads(_read(path) if text is None else text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def load_graph(path: str) -> Graph:
    text = _read(path)
    if text.lstrip().startswith("{"):
        return parse_graph_json(read_json(path, text))
    return parse_graph_text(text)


def load_circle(path: str):
    """Returns (points, order_graph-or-None)."""
    return parse_circle_json(read_json(path), InputError)


def parse_circle_json(doc, error: type):
    """The points of circle document ``doc`` and its validated inline order
    graph, or None; a malformed document raises ``error``."""
    if not isinstance(doc, dict) or "points" not in doc:
        raise error('circle JSON needs {"points": [...], "order_graph": optional}')
    points = doc["points"]
    if not isinstance(points, list):
        raise error('"points" must be a list')
    if any(isinstance(p, (list, dict)) for p in points):
        raise error("circle points must be numbers or strings, not lists or objects")
    if len(set(map(repr, points))) != len(points):
        raise error("duplicate points in cyclic order")
    _check_labels(points, error)
    order_graph = doc.get("order_graph")
    if order_graph is not None:
        order_graph = _order_graph_edges(points, order_graph, error)
    return points, order_graph


def _order_graph_edges(points, order_graph, error: type) -> list:
    """Validated ``(u, v, weight)`` tuples of a circle's inline order graph."""
    if not isinstance(order_graph, list):
        raise error("order_graph must be a list of [u, v, weight]")
    edges = []
    for e in order_graph:
        if not isinstance(e, list) or len(e) != 3:
            raise error("order_graph entries must be [u, v, weight]")
        u, v, w = e
        for end in (u, v):
            # True and 1.0 are in [1, 2], but name no point
            if end not in points or end.__class__ is not points[points.index(end)].__class__:
                raise error(f"order_graph edge {e!r} names unknown point {end!r}")
        # Integer weights keep every order value exact; a float sum can
        # round a submodular cut order into one that is not.
        if not isinstance(w, int) or isinstance(w, bool):
            raise error(f"order_graph edge {e!r} needs an integer weight")
        if w < 0:
            raise error(f"order_graph edge {e!r} needs a non-negative weight")
        edges.append((u, v, w))
    return edges


def _load_weighted_edges(path: str):
    edges = []
    for lineno, raw in enumerate(_read(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"{path} line {lineno}: expected 'u v weight'")
        try:
            w = int(parts[2])
        except ValueError:
            raise InputError(f"{path} line {lineno}: weight must be an integer")
        edges.append((_token(parts[0]), _token(parts[1]), w))
    return edges


def parse_order_spec(spec: str, points, order_graph):
    """The order function that ``spec`` names for the bipartitions of ``points``.

    ``cycle`` and ``complete`` build unit-weight cut functions on the points,
    ``cut:FILE`` loads a weighted edge list, and ``cut:inline`` takes the
    circle's own ``order_graph`` (validated ``(u, v, weight)`` tuples, or None).
    """
    if spec in ("cycle", "complete"):
        return cycle_cut_order(points) if spec == "cycle" else complete_cut_order(points)
    if spec == "cut:inline":
        if order_graph is None:
            raise InputError("order function 'cut:inline' needs the circle's order_graph")
        edges = order_graph
    elif spec.startswith("cut:"):
        edges = _load_weighted_edges(spec[4:])
    else:
        raise InputError(f"unknown order-fn spec {spec!r}")
    try:
        return cut_order_fn(points, edges)
    except SeparationError as exc:
        raise InputError(f"bad cut graph: {exc}") from exc


def command_params(command: str, source, given: dict) -> dict:
    """The params ``command`` records for its loaded input ``source``, read
    from ``given`` (flag names to values; other names are left out), with
    its constants and the ``order_fn`` default: ``cut:inline`` on a circle
    with an inline order graph, else ``cycle``.  The command line passes its
    flags, :func:`verify_artifact` an artifact's own params."""
    if command == "corpus":
        return {"max_vertices": given.get("max_vertices"), "sample_seven": given.get("sample_seven")}
    params = {"max_vertices": given.get("max_vertices")}
    if command == "circle-tangles":
        spec = given.get("order_fn")
        if spec is None:
            spec = "cycle" if source[1] is None else "cut:inline"
        return {**params, "m": given.get("m"), "n": given.get("n"), "order_fn": spec}
    params["k"] = None if command == "clique-tot" else given.get("k")
    if command != "tangles":
        # a constant: the canonical extraction never returns an element outside the family's sets
        params["prune_redundant"] = False
    return params


def run_command(command: str, source, params: dict, step_two: bool = True) -> PipelineResult:
    """The pipeline of ``command`` on its loaded input ``source`` (a graph, or
    a circle's points and inline order graph) with the ``params`` its artifact
    records; only step one, the profiles and their family, for ``tangles`` or
    when not ``step_two``, as :func:`verify_artifact` runs it."""
    mv = params["max_vertices"]
    if command == "circle-tangles":
        points, order_graph = source
        args = (points, params["m"], params["n"], parse_order_spec(params["order_fn"], points, order_graph))
        return circle_pipeline(*args, max_vertices=mv) if step_two else circle_tangles(*args, mv)
    if command == "clique-tot":
        return clique_pipeline(source, max_vertices=mv) if step_two else clique_profiles(source, mv)
    if command == "tangles" or not step_two:
        return graph_tangles(source, mv, params["k"])
    return graph_pipeline(source, command == "canonical-tot", mv, params["k"])


def parse_sep_spec(spec: str, points):
    """Parse 'a,b|c,d' into a side pair over the circle points."""
    try:
        left, right = spec.split("|")
    except ValueError:
        raise InputError(f"separation spec {spec!r} must look like 'A|B'")

    def side(text):
        out = []
        for tok in filter(None, map(str.strip, text.split(","))):
            match = [p for p in points if str(p) == tok]
            if not match:
                raise InputError(f"unknown point {tok!r} in separation spec")
            if len(match) > 1:
                raise InputError(f"ambiguous point {tok!r} in separation spec")
            out += match
        return out

    return side(left), side(right)


def _side_masks(universe: Universe, pair, error: type) -> tuple[int, int]:
    """The masks of ``pair``, two side lists of ground labels of ``universe``;
    any other value, or a side repeating a label, raises ``error``."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, list) for x in pair)):
        raise error(f"separation {pair!r} is not a pair of side lists")
    try:
        ma, mb = map(universe.mask_of, pair)
    except SeparationError as exc:
        raise error(f"separation {pair!r}: {exc}") from exc
    if ma.bit_count() != len(pair[0]) or mb.bit_count() != len(pair[1]):
        raise error(f"separation {pair!r} repeats a label")
    return ma, mb


def join_check(operands, result: PipelineResult, error: type) -> dict:
    """The ``join_check`` block of ``circle-tangles --join``: the two side
    pairs ``operands`` of a circle's points, their join, and whether it stays
    in the circle subsystem of step one ``result``.  Operands that are no
    two separations of its universe, or repeat a label, raise ``error``."""
    universe = result.universe
    try:
        (a1, b1), (a2, b2) = operands
    except (TypeError, ValueError) as exc:
        raise error(f"join operands {operands!r}: {exc}") from exc
    o1 = universe.find(*_side_masks(universe, [a1, b1], error))
    o2 = universe.find(*_side_masks(universe, [a2, b2], error))
    if o1 is None or o2 is None:
        raise error("join operands are not bipartitions of the points")
    j = universe.join(o1, o2)  # of two bipartitions, so a bipartition too
    a, b = universe.side_labels(j)
    return {
        "operands": [[list(a1), list(b1)], [list(a2), list(b2)]],
        "join": [list(a), list(b)],
        "in_circle_subsystem": universe.uid(j) in result.meta["circle"].members,
    }


# ----------------------------------------------------------------------
# artifacts


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dump_json(doc) -> str:
    return _ENCODER.encode(doc) + "\n"


def nested_set_payload(universe: Universe, nested) -> list:
    pairs = [list(map(list, universe.side_labels(uid))) for uid in nested]
    try:
        return sorted(pairs)
    except TypeError:  # labels of mutually unordered types, as 1 and "a"
        return sorted(pairs, key=lambda p: [[label_key(v) for v in side] for side in p])


def graph_payload(g: Graph) -> dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}


def tangle_levels_payload(result) -> list:
    return [
        {"max_order": threshold, "count": len(level), "tangles": [orientation_to_json(p) for p in level]}
        for threshold, level in zip(result.chain.thresholds, result.levels)
    ]


def recorded_fields(command: str, source, result: PipelineResult) -> dict:
    """The fields of ``command``'s schema totkit/1 document that its input
    ``source`` as :func:`run_command` took it and its step one determine:
    all but the params and the exported set, which :func:`verify_artifact`
    validates and checks on their own."""
    doc = {"schema": SCHEMA, "command": command}
    if command == "circle-tangles":
        points, order_graph = source
        edges = None if order_graph is None else [list(e) for e in order_graph]
        doc["circle"] = {"points": list(points), "order_graph": edges}
        doc["levels"] = tangle_levels_payload(result)
        return {**doc, "tangles": sum(map(len, result.levels)), "efficient": bool(result.displays_ok)}
    doc["graph"] = graph_payload(source)
    if command == "tangles":
        return {**doc, "levels": tangle_levels_payload(result), "maximal_tangles": len(result.profiles)}
    doc["levels"] = [{"max_order": t, "count": len(l)} for t, l in zip(result.chain.thresholds, result.levels)]
    return {**doc, "maximal_tangles": len(result.profiles), "displays": bool(result.displays_ok)}


def artifact(command: str, params: dict, source, result: PipelineResult) -> dict:
    """The schema totkit/1 document of a pipeline command: its params, its
    :func:`recorded_fields` and, but for ``tangles``, the exported nested
    set with the decomposition (graphs) or the tree set (circles)."""
    doc = {"params": params, **recorded_fields(command, source, result)}
    if command == "tangles":
        return doc
    nested = nested_set_payload(result.universe, result.nested)
    if command == "circle-tangles":
        return {**doc, "tree_set": nested}
    return {**doc, "nested_set": nested, "decomposition": decomposition_to_json(result.decomposition)}


def corpus_artifact(params: dict) -> dict:
    """The schema totkit/1 document of ``corpus`` with ``params``: the connected
    graphs on at most ``max_vertices`` vertices up to isomorphism and, when
    ``sample_seven`` is positive, that many 7-vertex stress graphs."""
    graphs = all_connected_graphs(params["max_vertices"])
    doc = {"schema": SCHEMA, "command": "corpus", "params": params, "count": len(graphs),
           "graphs": [graph_payload(g) for g in graphs]}
    if params["sample_seven"]:
        sample = seven_vertex_sample(params["sample_seven"])
        doc["seven_vertex_sample"] = [{"counter": c, **graph_payload(g)} for c, g in sample]
    return doc


# ----------------------------------------------------------------------
# verification


def _find_uid(universe: Universe, pair, graph: Graph | None = None) -> int:
    """The uid of the exported side pair ``pair``.  ``graph`` is given when
    the universe holds its clique separations only: a separation of it
    missing from the universe is then named as no clique separation."""
    ma, mb = _side_masks(universe, pair, VerificationError)
    oid = universe.find(ma, mb)
    if oid is None:
        a, b = pair
        if graph is not None and ma | mb == universe.full_mask and not graph.nbhd[ma & ~mb] & mb & ~ma:
            raise VerificationError(f"({a}, {b}) is not a clique separation of the graph")
        raise VerificationError(f"({a}, {b}) is not a separation of this universe")
    return universe.uid(oid)


def _require(doc: dict, key: str, kind: type):
    """``doc[key]``, which must be present and of type ``kind``."""
    if not isinstance(doc.get(key), kind):
        raise VerificationError(f"artifact field {key!r} is missing or not a {kind.__name__}")
    return doc[key]


def _decomposition_of(g: Graph, dd):
    """The tree-decomposition of an artifact's ``decomposition`` block."""
    if not isinstance(dd, dict):
        raise VerificationError("artifact field 'decomposition' is not an object")
    nodes = _require(dd, "nodes", list)
    edges = _require(dd, "edges", list)
    kinds = {v: v.__class__ for v in g.vertices}  # true and 2.0 are no vertices of [1, 2]
    for nd in nodes:
        if not (isinstance(nd, dict) and _is_int(nd.get("id")) and isinstance(nd.get("bag"), list)):
            raise VerificationError(f"decomposition node {nd!r} needs an integer id and a bag list")
        if any(isinstance(v, (list, dict)) or kinds.get(v) is not v.__class__ for v in nd["bag"]):
            raise VerificationError(f"decomposition node {nd!r} has a bag member that is no vertex")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise VerificationError(f"decomposition edge {e!r} is not a pair of node ids")
    return TreeDecomposition(
        graph=g,
        bags={nd["id"]: frozenset(nd["bag"]) for nd in nodes},
        edges=[tuple(e) for e in edges],
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_params(command: str, params: dict, size: int, order_graph) -> None:
    """Refuse a param value the command line cannot record on ``size`` labels and ``order_graph``."""
    valid = {
        "max_vertices": lambda v: _is_int(v) and (v <= 7 if command == "corpus" else v >= size),
        "k": lambda v: v is None or _is_int(v),
        "m": lambda v: _is_int(v) and v >= 1,
        "n": lambda v: _is_int(v) and v > 3,
        # "cut:inline" needs the circle's own order graph; "cut:FILE" is read on the run
        "order_fn": lambda v: v in ("cycle", "complete") or (
            isinstance(v, str) and v.startswith("cut:") and (v != "cut:inline" or order_graph is not None)),
        "sample_seven": lambda v: _is_int(v) and 0 <= v <= CONNECTED_ON_SEVEN,
    }
    for key, value in params.items():
        if key in valid and not valid[key](value):
            raise VerificationError(f"artifact param {key!r} has the invalid value {value!r}")


def verify_artifact(doc: dict) -> dict:
    """Re-check an exported artifact; raises VerificationError with a diagnostic.

    Rebuilds the artifact's params from its own with :func:`command_params`
    and compares them as JSON text, then refuses a value the command line
    cannot record; a ``corpus`` artifact is then rebuilt whole with
    :func:`corpus_artifact` and compared the same way.  Otherwise recomputes
    the profiles and their family with the params, rebuilds its
    :func:`recorded_fields` from them, the display flag ``true``, and
    compares each by name; a circle's ``join_check`` block, when present, is
    rebuilt from its operands by :func:`join_check` and compared too.  A
    ``tangles`` artifact is then done.  For canonical commands, extracts the
    canonical set of the family (empty without one); the extraction checks
    the hierarchical condition only when it fails, to name the witness (exit
    2 at the command line), as a family that passes it always extracts.
    Then checks nestedness of the exported set (a side list repeating a
    label is refused), validity and exact induced set of the decomposition,
    display of the recomputed tangles (which the flag records) and, for
    canonical commands, that the identity and then each member of a
    generating set of the graph's automorphisms (at most ``n(n-1)/2 + 1``
    permutations) maps the exported set to the canonical one.  As the
    extraction commutes with automorphisms, that holds for every
    automorphism exactly when it holds for the generators.  A graph artifact
    without a decomposition is refused after these checks.
    """
    if not isinstance(doc, dict):
        raise VerificationError("artifact is not a JSON object")
    if doc.get("schema") != SCHEMA:
        raise VerificationError(f"unknown schema {doc.get('schema')!r}")
    command = doc.get("command")
    diag: dict = {"command": command, "checks": []}
    if command == "circle-tangles":
        source = parse_circle_json(_require(doc, "circle", dict), VerificationError)
        size, order_graph = len(source[0]), source[1]
    elif command in ("tangles", "tot", "canonical-tot", "clique-tot"):
        try:
            source = g = parse_graph_json(_require(doc, "graph", dict))
        except InputError as exc:
            raise VerificationError(f"artifact graph: {exc}") from exc
        size, order_graph = g.n, None
    elif command == "corpus":
        source, size, order_graph = None, 0, None
    else:
        raise VerificationError(f"unknown command {command!r}")
    given = doc.get("params")
    params = command_params(command, source, given if isinstance(given, dict) else {})
    if dump_json(given) != dump_json(params):
        raise VerificationError("artifact field 'params' does not match its recomputed value")
    _check_params(command, params, size, order_graph)
    if command == "corpus":
        if dump_json(doc) != dump_json(corpus_artifact(params)):
            raise VerificationError("artifact does not match the corpus its params give")
        diag["checks"].append("graphs")
        return diag

    result = run_command(command, source, params, step_two=False)
    result.displays_ok = True  # as the command line records it; checked below
    for key, value in recorded_fields(command, source, result).items():
        # as JSON text, where 1, 1.0 and true differ
        if dump_json(doc.get(key)) != dump_json(value):
            raise VerificationError(f"artifact field {key!r} does not match its recomputed value")
    if "join_check" in doc:  # written by circle-tangles --join alone
        block = doc["join_check"]
        if command != "circle-tangles" or not isinstance(block, dict):
            raise VerificationError("artifact field 'join_check' is no join check of a circle")
        if dump_json(block) != dump_json(join_check(block.get("operands"), result, VerificationError)):
            raise VerificationError("artifact field 'join_check' does not match its recomputed value")
    if command == "tangles":
        diag["checks"].append("levels")
        return diag
    exported = _require(doc, "tree_set" if command == "circle-tangles" else "nested_set", list)
    dd = None if command == "circle-tangles" else doc.get("decomposition")
    td = None if dd is None else _decomposition_of(g, dd)
    canonical = command in ("canonical-tot", "clique-tot")
    if canonical:
        image = extract_canonical(result.family).nested if result.family else frozenset()
    universe = result.universe
    graph = source if command == "clique-tot" else None
    nested = frozenset(_find_uid(universe, p, graph) for p in exported)
    crossing = universe.first_crossing(nested)
    if crossing is not None:
        a, b = crossing
        raise VerificationError(
            f"exported separations {universe.side_labels(a)} and "
            f"{universe.side_labels(b)} cross"
        )
    diag["checks"].append("nested")
    if command == "circle-tangles" and not nested <= result.meta["circle"].members:
        raise VerificationError("exported element is not a circle separation")
    if td is not None:
        ok, reason = is_valid_tree_decomposition(td)
        if not ok:
            raise VerificationError(f"decomposition invalid: {reason}")
        try:
            induced = induced_uids(td, universe)
        except SeparationError:  # an induced separation the universe leaves out
            induced = None
        if induced != nested:
            raise VerificationError("decomposition does not induce the exported set")
        diag["checks"].append("decomposition")
    if not efficiently_distinguishes_all(nested, result.family):
        raise VerificationError("exported set does not efficiently distinguish the tangles")
    diag["checks"].append("display")
    if canonical:
        # The identity comes first; once it passes, nested is the extraction,
        # and the automorphisms fixing it form a subgroup, so checking a
        # generating set checks them all.  Every permutation fixes the empty set.
        for perm in automorphism_generators(g) if nested else [tuple(range(g.n))]:
            mapping = lift_permutation(universe, perm, nested)
            if image != frozenset(universe.uid(mapping[uid]) for uid in nested):
                raise VerificationError(f"not canonical under vertex permutation {perm}")
        diag["checks"].append("canonical")
    if td is None and command != "circle-tangles":
        # last, so that a tampered exported set is named by its own check
        raise VerificationError("artifact field 'decomposition' is missing")
    return diag


def verify_report(doc) -> dict:
    """The schema totkit/1 document ``verify`` writes for an artifact ``doc`` it passes."""
    return {"schema": SCHEMA, "command": "verify", "ok": True, "diagnostic": verify_artifact(doc)}
