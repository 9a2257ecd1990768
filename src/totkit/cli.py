"""Command-line front end.

Commands: ``tangles``, ``tot``, ``canonical-tot``, ``clique-tot``,
``circle-tangles``, ``verify``, ``corpus``.  Exit codes: 0 success, 2 usage or
input error or failed (hierarchical) splinter precondition, 3 size bound exceeded,
4 verification failure or failed internal self-check; see ``FAILURES`` for
the JSON diagnostic each failure writes to stderr.  Output is fully
deterministic: identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import corpus as corpus_mod
from .errors import (
    InputError,
    InternalContradictionError,
    SeparationError,
    SizeBoundError,
    SplinterConditionError,
    VerificationError,
)
from .graphio import (
    SCHEMA,
    dump_json,
    graph_payload,
    load_circle,
    load_graph,
    nested_set_payload,
    parse_order_spec,
    read_json,
    step_one_payload,
    tangle_levels_payload,
    verify_artifact,
)
from .pipelines import (
    PipelineResult,
    circle_pipeline,
    circle_tangles,
    clique_pipeline,
    clique_profiles,
    graph_pipeline,
    graph_tangles,
)
from .treedec import decomposition_to_dot, decomposition_to_json
from .universes import DEFAULT_MAX_VERTICES

__all__ = ["main"]


def _emit(args, text: str):
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def run_command(command: str, source, params: dict, step_two: bool = True) -> PipelineResult:
    """The pipeline of ``command`` on its loaded input ``source`` (a graph, or
    a circle's points and inline order graph) with the ``params`` its artifact
    records; only step one, the profiles and their family, for ``tangles`` or
    when not ``step_two``.

    The one place that turns a command and its params into a pipeline call:
    the command handlers run it, and ``graphio.verify_artifact`` runs its step
    one with an artifact's own params.
    """
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


def _graph_artifact(command, params, result):
    return {
        "schema": SCHEMA,
        "command": command,
        "params": params,
        "graph": graph_payload(result.graph),
        **step_one_payload(command, result),
        "nested_set": nested_set_payload(result.universe, result.nested),
        "decomposition": decomposition_to_json(result.decomposition),
        "displays": bool(result.displays_ok),
    }


def _format_graph_result(command, args, params, result):
    if args.format == "dot":
        return decomposition_to_dot(result.decomposition)
    if args.format == "text":
        lines = [
            f"{command}: {len(result.profiles)} maximal tangle(s), "
            f"{len(result.nested)} separation(s) in the nested set",
        ]
        for x in result.decomposition.nodes:
            bag = ",".join(str(v) for v in sorted(result.decomposition.bags[x], key=str))
            lines.append(f"  bag {x}: {{{bag}}}")
        lines.append(f"  displays: {result.displays_ok}")
        return "\n".join(lines) + "\n"
    return dump_json(_graph_artifact(command, params, result))


def cmd_tangles(args) -> int:
    g = load_graph(args.input)
    params = {"max_vertices": args.max_vertices, "k": args.k}
    result = run_command("tangles", g, params)
    doc = {
        "schema": SCHEMA,
        "command": "tangles",
        "params": params,
        "graph": graph_payload(g),
        "levels": tangle_levels_payload(result),
        "maximal_tangles": len(result.profiles),
    }
    _emit(args, dump_json(doc) if args.format != "text" else _tangles_text(result))
    return 0


def _tangles_text(result) -> str:
    lines = []
    for t, level in zip(result.chain.thresholds, result.levels):
        lines.append(f"order <= {t}: {len(level)} tangle(s)")
    lines.append(f"maximal: {len(result.profiles)}")
    return "\n".join(lines) + "\n"


def cmd_graph_tot(args) -> int:
    """``tot``, ``canonical-tot`` and ``clique-tot``."""
    g = load_graph(args.input)
    # "prune_redundant" stays a constant of schema totkit/1: the canonical
    # extraction never returns an element outside the family's sets
    params = {"max_vertices": args.max_vertices, "k": getattr(args, "k", None), "prune_redundant": False}
    result = run_command(args.command, g, params)
    _emit(args, _format_graph_result(args.command, args, params, result))
    return 0


def _parse_sep_spec(spec: str, points):
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


def cmd_circle_tangles(args) -> int:
    points, order_graph = load_circle(args.input)
    if order_graph is not None and args.order_fn is None:
        spec = "cut:inline"
    else:
        spec = args.order_fn or "cycle"
    params = {"max_vertices": args.max_vertices, "m": args.m, "n": args.n, "order_fn": spec}
    result = run_command("circle-tangles", (points, order_graph), params)
    doc = {
        "schema": SCHEMA,
        "command": "circle-tangles",
        "params": params,
        "circle": {
            "points": list(points),
            "order_graph": None if order_graph is None else [list(e) for e in order_graph],
        },
        **step_one_payload("circle-tangles", result),
        "tree_set": nested_set_payload(result.universe, result.nested),
        "efficient": bool(result.displays_ok),
    }
    if args.join:
        universe = result.universe
        circle = result.meta["circle"]
        sides1 = _parse_sep_spec(args.join[0], points)
        sides2 = _parse_sep_spec(args.join[1], points)
        o1 = universe.find(universe.mask_of(sides1[0]), universe.mask_of(sides1[1]))
        o2 = universe.find(universe.mask_of(sides2[0]), universe.mask_of(sides2[1]))
        if o1 is None or o2 is None:
            raise InputError("join operands are not bipartitions of the points")
        j = universe.join(o1, o2)
        a, b = universe.side_labels(j)
        doc["join_check"] = {
            "operands": [list(map(list, sides1)), list(map(list, sides2))],
            "join": [list(a), list(b)],
            "in_circle_subsystem": universe.uid(j) in circle.members,
        }
    _emit(args, dump_json(doc))
    return 0


def cmd_verify(args) -> int:
    diag = verify_artifact(read_json(args.input))
    _emit(args, dump_json({"schema": SCHEMA, "command": "verify", "ok": True, "diagnostic": diag}))
    return 0


def cmd_corpus(args) -> int:
    if args.sample_seven < 0:
        raise InputError(f"--sample-seven must be >= 0, got {args.sample_seven}")
    graphs = corpus_mod.all_connected_graphs(args.max_vertices)
    doc = {
        "schema": SCHEMA,
        "command": "corpus",
        "params": {"max_vertices": args.max_vertices, "sample_seven": args.sample_seven},
        "count": len(graphs),
        "graphs": [graph_payload(g) for g in graphs],
    }
    if args.sample_seven:
        doc["seven_vertex_sample"] = [
            {"counter": c, **graph_payload(g)}
            for c, g in corpus_mod.seven_vertex_sample(args.sample_seven)
        ]
    _emit(args, dump_json(doc))
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as an :class:`InputError` instead of printing usage text."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use and kept for the process."""
    parser = _Parser(
        prog="totkit",
        description="Trees of tangles for small graphs, clique systems, and circle systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, formats=(), max_vertices=DEFAULT_MAX_VERTICES, needs_input=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if needs_input:
            p.add_argument("--input", required=True, help="input file")
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--output", default=None, help="write output here instead of stdout")
        if max_vertices is not None:
            p.add_argument("--max-vertices", type=int, default=max_vertices)
        return p

    p = command("tangles", cmd_tangles, "list all k-tangles of a graph", ["json", "text"])
    p.add_argument("--k", type=int, default=None, help="only levels of order < k")

    tot_formats = ["json", "dot", "text"]
    p = command("tot", cmd_graph_tot, "tree of tangles (non-canonical pipeline)", tot_formats)
    p.add_argument("--k", type=int, default=None)
    p = command("canonical-tot", cmd_graph_tot, "canonical tree of tangles", tot_formats)
    p.add_argument("--k", type=int, default=None)
    command("clique-tot", cmd_graph_tot, "canonical tree over clique-separation profiles", tot_formats)

    p = command("circle-tangles", cmd_circle_tangles, "circle tangles and their canonical tree set")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order-fn", default=None, help="cut:FILE, cycle, or complete")
    p.add_argument(
        "--join",
        nargs=2,
        metavar=("SEP1", "SEP2"),
        help="report whether the join of two separations 'A|B' stays a circle separation",
    )

    command("verify", cmd_verify, "re-check an exported artifact", max_vertices=None)

    # 6 vertices give 143 graphs at once; 7 give 996 and take tens of times as long
    p = command(
        "corpus",
        cmd_corpus,
        "emit all connected graphs up to a vertex bound",
        max_vertices=6,
        needs_input=False,
    )
    p.add_argument(
        "--sample-seven",
        type=int,
        default=0,
        help="also emit this many deterministic 7-vertex stress graphs (counters recorded)",
    )

    return parser


# exception types -> ("error" field of the stderr diagnostic, exit code)
FAILURES = (
    ((InputError, SeparationError), "input", 2),
    (SplinterConditionError, "precondition", 2),
    (SizeBoundError, "size-bound", 3),
    (VerificationError, "verification", 4),
    (InternalContradictionError, "internal", 4),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:
        for types, kind, code in FAILURES:
            if isinstance(exc, types):
                sys.stderr.write(dump_json({"error": kind, "message": str(exc)}))
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
