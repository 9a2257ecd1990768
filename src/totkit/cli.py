"""Command-line front end.

Commands: ``tangles``, ``tot``, ``canonical-tot``, ``clique-tot``,
``circle-tangles``, ``verify``, ``corpus``.  Exit codes: 0 success, 2 input
error or failed (hierarchical) splinter precondition, 3 size bound exceeded,
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
    tangle_levels_payload,
    verify_artifact,
)
from .pipelines import circle_pipeline, clique_pipeline, graph_pipeline, graph_tangles
from .treedec import decomposition_to_dot, decomposition_to_json
from .universes import cut_order_fn

__all__ = ["main"]


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(args, **extra) -> dict:
    out = {"max_vertices": args.max_vertices}
    out.update(extra)
    return out


def _decomposition_block(result):
    return decomposition_to_json(result.decomposition) if result.decomposition else None


def _graph_artifact(command, args, result):
    doc = {
        "schema": SCHEMA,
        "command": command,
        "params": _params(
            args,
            k=getattr(args, "k", None),
            prune_redundant=getattr(args, "prune_redundant", False),
        ),
        "graph": graph_payload(result.graph),
        "levels": [
            {"max_order": t, "count": len(l)}
            for t, l in zip(result.chain.thresholds, result.levels)
        ],
        "maximal_tangles": len(result.profiles),
        "nested_set": nested_set_payload(result.universe, result.nested),
        "decomposition": _decomposition_block(result),
        "displays": bool(result.displays_ok),
    }
    return doc


def _format_graph_result(command, args, result):
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
    return dump_json(_graph_artifact(command, args, result))


def cmd_tangles(args) -> int:
    g = load_graph(args.input)
    result = graph_tangles(g, args.max_vertices, args.k)
    doc = {
        "schema": SCHEMA,
        "command": "tangles",
        "params": _params(args, k=args.k),
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
    prune = getattr(args, "prune_redundant", False)
    if args.command == "clique-tot":
        result = clique_pipeline(g, canonical=True, prune_redundant=prune, max_vertices=args.max_vertices)
    else:
        canonical = args.command == "canonical-tot"
        result = graph_pipeline(
            g, canonical=canonical, prune_redundant=prune, max_vertices=args.max_vertices, max_order=args.k
        )
    _emit(args, _format_graph_result(args.command, args, result))
    return 0


def _parse_sep_spec(spec: str, points):
    """Parse 'a,b|c,d' into a side pair over the circle points."""
    try:
        left, right = spec.split("|")
    except ValueError:
        raise InputError(f"separation spec {spec!r} must look like 'A|B'")

    def side(text):
        out = []
        for tok in text.split(","):
            tok = tok.strip()
            if not tok:
                continue
            for p in points:
                if str(p) == tok:
                    out.append(p)
                    break
            else:
                raise InputError(f"unknown point {tok!r} in separation spec")
        return out

    return side(left), side(right)


def cmd_circle_tangles(args) -> int:
    points, order_graph = load_circle(args.input)
    if args.m < 1 or args.n <= 3:
        raise InputError("circle tangles need --m >= 1 and --n > 3")
    if order_graph is not None and args.order_fn is None:
        order_fn, spec = cut_order_fn(points, order_graph), "cut:inline"
    else:
        order_fn, spec = parse_order_spec(args.order_fn or "cycle", points)
    result = circle_pipeline(
        points,
        m=args.m,
        n=args.n,
        order_fn=order_fn,
        prune_redundant=args.prune_redundant,
    )
    doc = {
        "schema": SCHEMA,
        "command": "circle-tangles",
        "params": _params(args, m=args.m, n=args.n, order_fn=spec),
        "circle": {"points": list(points), "order_graph": [list(e) for e in order_graph] if order_graph else None},
        "levels": tangle_levels_payload(result),
        "tangles": sum(len(l) for l in result.levels),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totkit",
        description="Trees of tangles for small graphs, clique systems, and circle systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="input file")
        p.add_argument("--format", choices=["json", "dot", "text"], default="json")
        p.add_argument("--output", default=None, help="write output here instead of stdout")
        p.add_argument("--max-vertices", type=int, default=10)

    p = sub.add_parser("tangles", help="list all k-tangles of a graph")
    common(p)
    p.add_argument("--k", type=int, default=None, help="only levels of order < k")
    p.set_defaults(func=cmd_tangles)

    p = sub.add_parser("tot", help="tree of tangles (non-canonical pipeline)")
    common(p)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_graph_tot)

    p = sub.add_parser("canonical-tot", help="canonical tree of tangles")
    common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--prune-redundant", action="store_true")
    p.set_defaults(func=cmd_graph_tot)

    p = sub.add_parser("clique-tot", help="canonical tree over clique-separation profiles")
    common(p)
    p.add_argument("--prune-redundant", action="store_true")
    p.set_defaults(func=cmd_graph_tot)

    p = sub.add_parser("circle-tangles", help="circle tangles and their canonical tree set")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order-fn", default=None, help="cut:FILE, cycle, or complete")
    p.add_argument("--prune-redundant", action="store_true")
    p.add_argument(
        "--join",
        nargs=2,
        metavar=("SEP1", "SEP2"),
        help="report whether the join of two separations 'A|B' stays a circle separation",
    )
    p.set_defaults(func=cmd_circle_tangles)

    p = sub.add_parser("verify", help="re-check an exported artifact")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="emit all connected graphs up to a vertex bound")
    common(p, needs_input=False)
    p.add_argument(
        "--sample-seven",
        type=int,
        default=0,
        help="also emit this many deterministic 7-vertex stress graphs (counters recorded)",
    )
    p.set_defaults(func=cmd_corpus)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use and kept for the process."""
    return build_parser()


# exception types -> ("error" field of the stderr diagnostic, exit code)
FAILURES = (
    ((InputError, SeparationError), "input", 2),
    (SplinterConditionError, "precondition", 2),
    (SizeBoundError, "size-bound", 3),
    (VerificationError, "verification", 4),
    (InternalContradictionError, "internal", 4),
)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for types, kind, code in FAILURES:
            if isinstance(exc, types):
                sys.stderr.write(dump_json({"error": kind, "message": str(exc)}))
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
