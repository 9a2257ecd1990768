"""Command-line front end.

Commands: ``tangles``, ``tot``, ``canonical-tot``, ``clique-tot``,
``circle-tangles``, ``verify``, ``corpus``.  Exit codes: 0 success, 2 usage or
input error or failed (hierarchical) splinter precondition, 3 size bound exceeded,
4 verification failure or failed internal self-check; see ``FAILURES`` for
the JSON diagnostic each failure writes to stderr.  Output is fully
deterministic: identical inputs produce byte-identical artifacts.

This module owns the argument parser, the text and dot formats, file
output and the exit codes; the inputs, the artifacts of schema totkit/1 with
their ``--join`` check, the command-to-pipeline map and ``verify`` are
:mod:`totkit.graphio`'s.
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
    artifact,
    dump_json,
    graph_payload,
    join_check,
    load_circle,
    load_graph,
    parse_sep_spec,
    read_json,
    run_command,
    verify_artifact,
)
from .treedec import decomposition_to_dot
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


def _text(command, result) -> str:
    """The ``--format text`` report of a graph command."""
    if command == "tangles":
        lines = [f"order <= {t}: {len(l)} tangle(s)" for t, l in zip(result.chain.thresholds, result.levels)]
        lines.append(f"maximal: {len(result.profiles)}")
        return "\n".join(lines) + "\n"
    lines = [
        f"{command}: {len(result.profiles)} maximal tangle(s), "
        f"{len(result.nested)} separation(s) in the nested set",
    ]
    for x in result.decomposition.nodes:
        bag = ",".join(str(v) for v in sorted(result.decomposition.bags[x], key=str))
        lines.append(f"  bag {x}: {{{bag}}}")
    lines.append(f"  displays: {result.displays_ok}")
    return "\n".join(lines) + "\n"


def cmd_pipeline(args) -> int:
    """``tangles``, ``tot``, ``canonical-tot``, ``clique-tot`` and ``circle-tangles``."""
    command, fmt = args.command, getattr(args, "format", "json")
    if command == "circle-tangles":
        source = load_circle(args.input)  # points and the inline order graph
        if source[1] is not None and args.order_fn is None:
            spec = "cut:inline"
        else:
            spec = args.order_fn or "cycle"
        params = {"max_vertices": args.max_vertices, "m": args.m, "n": args.n, "order_fn": spec}
    else:
        source = load_graph(args.input)
        params = {"max_vertices": args.max_vertices, "k": getattr(args, "k", None)}
        if command != "tangles":
            # "prune_redundant" stays a constant of schema totkit/1: the canonical
            # extraction never returns an element outside the family's sets
            params["prune_redundant"] = False
    result = run_command(command, source, params)
    if fmt == "text":
        _emit(args, _text(command, result))
    elif fmt == "dot":
        _emit(args, decomposition_to_dot(result.decomposition))
    else:
        doc = artifact(command, params, source, result)
        if getattr(args, "join", None):
            operands = [parse_sep_spec(spec, source[0]) for spec in args.join]
            doc["join_check"] = join_check(operands, result, InputError)
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

    p = command("tangles", cmd_pipeline, "list all k-tangles of a graph", ["json", "text"])
    p.add_argument("--k", type=int, default=None, help="only levels of order < k")

    tot_formats = ["json", "dot", "text"]
    p = command("tot", cmd_pipeline, "tree of tangles (non-canonical pipeline)", tot_formats)
    p.add_argument("--k", type=int, default=None)
    p = command("canonical-tot", cmd_pipeline, "canonical tree of tangles", tot_formats)
    p.add_argument("--k", type=int, default=None)
    command("clique-tot", cmd_pipeline, "canonical tree over clique-separation profiles", tot_formats)

    p = command("circle-tangles", cmd_pipeline, "circle tangles and their canonical tree set")
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

    # 6 vertices give 143 graphs in 0.2 s; 7 give 996 in 3.5 s (2-core x86-64, whole run)
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
