"""Span tracing around totkit's public functions, from outside the package.

Each wrapped function records one span per call: metric, start, end and the
index of the enclosing span.  Spans stay in memory until the run ends; self
time is a span's duration minus the durations of its direct children.  With
``memory`` on, tracemalloc peaks are folded into every open span, so a parent
keeps the peak of its children although each span start resets the peak.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict

# metric -> {module: [public functions]}.  Helpers that are not listed count
# towards the self time of the nearest listed caller.
LAYERS = {
    "universes.enumerate": {"universes": ["enumerate_graph_separations", "enumerate_circle_separations",
                                          "bipartition_universe", "check_submodular_order", "cut_order_fn"]},
    "universes.chain": {"universes": ["slice_chain", "clique_subsystem"]},
    "universes.automorphisms": {"universes": ["automorphisms", "lift_permutation"]},
    "profiles.search": {"profiles": ["enumerate_chain_profiles", "enumerate_profiles"]},
    "profiles.family": {"profiles": ["maximal_profiles", "build_distinguisher_family"]},
    "splinter.precheck": {"splinter": ["splinters", "splinters_hierarchically"]},
    "splinter.canonical": {"splinter": ["extract_canonical"]},
    "splinter.transversal": {"splinter": ["extract_transversal"]},
    "splinter.map_family": {"splinter": ["map_family"]},
    "treedec.build": {"treedec": ["build_tree_decomposition", "decomposition_to_json"]},
    "treedec.displays": {"treedec": ["displays", "is_valid_tree_decomposition", "induced_uids"]},
    "graphio.verify": {"graphio": ["verify_artifact"]},
    "graphio.io": {"graphio": ["load_graph", "load_circle", "parse_graph_json", "parse_graph_text",
                               "parse_order_spec", "dump_json", "graph_payload", "nested_set_payload",
                               "tangle_levels_payload"]},
    "pipelines.self": {"pipelines": ["graph_pipeline", "clique_pipeline", "circle_pipeline",
                                     "efficiently_distinguishes_all", "complete_cut_order", "cycle_cut_order"]},
    "cli.self": {"cli": ["main"]},
    "corpus.generate": {"corpus": ["all_connected_graphs", "seven_vertex_sample", "complete_graph", "cycle_graph",
                                   "path_graph", "star_graph", "complete_bipartite", "two_cliques",
                                   "petersen_graph", "petersen_minus_vertex"]},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [metric, start, end, parent]
        self.open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.universes: list = []  # universes built while ``capture`` is on
        self.capture = False
        self.memory = False
        self.peaks: dict[str, int] = defaultdict(int)  # metric -> largest peak in bytes
        self._open_peaks: list[list[int]] = []  # [base, peak] per open span

    def install(self, package: str) -> None:
        """Wrap every listed function under each name a totkit module binds it to."""
        modules = [m for name, m in list(sys.modules.items()) if name == package or name.startswith(package + ".")]
        for metric, where in LAYERS.items():
            for mod_name, funcs in where.items():
                home = sys.modules[f"{package}.{mod_name}"]
                for fname in funcs:
                    original = getattr(home, fname)
                    wrapper = self._wrap(metric, fname, original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapper)

    def _wrap(self, metric: str, fname: str, fn):
        spans, open_, counts = self.spans, self.open, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            index = len(spans)
            span = [metric, 0.0, 0.0, parent]
            spans.append(span)
            open_.append(index)
            if self.memory:
                self._mem_enter()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                if self.memory:
                    self._mem_exit(metric)
                open_.pop()
            counts[fname] += 1
            self._observe(fname, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, fname: str, result) -> None:
        """Work counters taken from return values at the same boundaries."""
        c = self.counts
        if fname in ("enumerate_graph_separations", "enumerate_circle_separations"):
            universe = result[0] if isinstance(result, tuple) else result
            c["universe_size"] += len(universe)
            if self.capture:
                self.universes.append(universe)
        elif fname == "enumerate_chain_profiles":
            c["profiles"] += sum(len(level) for level in result)
        elif fname == "maximal_profiles":
            c["maximal_profiles"] += len(result)
        elif fname == "build_distinguisher_family":
            c["family_keys"] += len(result)
            c["family_distinct_sets"] += len(set(result.sets.values()))
        elif fname == "extract_transversal":
            c["transversal_trace"] += len(result.trace)
        elif fname == "build_tree_decomposition":
            c["decomposition_nodes"] += len(result.bags)

    def _mem_enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        for entry in self._open_peaks:
            entry[1] = max(entry[1], peak)
        tracemalloc.reset_peak()
        self._open_peaks.append([current, current])

    def _mem_exit(self, metric: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        for entry in self._open_peaks:
            entry[1] = max(entry[1], peak)
        tracemalloc.reset_peak()
        base, top = self._open_peaks.pop()
        self.peaks[metric] = max(self.peaks[metric], top - base)

    def self_times(self, first: int = 0, weights=None) -> dict[str, float]:
        """Seconds of self time per metric over spans ``first`` onwards.

        ``weights`` holds one factor per top-level span (one per job), applied to
        that span and everything under it.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for i in range(first, len(spans)):
            _, start, end, parent = spans[i]
            if parent >= first:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        root = -1
        for i in range(first, len(spans)):
            metric, start, end, parent = spans[i]
            if parent < first:
                root += 1
            out[metric] += (end - start - child[i]) * (weights[root] if weights else 1.0)
        return out
