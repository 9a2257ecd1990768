"""Closed-loop benchmark of the totkit command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one thread runs whole rounds of CLI jobs through
``totkit.cli.main`` in-process, each job starting when the previous one
ends, until ``--seconds`` have passed.  Every job's output is checked.  With
``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` a separate run wraps totkit's public functions and reports the
per-layer metrics.  Workloads and checks live in ``workloads.py``.

Times are corrected for host speed: a fixed pure-Python reference kernel runs
after every job, and each job's time is scaled by ``REF_MS`` over the mean of
the kernel times just before and just after it (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPS = 7
REF_MS = 0.18  # the reference kernel's time on an idle core of the host the README figures come from
TAIL_BEYOND = 10
PERCENTILES = (50, 75, 90, 95)
SEPSYS_PAIRS = 400  # per universe


def reference_kernel() -> int:
    """Fixed work in the style of totkit's inner loops: bit tests, tuples, frozensets, dicts, sorting."""
    full = 63
    pairs = [(a, (full & ~a) | (a & 5)) for a in range(64)]
    index = {p: i for i, p in enumerate(pairs)}
    acc = 0
    seen = set()
    for i, (a1, b1) in enumerate(pairs):
        for j in range(i, 64, 8):
            a2, b2 = pairs[j]
            if a1 & ~a2 == 0 and b2 & ~b1 == 0:
                acc += 1
            seen.add(frozenset((a1 & a2, b1 | b2, i & 7)))
    return acc + len(sorted(seen, key=sorted)) + len(index)


def time_reference(reps: int = 1) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_kernel()
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def import_totkit():
    for name in [m for m in sys.modules if m == "totkit" or m.startswith("totkit.")]:
        del sys.modules[name]
    import totkit.cli

    return totkit


def run_job(main, argv):
    """Run one CLI command; returns (exit code or exception, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except (Exception, SystemExit) as exc:  # an escaped exception is a failed job
            rc = exc
        t1 = time.perf_counter()
    return rc, out.getvalue(), err.getvalue(), t1 - t0


def setup(args, work: Path, tracer: Tracer | None):
    """Import totkit and make the workload's inputs, several times; returns the last set."""
    times, raw = [], []
    reps = 1 if tracer else SETUP_REPS
    for rep in range(reps):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        before = statistics.fmean(time_reference(5))
        gc.collect()
        t0 = time.perf_counter()
        tk = import_totkit()
        if tracer:
            tracer.install("totkit")
        jobs = workloads.WORKLOADS[args.workload].make(tk, args.seed, work, lambda argv: run_job(tk.cli.main, argv))
        t1 = time.perf_counter()
        after = statistics.fmean(time_reference(5))
        raw.append(t1 - t0)
        times.append((t1 - t0) * REF_MS / ((before + after) / 2))
    return tk, jobs, statistics.median(times), statistics.median(raw)


def measure(tk, jobs, seconds: float):
    """Whole rounds of jobs until ``seconds`` have passed.

    The reference kernel runs once before the first job and once after every job.
    Returns per-job records [round, job index, seconds, failed, host factor], the
    failures by kind and the kernel's times.
    """
    main = tk.cli.main
    records = []
    refs = time_reference()
    failures: dict[str, int] = {}
    verified: dict[int, tuple] = {}
    start = time.perf_counter()
    rnd = 0
    while True:
        for i, job in enumerate(jobs):
            rc, out, err, dt = run_job(main, job.argv)
            refs += time_reference()
            failed = isinstance(rc, BaseException)
            if failed:
                key = f"{job.name}: {type(rc).__name__}: {rc}"
                failures[key] = failures.get(key, 0) + 1
            elif i in verified:
                if verified[i] != (rc, out, err):
                    raise checks.CheckError(f"{job.name}: output differs from its first, checked run")
            else:
                job.check(rc, out, err)
                verified[i] = (rc, out, err)
            records.append([rnd, i, dt, failed, 2 * REF_MS / (refs[-2] + refs[-1])])
        rnd += 1
        if time.perf_counter() - start >= seconds:
            break
    return records, failures, refs


def tail(values: list[float], rounds: int) -> tuple[float, float]:
    """The highest of the PERCENTILES with at least TAIL_BEYOND samples beyond it.

    Every round repeats the same jobs, so the samples beyond the percentile must also
    come from at least two jobs of a round: otherwise the tail is one input's time.
    """
    n = len(values)
    beyond = {p: n * (100 - p) // 100 for p in PERCENTILES}
    pct = max(p for p in PERCENTILES if p == 50 or beyond[p] >= max(TAIL_BEYOND, 2 * rounds))
    return pct, sorted(values)[n - beyond[pct] - 1]


def end_to_end(records, setup_s) -> tuple[dict, dict]:
    done = [dt * f for _, _, dt, failed, f in records if not failed]
    rounds = records[-1][0] + 1
    busy, completed = [0.0] * rounds, [0] * rounds
    for rnd, _, dt, failed, f in records:
        busy[rnd] += dt * f
        completed[rnd] += not failed
    pct, tail_s = tail(done, rounds)
    metrics = {
        "jobs_per_s": (statistics.median(c / b for c, b in zip(completed, busy)), "1/s"),
        "job_ms_p50": (statistics.median(done) * 1e3, "ms"),
        "job_ms_tail": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    detail = {"tail_percentile": pct, "samples": len(done)}
    return metrics, detail


def per_job_ms(jobs, records) -> dict:
    """Median corrected time of each job, for the README's make-up tables."""
    times: dict[int, list] = {}
    for _, i, dt, _, f in records:
        times.setdefault(i, []).append(dt * f * 1e3)
    return {jobs[i].name: statistics.median(ts) for i, ts in times.items()}


def sepsys_timings(tk, universes) -> dict:
    """ns per call of Universe.nested, corner_uids and meet on fresh copies of the workload's universes."""
    Universe = tk.sepsys.Universe
    totals = {"nested": [0.0, 0], "corner": [0.0, 0], "meet": [0.0, 0]}
    for u in universes:
        pairs_of = [u.sides(o) for o in u.oriented_ids()]
        ids = list(u.oriented_ids())
        m = len(ids)
        batch = [(ids[(7 * k) % m], ids[(13 * k + 5) % m]) for k in range(min(SEPSYS_PAIRS, m * m))]
        fresh = Universe(u.labels, pairs_of, kind=u.kind)
        clock = time.perf_counter
        for name, fn in (("nested", fresh.nested), ("corner", fresh.corner_uids), ("meet", fresh.meet)):
            t0 = clock()
            for x, y in batch:
                fn(x, y)
            totals[name][0] += clock() - t0
            totals[name][1] += len(batch)
    return {k: (t / n * 1e9 if n else 0.0) for k, (t, n) in totals.items()}


def per_layer(tk, jobs, tracer: Tracer, records, first_span, counts_before, setup_spans) -> tuple[dict, dict]:
    n = len(records)
    factor = statistics.median(r[4] for r in records)
    selfs = tracer.self_times(first_span, [r[4] for r in records])
    job_s = sum(r[2] * r[4] for r in records)
    metrics = {}
    for metric in ("universes.enumerate", "universes.chain", "universes.automorphisms", "profiles.search",
                   "profiles.family", "splinter.precheck", "splinter.canonical", "splinter.transversal",
                   "splinter.map_family", "treedec.build", "treedec.displays", "graphio.verify", "graphio.io",
                   "pipelines.self", "cli.self"):
        metrics[metric + "_ms"] = (selfs.get(metric, 0.0) / n * 1e3, "ms")
    gen = setup_spans.get("corpus.generate", 0.0)
    metrics["corpus.generate_ms"] = (gen * 1e3 * factor, "ms")
    counts = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()}
    # one extra round with tracemalloc on, for the peaks, and to collect the universes for sepsys
    tracer.memory = tracer.capture = True
    tracemalloc.start()
    try:
        for job in jobs:
            run_job(tk.cli.main, job.argv)
    finally:
        tracemalloc.stop()
        tracer.memory = tracer.capture = False
    metrics["profiles.search_peak_kb"] = (tracer.peaks.get("profiles.search", 0) / 1024.0, "kB")
    metrics["splinter.transversal_peak_kb"] = (tracer.peaks.get("splinter.transversal", 0) / 1024.0, "kB")
    metrics["splinter.precheck_calls"] = (
        (counts.get("splinters", 0) + counts.get("splinters_hierarchically", 0)) / n, "count")
    metrics["splinter.transversal_trace_len"] = (counts.get("transversal_trace", 0) / n, "count")
    ns = sepsys_timings(tk, tracer.universes)
    for name in ("nested", "corner", "meet"):
        metrics[f"sepsys.{name}_ns"] = (ns[name] * factor, "ns/call")
    shares = {k: round(v / job_s, 4) for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])}
    sizes = {k: v / n for k, v in counts.items() if k in (
        "universe_size", "profiles", "maximal_profiles", "family_keys", "family_distinct_sets",
        "transversal_trace", "decomposition_nodes")}
    done = sum(1 for r in records if not r[3])
    detail = {"share_of_job_time": shares, "work_per_job": sizes,
              "traced_jobs_per_s": done / sum(dt * f for _, _, dt, _, f in records)}
    return metrics, detail


def run(args, work: Path) -> int:
    tracer = Tracer() if args.trace else None
    tk, jobs, setup_s, setup_raw = setup(args, work, tracer)
    setup_spans = tracer.self_times() if tracer else {}
    checks.self_test()
    workloads.WORKLOADS[args.workload].prepare(jobs, lambda argv: run_job(tk.cli.main, argv))
    gc.collect()
    gc.freeze()  # the harness's own objects stay out of the collections the jobs trigger
    first_span = len(tracer.spans) if tracer else 0
    counts_before = dict(tracer.counts) if tracer else {}
    records, failures, refs = measure(tk, jobs, args.seconds)
    attempted = len(records)
    failed = sum(1 for r in records if r[3])
    if args.trace:
        metrics, detail = per_layer(tk, jobs, tracer, records, first_span, counts_before, setup_spans)
    else:
        metrics, detail = end_to_end(records, setup_s)
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": records[-1][0] + 1,
        "jobs_per_round": len(jobs), "ref_ms_median": statistics.median(refs),
        "ref_ms_quartiles": statistics.quantiles(refs, n=4), "setup_s_raw": setup_raw,
        "raw_job_ms_p50": statistics.median([r[2] for r in records if not r[3]] or [0.0]) * 1e3,
        "failures": failures,
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    saved = {"detail": detail, "metrics": metrics, "per_job_ms": per_job_ms(jobs, records)}
    (out_dir / f"{stem}.json").write_text(json.dumps(saved, indent=1, sort_keys=True))
    if tracer:
        with open(out_dir / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "totkit" / "cli.py").is_file():
        print(f"totkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, work)
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
