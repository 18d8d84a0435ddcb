"""Benchmark of the voxrestore batch pipeline: corpus -> disguised
trials -> blind restoration -> EER report.

    python3 bench/run.py --workload pitch-time --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and uses the program under
`src/`. Prints one JSON object as the last line of standard output:
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` a traced pass,
timed against untraced passes before and after it, gives the
per-layer ones and the trace is written under bench/runs/. A run is
one fixed pass of its workload, whatever `--seconds` says. Reference
figures go to standard error. See bench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
from pathlib import Path

import workloads
from workloads import RUNS, SRC, WORKLOADS

os.environ.update(workloads.BLAS_ENV)     # before anything imports numpy

END_TO_END = (("setup_s", "s"), ("gen_s", "s"), ("eval_s", "s"),
              ("total_s", "s"), ("peak_rss_mb", "MB"))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="accepted for a uniform interface; a run is one "
                        "fixed pass of the workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(out) -> dict:
    values = {"setup_s": statistics.median(out.setup_s),
              "gen_s": out.gen_s,
              "eval_s": out.eval_s,
              "total_s": out.total_s,
              "peak_rss_mb": workloads.peak_rss_mb()}
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def per_layer(out) -> dict:
    import spans

    tracer = out.tracer
    totals = spans.layer_totals(tracer.spans)
    metrics = {}
    for layer in spans.LAYER_NAMES:
        self_s, calls = totals.get(layer, (0.0, 0))
        metrics[f"{layer}.self_s"] = _metric(self_s, "s")
        metrics[f"{layer}.calls"] = _metric(calls, "count")
    c = tracer.counters
    for name in spans.COUNTERS:
        unit = "bytes" if "bytes" in name else "count"
        metrics[name] = _metric(c.get(name, 0), unit)
    d = tracer.distinct_counts()
    metrics["restore.candidates_unique"] = _metric(d["candidates_unique"],
                                                   "count")
    metrics["restore.candidate_reuse"] = _metric(
        d["candidates_unique"] / d["candidate_calls"]
        if d["candidate_calls"] else 0.0, "ratio")
    metrics["disguise.build_warp.unique"] = _metric(d["warps_unique"],
                                                    "count")
    metrics["cli.eval.jobs2_s"] = _metric(out.jobs2_s or 0.0, "s")
    metrics["trace_overhead_s"] = _metric(
        out.traced_work_s - out.untraced_work_s, "s")
    return metrics


def stage_sums(out):
    """Per stage: (wall, summed self time of its subtree, most threads
    busy at once in it)."""
    import spans

    selfs = spans.self_times(out.tracer.spans)
    result = {}
    for stage, sid in out.stage_ids.items():
        tree = spans.subtree(out.tracer.spans, sid)
        root = tree[0]
        result[stage] = (root.end - root.start,
                         sum(selfs[s.id] for s in tree),
                         spans.max_concurrency(tree))
    return result


# Self times of single-threaded stages add up to the stage's wall time
# up to float rounding; see the README.
STAGE_TOL_ABS = 1e-3
STAGE_TOL_REL = 1e-3


def check_stage_sums(sums) -> list:
    """The self times under each stage add up to its wall time (up to
    its thread count on threaded stages). This holds by construction
    for a tree that passes spans.tree_problems, which is the check
    that catches time charged to the wrong stage."""
    problems = []
    for stage, (wall, total, threads) in sums.items():
        tol = STAGE_TOL_ABS + STAGE_TOL_REL * wall
        if total < wall - tol or total > threads * wall + tol:
            problems.append(f"stage {stage}: self times sum to {total:.4f}s "
                            f"for a wall time of {wall:.4f}s on "
                            f"{threads} thread(s)")
    return problems


def write_trace(out, path: Path, sums) -> None:
    import spans

    totals = spans.layer_totals(out.tracer.spans)
    payload = {"stages": {k: {"wall_s": w, "self_sum_s": s, "threads": t}
                          for k, (w, s, t) in sums.items()},
               "layers": {k: {"self_s": v[0], "calls": v[1]}
                          for k, v in sorted(totals.items())},
               "counters": {**out.tracer.counters,
                            **out.tracer.distinct_counts()},
               "spans": len(out.tracer.spans)}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "voxrestore" / "__init__.py").is_file():
        print(f"error: no voxrestore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        if isinstance(wl, workloads.CliWorkload):
            out = workloads.run_cli(wl, args.seed, bool(args.trace),
                                    workdir)
        else:
            out = workloads.run_library(wl, args.seed, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    threads = threading.active_count()
    metrics = {}
    if args.trace and out.tracer is not None:
        import spans
        sums = stage_sums(out)
        out.problems += spans.tree_problems(out.tracer.spans, out.stage_ids)
        out.problems += check_stage_sums(sums)
        trace_path = RUNS / f"trace-{wl.name}-{args.seed}.json"
        write_trace(out, trace_path, sums)
        metrics = per_layer(out)
        print(f"trace written to {trace_path}", file=sys.stderr)
    elif not args.trace and out.gen_s is not None:
        metrics = end_to_end(out)

    for problem in out.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"workload": wl.name, "seed": args.seed,
                      "threads_at_end": threads, **out.info},
                     sort_keys=True, default=str), file=sys.stderr)
    print(json.dumps({"correct": not out.problems,
                      "attempted": out.attempted,
                      "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
