"""Command line, metric assembly and the result line.

``--trace 0`` sets the workload up several times (reporting the median
set-up time), measures once and prints the end-to-end metrics.
``--trace 1`` hosts the service in this process, measures once without
and once with span wrappers installed, and prints the per-layer metrics
of the traced phase plus the tracing overhead.  The last line of
standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .stats import median, percentile, tail
from .system import cpu_times, steal_share
from .trace import SpanRecorder, instrument, self_times
from .workloads import LATENCY_LIMIT_S, WORKLOADS, Phase

#: set-ups per untraced run; the median is reported as ``setup_s``
SETUP_REPEATS = 3

UNITS = {
    "setup_s": "s", "mb_s": "MB/s", "jobs_s": "1/s", "lat_p50_s": "s",
    "ok_ratio": "ratio", "rss_mb": "MB",
    "shell.parse_s": "s", "unixsim.serial_mb_s": "MB/s",
    "synthesis.calls_per_job": "count", "synthesis.memo_hit_ratio": "ratio",
    "synthesis.cmd_p50_s": "s", "synthesis.self_s": "s",
    "optimizer.select_self_s": "s", "optimizer.rewrites_per_job": "count",
    "planner.compile_s": "s", "parallel.run_s": "s",
    "parallel.stage_busy_s": "s", "parallel.overlap_ratio": "ratio",
    "scheduler.tasks": "count", "scheduler.steals": "count",
    "scheduler.retries": "count", "scheduler.spec_win_ratio": "ratio",
    "runner.reuse_ratio": "ratio", "service.submit_s": "s",
    "service.run_p50_s": "s", "service.fetch_s": "s",
    "service.queue_wait_p50_s": "s", "service.queue_wait_p95_s": "s",
    "service.queued_max": "count", "service.rejected": "count",
    "service.limit_miss_ratio": "ratio", "plan_cache.hit_ratio": "ratio",
    "distrib.tasks_per_job": "count",
    "distrib.bytes_shipped_per_job": "bytes",
    "distrib.bytes_returned_per_job": "bytes",
    "distrib.plan_replications": "count", "distrib.reassignments": "count",
    "distrib.fallbacks": "count", "loadgen.lag_p95_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _latencies(jobs) -> List[float]:
    return [j.latency for j in jobs if j.ok]


def end_to_end(phase: Phase, setup_s: float) -> Dict[str, float]:
    """Throughput is over the whole measured phase, or, for jobs run one
    after another (batch passes, each the same mix), the median over
    jobs."""
    ok = [j for j in phase.jobs if j.ok]
    if phase.sequential:
        mb_s = median([j.input_bytes / 1e6 / j.latency for j in ok])
        jobs_s = median([1.0 / j.latency for j in ok])
    else:
        mb_s = sum(j.input_bytes for j in ok) / 1e6 / phase.seconds
        jobs_s = len(ok) / phase.seconds
    return {
        "setup_s": setup_s,
        "mb_s": mb_s,
        "jobs_s": jobs_s,
        "lat_p50_s": median(_latencies(phase.jobs)),
        "ok_ratio": _ratio(len(ok), len(phase.jobs)),
        "rss_mb": phase.rss_mb,
    }


def _status_delta(phase: Phase, *path: str) -> float:
    if phase.status_before is None:
        return 0.0
    before, after = phase.status_before, phase.status_after
    for key in path:
        before, after = before[key], after[key]
    return after - before


def _queued_max(jobs) -> int:
    """Most jobs waiting at once, from the server's timestamps."""
    events = []
    for j in jobs:
        r = j.result
        if r is not None and r.started_at:
            events += [(r.submitted_at, 1), (r.started_at, -1)]
    depth = peak = 0
    for _, step in sorted(events, key=lambda e: (e[0], e[1])):
        depth += step
        peak = max(peak, depth)
    return peak


def per_layer(phase: Phase, recorder: SpanRecorder,
              untraced: Phase) -> Dict[str, float]:
    spans = recorder.spans()
    own = self_times(spans)
    by_name: Dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_sum(name: str) -> float:
        return sum(own[s.span_id] for s in by_name.get(name, ()))

    def dur(name: str) -> List[float]:
        return [s.seconds for s in by_name.get(name, ())]

    jobs = phase.jobs
    # span totals cover the whole traced phase, warm-up included
    all_jobs = max(1, len(jobs) + phase.setup_jobs)
    stats = [st for j in jobs for st in j.stats]
    sched = [st.scheduler for st in stats if st.scheduler is not None]
    dist = [st.distrib for st in stats if st.distrib is not None]
    busy = sum(sg.seconds for st in stats for sg in st.stages)
    results = [j.result for j in jobs if j.result is not None
               and j.result.started_at]
    waits = [r.started_at - r.submitted_at for r in results]
    pool_created = _status_delta(phase, "runner_pool", "created")
    pool_reused = _status_delta(phase, "runner_pool", "reused")
    synth_calls = len(by_name.get("synthesize", ()))
    n_jobs = max(1, len(jobs))
    return {
        "shell.parse_s": self_sum("Pipeline.from_string") / all_jobs,
        "unixsim.serial_mb_s": _ratio(phase.oracle_bytes / 1e6,
                                      phase.oracle_seconds),
        "synthesis.calls_per_job": synth_calls / all_jobs,
        "synthesis.memo_hit_ratio": 1.0 - _ratio(
            synth_calls, recorder.counts.get("synthesis.lookups", 0)),
        "synthesis.cmd_p50_s": median(dur("synthesize")),
        "synthesis.self_s": self_sum("synthesize") / all_jobs,
        "optimizer.select_self_s": self_sum("select_plan") / all_jobs,
        "optimizer.rewrites_per_job":
            sum(st.rewrites for st in stats) / n_jobs,
        "planner.compile_s": sum(dur("compile_pipeline")) / all_jobs,
        "parallel.run_s": sum(dur("ParallelPipeline.run")) / n_jobs,
        "parallel.stage_busy_s": busy / n_jobs,
        "parallel.overlap_ratio": _ratio(
            sum(st.total_overlap for st in stats), busy),
        "scheduler.tasks": sum(s.tasks for s in sched) / n_jobs,
        "scheduler.steals": sum(s.steals for s in sched) / n_jobs,
        "scheduler.retries": sum(s.retries for s in sched) / n_jobs,
        "scheduler.spec_win_ratio": _ratio(
            sum(s.speculation_wins for s in sched),
            sum(s.speculations for s in sched)),
        "runner.reuse_ratio": _ratio(pool_reused, pool_created + pool_reused),
        "service.submit_s": median(dur("client.submit")),
        "service.run_p50_s": median(
            [r.finished_at - r.started_at for r in results]),
        "service.fetch_s": median(dur("client.fetch")),
        "service.queue_wait_p50_s": median(waits),
        "service.queue_wait_p95_s": percentile(waits, 0.95) if waits else 0.0,
        "service.queued_max": _queued_max(jobs),
        "service.rejected": sum(1 for j in jobs if j.rejected),
        "service.limit_miss_ratio": limit_miss_ratio(jobs)
        if jobs and jobs[0].open_loop else 0.0,
        "plan_cache.hit_ratio": _ratio(
            sum(1 for r in results if r.plan_cache == "hit"), len(jobs)),
        "distrib.tasks_per_job": sum(d.tasks for d in dist) / n_jobs,
        "distrib.bytes_shipped_per_job":
            sum(d.bytes_shipped for d in dist) / n_jobs,
        "distrib.bytes_returned_per_job":
            sum(d.bytes_returned for d in dist) / n_jobs,
        "distrib.plan_replications":
            _status_delta(phase, "distrib", "plan_replications"),
        "distrib.reassignments":
            _status_delta(phase, "distrib", "reassignments"),
        "distrib.fallbacks":
            _status_delta(phase, "distrib", "distrib_fallbacks"),
        "loadgen.lag_p95_s": percentile([j.lag for j in jobs], 0.95)
        if jobs and jobs[0].open_loop else 0.0,
        "trace.overhead_ratio": _ratio(median(_latencies(jobs)),
                                       median(_latencies(untraced.jobs))),
    }


def limit_miss_ratio(jobs) -> float:
    """Jobs that failed or finished later than the latency limit."""
    return _ratio(sum(1 for j in jobs
                      if not j.ok or j.latency > LATENCY_LIMIT_S), len(jobs))


# ---------------------------------------------------------------------------


def _setup(workload, in_process: bool):
    start = time.perf_counter()
    state = workload.setup(in_process=in_process)
    return state, time.perf_counter() - start


def run_untraced(workload, seconds: float,
                 repeats: int = SETUP_REPEATS) -> Tuple[Phase, float]:
    """Set up ``repeats`` times (keeping the last system), measure."""
    setups: List[float] = []
    state = None
    try:
        for _ in range(repeats):
            if state is not None:
                workload.close(state)
                state = None
            state, took = _setup(workload, in_process=False)
            setups.append(took)
        phase = workload.measure(state, seconds)
    finally:
        if state is not None:
            workload.close(state)
    return phase, median(setups)


def _measure_once(workload, seconds: float,
                  recorder: Optional[SpanRecorder]) -> Phase:
    state = None
    try:
        with (recorder.span("setup") if recorder is not None
              else contextlib.nullcontext()):
            state, _ = _setup(workload, in_process=True)
        return workload.measure(state, seconds, recorder)
    finally:
        if state is not None:
            workload.close(state)


def run_traced(workload, seconds: float,
               trace_path: Path) -> Tuple[Phase, Phase, SpanRecorder]:
    """An in-process untraced phase, then a traced one (fresh synthesis
    memo each, so the traced set-up synthesizes like the first did)."""
    from repro.core.synthesis.store import clear_synthesis_memo

    clear_synthesis_memo()
    untraced = _measure_once(workload, seconds, None)
    clear_synthesis_memo()
    recorder = SpanRecorder()
    with instrument(recorder):
        traced = _measure_once(workload, seconds, recorder)
    recorder.write(trace_path)
    return traced, untraced, recorder


def summary_lines(name: str, phase: Phase,
                  metrics: Dict[str, float]) -> List[str]:
    lines = [f"{name}: {key} = {value:.6g} {UNITS[key]}"
             for key, value in metrics.items()]
    lats = _latencies(phase.jobs)
    p95 = tail(lats, 0.95)
    lines.append(f"{name}: lat_p95_s = {p95:.6g} s (n={len(lats)})"
                 if p95 is not None else
                 f"{name}: lat_p95_s not reported: n={len(lats)} leaves "
                 "fewer than 10 samples beyond p95")
    failed = sum(1 for j in phase.jobs if not j.ok)
    lines.append(f"{name}: fail_ratio = "
                 f"{_ratio(failed, len(phase.jobs)):.6g} "
                 f"({failed} of {len(phase.jobs)})")
    if phase.jobs and phase.jobs[0].open_loop:
        lines.append(f"{name}: over {LATENCY_LIMIT_S} s or failed = "
                     f"{limit_miss_ratio(phase.jobs):.6g}")
    return lines


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Measure one workload and print its metrics; the "
                    "last output line is the JSON result.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    workdir = Path.cwd() / ".bench_build" / "perfbench" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](root, workdir, args.seed)
    build = getattr(workload, "build", None)
    if build is not None:
        took = build()
        if took is not None:
            print(f"{args.workload}: one-time combiner build took "
                  f"{took:.1f} s", file=sys.stderr)
    cpu_before = cpu_times()
    if args.trace:
        phase, untraced, recorder = run_traced(
            workload, args.seconds, workdir / f"trace-seed{args.seed}.json")
        metrics = per_layer(phase, recorder, untraced)
    else:
        phase, setup_s = run_untraced(workload, args.seconds)
        metrics = end_to_end(phase, setup_s)
    for line in summary_lines(args.workload, phase, metrics):
        print(line)
    # timings from a run whose host lost much CPU to other guests are
    # not comparable with calmer runs
    print(f"{args.workload}: host CPU steal during the run = "
          f"{steal_share(cpu_before, cpu_times()):.1%}")
    for reason in phase.invalid:
        print(f"{args.workload}: invalid run: {reason}", file=sys.stderr)
    for job in phase.jobs:
        if job.error is not None:
            print(f"{args.workload}: failed job: {job.error}",
                  file=sys.stderr)
            break
    failed = sum(1 for j in phase.jobs if not j.ok)
    print(json.dumps({
        "correct": not phase.invalid
        and not any(j.mismatch for j in phase.jobs),
        "attempted": len(phase.jobs),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": UNITS[key]}
                    for key, value in metrics.items()},
    }))
    sys.stdout.flush()
    return 0
