"""Orchestration of one benchmark run (what ``run.py`` calls)."""

from __future__ import annotations

import json
import os
import statistics
import time

from repro.perf import parallel

from pgbench import checks, layers
from pgbench.pipeline import SWEEP_JOBS, Recorder, Run
from pgbench.trace import Tracer
from pgbench.workloads import profile, tiny as tiny_profile

__all__ = ["run_workload"]

_OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "out")


def _mailbox(run: Run) -> tuple[int, float, int]:
    """``(handled, total wait seconds, max depth)`` of the async transport."""
    snap = run.serving_async().swarm.transport.mailbox_snapshot()
    return snap["handled"], snap["mean_wait"] * snap["handled"], snap["max_depth"]


def _traced_rounds(run: Run, seconds: float):
    """Alternate untraced and traced rounds for *seconds*.

    Alternating keeps both kinds of round under the same machine
    conditions, so their median times give the tracing overhead.
    Returns ``(untraced, traced, tracer, overhead_pct, mailbox)``.
    """
    tracer = Tracer()
    untraced, traced = Recorder(), Recorder()
    handled = 0
    wait = 0.0
    depth = 0
    index = 1
    started = time.perf_counter()
    while (min(untraced.rounds, traced.rounds) < 1
           or time.perf_counter() - started < seconds):
        if index % 2:
            run.round(index, untraced)
        else:
            handled0, wait0, _ = _mailbox(run)
            layers.install(tracer)
            try:
                run.round(index, traced, tracer=tracer)
            finally:
                tracer.restore()
            handled1, wait1, depth = _mailbox(run)
            handled += handled1 - handled0
            wait += wait1 - wait0
        index += 1
    overhead = (statistics.median(traced.samples["round_s"])
                / statistics.median(untraced.samples["round_s"]) - 1.0) * 100
    mailbox = {"wait_us": wait / max(handled, 1) * 1e6, "max_depth": depth}
    return untraced, traced, tracer, overhead, mailbox


def run_workload(name: str, seed: int, seconds: float, *, trace: bool = False,
                 tiny: bool = False, trace_out: str | None = None) -> dict:
    """Set up, run whole rounds for *seconds*, check, clean up, report.

    Returns ``{"line": <result object>, "report": <details>}``; the line
    carries ``correct``, ``attempted``, ``failed`` and ``metrics``.
    """
    prof = profile(name)
    if tiny:
        prof = tiny_profile(prof)
    run = Run(prof, seed)
    recorders: list[Recorder] = []
    measured: dict[str, float] = {}
    try:
        run.setup()
        run.prepare_probes()
        parallel.warm_pool(SWEEP_JOBS)
        run.round(0, Recorder())  # warm caches and lazy set-up; not recorded
        if trace:
            untraced, traced, tracer, overhead, mailbox = _traced_rounds(run, seconds)
            recorders = [untraced, traced]
            run.check_sweeps(recorders)
            metrics = layers.metrics(tracer, run, traced,
                                     overhead_pct=overhead, mailbox=mailbox)
            _write_spans(tracer, trace_out or os.path.join(
                _OUT, f"spans-{name}-seed{seed}.json"))
        else:
            recorders = [run.rounds(seconds, first=1)]
            run.check_sweeps(recorders)
            metrics = run.end_to_end(recorders[0])
            measured = {key: value for key, (value, _unit)
                        in run.end_to_end(recorders[0], measured=True).items()}
    finally:
        run.close()
    errors = list(run.errors)
    children = checks.leftover_children()
    if children:
        errors.append(f"child processes left running: {children}")
    segments = checks.leftover_segments(run.segments)
    if segments:
        errors.append(f"shared-memory segments left behind: {segments}")
    failures: dict[str, int] = {}
    for rec in recorders:
        for kind, count in rec.failures.items():
            failures[kind] = failures.get(kind, 0) + count
    line = {
        "correct": not errors,
        "attempted": sum(rec.attempted for rec in recorders),
        "failed": sum(rec.failed for rec in recorders),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    report = {
        "workload": name,
        "seed": seed,
        "rounds": [rec.rounds for rec in recorders],
        "setup_s": run.raw_setup_times,
        "build_s": run.raw_build_times,
        "host_speed": run.clock.speed(),
        "measured": measured,
        "failures": failures,
        "errors": errors,
        "stale_probe": list(run.stale_probe) if run.stale_probe else None,
    }
    return {"line": line, "report": report}


def _write_spans(tracer: Tracer, path: str) -> None:
    """Write the traced spans (name, start, end, parent index) as JSON."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans,
                   "counts": {str(k): v for k, v in tracer.counts.items()}}, fh)
