"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the program from outside it: each
call becomes a span ``(name, start, end, parent)`` kept in memory and
written out when the run ends.  Nothing inside ``src/`` knows it is being
traced.  Spans are recorded in the iteration's own process; every workload
runs there (the sweep at one job).
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    def wrap(self, owner: Any, attr: str, name: str,
             probe: Callable[..., tuple[float, ...]] | None = None,
             bytes_of: Callable[..., int] | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``probe(*args)`` returns counters read before and after the call;
        their difference is stored as the span's ``delta``.  ``bytes_of``
        reads a size after the call (for example of a file it wrote).
        """
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(rec.spans)
            span: dict[str, Any] = {
                "name": name, "parent": rec._stack[-1] if rec._stack else None}
            rec.spans.append(span)
            rec._stack.append(index)
            before = probe(*args) if probe is not None else None
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if probe is not None:
                    after = probe(*args)
                    span["delta"] = [a - b for a, b in zip(after, before)]
                if bytes_of is not None:
                    span["bytes"] = bytes_of(*args)
                rec._stack.pop()

        setattr(owner, attr, traced)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict[str, Any]]) -> list[float]:
    """Each span's duration minus the duration of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_metrics(spans: list[dict[str, Any]], jobs: int) -> dict[str, float]:
    """Per-layer numbers of one traced iteration, 0 where a layer is idle."""
    own = self_times(spans)
    total: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    deltas: dict[str, list[float]] = {}
    sizes: list[int] = []
    for span, self_s in zip(spans, own):
        name = span["name"]
        total[name] = total.get(name, 0.0) + self_s
        durations.setdefault(name, []).append(span["end"] - span["start"])
        if "delta" in span:
            acc = deltas.setdefault(name, [0.0] * len(span["delta"]))
            for i, d in enumerate(span["delta"]):
                acc[i] += d
        if "bytes" in span:
            sizes.append(span["bytes"])

    def med(name: str) -> float:
        values = durations.get(name)
        return statistics.median(values) if values else 0.0

    window_s = total.get("core.batchpath.run", 0.0)
    cycles, waves = deltas.get("core.batchpath.run", [0.0, 0.0])
    cells = durations.get("scenario.cell", [])
    busy = sum(cells)
    runner_wall = sum(durations.get("scenario.runner", []))
    return {
        "scenario.prepare_s": total.get("scenario.prepare", 0.0),
        "scenario.execute_s": total.get("scenario.execute", 0.0),
        "scenario.cell_s.p50": statistics.median(cells) if cells else 0.0,
        "scenario.cell_s.max": max(cells) if cells else 0.0,
        "scenario.dispatch_s": (runner_wall - busy / jobs
                                if runner_wall else 0.0),
        "scenario.parallel_efficiency": (busy / (jobs * runner_wall)
                                         if runner_wall else 0.0),
        "switches.shared.run_s": total.get("switches.shared.run", 0.0),
        "core.switch.run_s": total.get("core.switch.run", 0.0),
        "core.fastpath.run_s": total.get("core.fastpath.run", 0.0),
        "core.sources.tape_s": total.get("core.sources.tape", 0.0),
        "core.sources.tape_calls": len(durations.get("core.sources.tape", [])),
        "core.batchpath.window_s": window_s,
        "core.batchpath.ns_per_cycle": (window_s * 1e9 / cycles
                                        if cycles else 0.0),
        "core.batchpath.ns_per_wave": window_s * 1e9 / waves if waves else 0.0,
        "checkpoint.save_s.p50": med("checkpoint.save"),
        "checkpoint.restore_s.p50": med("checkpoint.restore"),
        "checkpoint.bytes": statistics.median(sizes) if sizes else 0,
        "telemetry.export_s": total.get("telemetry.export", 0.0),
        "obs.spans_s": total.get("obs.spans", 0.0),
        "obs.promparse_s": total.get("obs.promparse", 0.0),
    }


def install(rec: SpanRecorder) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from repro import checkpoint
    from repro.core.batchpath import BatchPipelinedSwitch
    from repro.core.fastpath import FastPipelinedSwitch
    from repro.core.sources import BatchRenewalSource
    from repro.core.switch import PipelinedSwitch
    from repro.obs import promparse, series
    from repro.obs import spans as obs_spans
    from repro.scenario import registry, runner
    from repro.switches.shared_memory import SharedBuffer
    from repro.telemetry import export

    rec.wrap(runner.ScenarioRunner, "run", "scenario.runner")
    # The sweep worker calls run_scenario through the runner module's name.
    rec.wrap(runner, "run_scenario", "scenario.cell")
    rec.wrap(registry, "prepare", "scenario.prepare")
    rec.wrap(registry, "execute_prepared", "scenario.execute")
    rec.wrap(SharedBuffer, "run", "switches.shared.run")
    rec.wrap(SharedBuffer, "run_fast", "switches.shared.run")
    rec.wrap(PipelinedSwitch, "run", "core.switch.run")
    rec.wrap(FastPipelinedSwitch, "run", "core.fastpath.run")
    rec.wrap(
        BatchPipelinedSwitch, "run", "core.batchpath.run",
        probe=lambda sw, *_: (sw.cycle, sw.write_waves + sw.cut_through_waves
                              + sw.plain_read_waves),
    )
    rec.wrap(BatchRenewalSource, "window_arrivals", "core.sources.tape")
    rec.wrap(checkpoint, "save", "checkpoint.save",
             bytes_of=lambda sw, path: Path(path).stat().st_size)
    rec.wrap(checkpoint, "restore", "checkpoint.restore")
    rec.wrap(export, "write_metrics_text", "telemetry.export")
    rec.wrap(export, "write_events_jsonl", "telemetry.export")
    rec.wrap(series.SeriesRing, "to_jsonl", "telemetry.export")
    rec.wrap(obs_spans, "spans_from_events", "obs.spans")
    rec.wrap(obs_spans, "write_spans_jsonl", "obs.spans")
    rec.wrap(promparse, "parse", "obs.promparse")
