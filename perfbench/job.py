"""One iteration of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per iteration, so process-global caches
start empty as they do for a user's run.  The last line of standard output
is one JSON object:

* ``setup_s``: import ``repro``, load and validate the scenarios, prepare;
* ``wall_s``: setup plus the workload's main phase, checks excluded;
* ``main_s`` and ``work``: the main phase and the work it did, in the
  workload's own unit (simulated cycles, sweep cells or linted files);
* ``rss_mb``: peak resident set of this process plus its largest child;
* ``ops``/``failed``/``errors``: operations attempted and those whose
  correctness check failed;
* ``digest``: observable results that ``run.py`` compares across
  iterations and, for the default seed, against ``pins.json``;
* ``layers``: per-layer numbers (traced iterations only);
* ``provenance``: which engine ran and with which jit state;
* ``calib``: :func:`calibrate` timed before setup and after the main phase.

Usage: python perfbench/job.py --workload NAME --seed N --out DIR
                               [--trace] [--cross-check] [--smoke]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable

GRID = "examples/scenarios/policy_grid.json"
#: One job, in-process: a calibration loop timed in one process cannot
#: follow the speed of two pool workers on a 2-core host.  Measured in one
#: window, the scaled sweep time spread 11% from run to run at two jobs and
#: 4% at one.
SWEEP_JOBS = 1
#: the kernel-tier workload: 8x8, 128 addresses, renewal_tape load 0.6
TIER_ARCH = {"tier-checked": "pipelined", "tier-fast": "pipelined_fast",
             "tier-batch": "pipelined_batch"}
TIER_HORIZON = {"pipelined": 25_000, "pipelined_fast": 150_000,
                "pipelined_batch": 1_000_000}
TIER_PREFIX = 4_000
TIER_WARMUP = 1_000
OBSERVED_HORIZON = 200_000
OBSERVED_EVERY = 10_000
OBSERVED_RESTORE_EVERY = 4  # restore from disk after every 4th save
#: horizons shrink by this factor under --smoke
SMOKE_DIV = 25


#: calibration loops timed before setup and again after the main phase
CALIBRATION_SAMPLES = 5


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed, not ours."""
    t = time.perf_counter()
    acc = 0
    for i in range(250_000):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - t


class Iteration:
    """Clock and ledger of one iteration; checks run off the clock."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.seed: int = args.seed
        self.out = Path(args.out)
        self.t0 = time.perf_counter()
        self.check_s = 0.0
        self.setup_s = 0.0
        self.main_start = 0.0
        self.main_s = 0.0
        self.work = 0
        self.ops = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest: dict[str, Any] = {}
        self.layers: dict[str, float] = {}
        self.provenance: dict[str, Any] = {}
        self.recorder: Any = None

    def setup_done(self) -> None:
        self.setup_s = time.perf_counter() - self.t0 - self.check_s
        self.main_start = time.perf_counter()
        self.check_s = 0.0

    def main_done(self, work: int) -> None:
        self.main_s = time.perf_counter() - self.main_start - self.check_s
        self.work = work

    def off_clock(self, fn: Callable[[], Any]) -> Any:
        """Run a correctness check without charging it to the workload."""
        t = time.perf_counter()
        try:
            return fn()
        finally:
            self.check_s += time.perf_counter() - t

    def op(self, *checks: tuple[bool, str]) -> None:
        """Count one operation; it fails if any of its checks fails."""
        self.ops += 1
        failed = [what for ok, what in checks if not ok]
        self.errors += failed
        self.failed += bool(failed)


def _scale(horizon: int, smoke: bool) -> int:
    return horizon // SMOKE_DIV if smoke else horizon


def _engine(sw: Any) -> str:
    if getattr(sw, "_array_core", False):
        return "array"
    return "lean" if getattr(sw, "_lean", False) else "general"


def _switch_digest(sw: Any) -> dict[str, Any]:
    """Every statistic the word-level kernels share, exactly."""
    return {
        "cycle": sw.cycle,
        "offered": sw.stats.offered,
        "delivered": sw.stats.delivered,
        "dropped": sw.stats.dropped,
        "ct_latency": [sw.ct_latency.count, repr(sw.ct_latency.mean)],
        "total_latency": [sw.total_latency.count, repr(sw.total_latency.mean)],
        "ct_latency_hist": sorted(sw.ct_latency_hist.counts.items()),
        "waves": [sw.write_waves, sw.cut_through_waves, sw.plain_read_waves],
        "idle_cycles": sw.idle_cycles,
        "deadline_overrides": sw.deadline_overrides,
        "overrun_drops": sw.overrun_drops,
        "policy_drops": sw.policy_drops,
    }


def _pinned(d: dict[str, Any]) -> dict[str, Any]:
    # Drop-cause counters are left out on purpose: they count over the
    # whole run while ``dropped`` counts after warmup (see ROADMAP item 4).
    return {k: d[k] for k in ("delivered", "dropped", "ct_latency_hist")}


# -- workloads ---------------------------------------------------------------

def grid_sweep(it: Iteration) -> None:
    from repro.scenario import load_scenarios, registry, runner

    scenarios = []
    for sc in load_scenarios(GRID):
        sc = dataclasses.replace(sc, seeds=(it.seed,),
                                 horizon=_scale(sc.horizon, it.args.smoke))
        registry.validate_scenario(sc)
        scenarios.append(sc)
    it.setup_done()
    out = it.out / "sweep"
    results = runner.ScenarioRunner(jobs=SWEEP_JOBS, out_dir=out).run(scenarios)
    it.main_done(work=len(results))

    def verify() -> None:
        merged = json.loads((out / "results.json").read_text())
        if len(merged) != len(results):
            merged = [None] * len(results)
        # Cross-tier identity: each incast policy runs on all three tiers.
        by_policy: dict[str, list[dict[str, Any]]] = {}
        for r in results:
            if r["kind"] == "word":
                by_policy.setdefault(r["params"]["policy"], []).append(r)
        bad = {policy for policy, cells in by_policy.items()
               if len(cells) != 3
               or any(c["stats"] != cells[0]["stats"] for c in cells)}
        pinned = it.digest.setdefault("pinned", {})
        counts = {"dropped": 0, "overrun_drops": 0, "policy_drops": 0,
                  "cause_gap": 0}
        for r, written in zip(results, merged):
            stats = r["stats"]
            word = r["kind"] == "word"
            it.op((written == r, f"{r['scenario']}: results.json differs"),
                  (not (word and r["params"]["policy"] in bad),
                   f"{r['scenario']}: stats differ across kernel tiers"))
            if word:
                counts["dropped"] += stats["dropped"]
                counts["overrun_drops"] += stats["overrun_drops"]
                counts["policy_drops"] += stats["policy_drops"]
                # Recorded, never failed on: causes count over the whole
                # run while `dropped` counts after warmup.
                counts["cause_gap"] += (stats["overrun_drops"]
                                        + stats["policy_drops"]
                                        - stats["dropped"])
            pinned[r["scenario"]] = {
                k: stats[k] for k in ("delivered", "dropped", "ct_latency_mean",
                                      "ct_latency_p99", "mean_delay",
                                      "p99_delay") if k in stats}
        it.layers.update({f"policy.{k}": v for k, v in counts.items()})

    it.off_clock(verify)


def _tier_scenario(arch: str, horizon: int, seed: int, smoke: bool):
    from repro.scenario import Scenario

    return Scenario(
        name=f"tiers-{arch}", arch=arch, horizon=horizon,
        params={"n": 8, "addresses": 128},
        traffic={"kind": "renewal_tape", "load": 0.6},
        seeds=(seed,), warmup=_scale(TIER_WARMUP, smoke),
    )


def kernel_tier(it: Iteration) -> None:
    from repro.scenario import registry

    arch = TIER_ARCH[it.args.workload]
    horizon = _scale(TIER_HORIZON[arch], it.args.smoke)
    prefix = _scale(TIER_PREFIX, it.args.smoke)
    sc = _tier_scenario(arch, horizon, it.seed, it.args.smoke)
    registry.validate_scenario(sc)
    sw = registry.prepare(sc, it.seed).switch
    it.setup_done()
    sw.run(prefix)
    at_prefix = it.off_clock(lambda: _switch_digest(sw))
    sw.run(horizon - prefix)
    it.main_done(work=horizon)
    if arch == "pipelined_batch":
        it.provenance.update(engine=_engine(sw), jit_state=sw.jit_state)

    def verify() -> None:
        final = _switch_digest(sw)
        checks = [(final["cycle"] == horizon, "tier ran short of its horizon")]
        for other in TIER_HORIZON if it.args.cross_check else ():
            if other == arch:
                continue
            ref_sc = _tier_scenario(other, prefix, it.seed, it.args.smoke)
            ref = registry.prepare(ref_sc, it.seed).switch
            ref.run(prefix)
            checks.append((_switch_digest(ref) == at_prefix,
                           f"{arch} and {other} differ over the first "
                           f"{prefix} cycles"))
        it.op(*checks)
        it.digest = {"prefix": at_prefix, "final": final,
                     "pinned": _pinned(final)}

    it.off_clock(verify)


def observed_run(it: Iteration) -> None:
    from repro import checkpoint
    from repro.obs import promparse
    from repro.scenario import Scenario, registry

    horizon = _scale(OBSERVED_HORIZON, it.args.smoke)
    every = _scale(OBSERVED_EVERY, it.args.smoke)
    sc = Scenario(
        name="observed", arch="pipelined_batch", horizon=horizon,
        params={"n": 8, "addresses": 128, "policy": "dynamic:alpha=1.0"},
        traffic={"kind": "renewal_tape", "load": 0.9},
        seeds=(it.seed,),
        telemetry={"metrics": True, "sample_interval": 64, "series": 4096,
                   "trace_sample": 0.05},
    )
    registry.validate_scenario(sc)
    prep = registry.prepare(sc, it.seed)
    it.setup_done()
    it.provenance.update(engine=_engine(prep.switch),
                         jit_state=prep.switch.jit_state)
    path = it.out / "observed.ckpt.json"
    sw, saves = prep.switch, 0
    while sw.cycle < horizon:
        sw.run(min(every, horizon - sw.cycle))
        checkpoint.save(sw, path)
        saves += 1
        if saves % OBSERVED_RESTORE_EVERY == 0:
            before = it.off_clock(lambda: checkpoint.fingerprint(sw))
            sw = checkpoint.restore(path)
            after = it.off_clock(lambda: checkpoint.fingerprint(sw))
            it.op((before == after, f"fingerprint changed across "
                                    f"save/restore at cycle {sw.cycle}"))
            prep = registry.prepared_from_switch(sc, it.seed, sw)
    result = registry.execute_prepared(prep, out_dir=it.out)
    text = (it.out / result["telemetry"]["artifacts"]["metrics"]).read_text()
    try:
        families, parse_error = promparse.parse(text), ""
    except promparse.PromParseError as exc:
        families, parse_error = [], str(exc)
    it.main_done(work=horizon)

    def verify() -> None:
        it.op((not parse_error and bool(families),
               f"exported metrics text does not parse: {parse_error}"))
        final = _switch_digest(sw)
        it.digest = {"final": final, "pinned": _pinned(final),
                     "metrics_families": len(families)}

    it.off_clock(verify)


def lint_cold(it: Iteration) -> None:
    from repro.drc import linter

    it.setup_done()
    result = linter.run_lint(["src", "tests"], jobs=1, cache_dir=None)
    it.main_done(work=result.files_checked)
    findings = result.all_findings()
    it.op((not findings, f"lint reported {len(findings)} findings"))
    it.digest = {"files": result.files_checked,
                 "pinned": {"findings": len(findings)}}
    it.layers["drc.files_s"] = result.stats["elapsed_files"]
    it.layers["drc.project_s"] = result.stats["elapsed_project"]
    if it.recorder is not None:
        # The warm-cache lint: fill a fresh cache, then time a full hit.
        cache = it.out / "drc-cache"
        linter.run_lint(["src", "tests"], jobs=1, cache_dir=cache)
        t = time.perf_counter()
        warm = linter.run_lint(["src", "tests"], jobs=1, cache_dir=cache)
        it.layers["drc.warm_s"] = time.perf_counter() - t
        it.op((warm.stats["cache"] == "hit"
               and len(warm.all_findings()) == len(findings),
               "warm lint missed the cache or changed the findings"))


WORKLOADS: dict[str, Callable[[Iteration], None]] = {
    "grid-sweep": grid_sweep,
    "tier-checked": kernel_tier,
    "tier-fast": kernel_tier,
    "tier-batch": kernel_tier,
    "observed-run": observed_run,
    "lint-cold": lint_cold,
}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--cross-check", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    calib = [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    it = Iteration(args)
    if args.trace:
        import spans

        it.recorder = spans.SpanRecorder()
        spans.install(it.recorder)
    WORKLOADS[args.workload](it)
    calib += [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    wall_s = it.setup_s + it.main_s
    if it.recorder is not None:
        it.recorder.write(it.out / "spans.jsonl")
        it.layers.update(spans.layer_metrics(it.recorder.spans, SWEEP_JOBS))
    print(json.dumps({
        "setup_s": it.setup_s, "wall_s": wall_s, "main_s": it.main_s,
        "work": it.work, "rss_mb": _peak_rss_mb(), "ops": it.ops,
        "failed": it.failed, "errors": it.errors, "digest": it.digest,
        "layers": it.layers, "provenance": it.provenance, "calib": calib,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
