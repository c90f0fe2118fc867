"""Repository benchmark: one workload, timed end to end or layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-pins

Each iteration runs ``perfbench/job.py`` in a fresh interpreter until
``--seconds`` have passed.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json`` as medians over the iterations, with times scaled to a
reference host by a calibration loop timed inside each iteration (the raw
medians are printed in the provenance line).  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones, plus ``bench.trace_overhead_s`` (traced minus untraced median
wall time) and ``host.calibration_s`` (the calibration loop's median time,
so a slow host can be told from slow code).

Every iteration checks its outputs (see ``job.py``); results must also be
identical across iterations and, for the default seed, equal the values in
``pins.json``.  A line ``provenance {...}`` precedes the result, which is
the last line of standard output.  Spans of the last traced iteration are
kept in ``.perfbench-out/<workload>-seed<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any


HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench-out"
PINS = HERE / "pins.json"
WORKLOADS = ("grid-sweep", "tier-checked", "tier-fast", "tier-batch",
             "observed-run", "lint-cold")
DEFAULT_SEED = 1
#: the whole run must end well inside the three minutes a run may take
DEADLINE_S = 150.0
#: end-to-end times are reported for a host whose calibration loop
#: (``job.calibrate``) takes this long: each iteration's times are scaled
#: by CALIBRATION_REF_S over the median of the loop times measured in that
#: iteration's interpreter, just before its setup and just after its main
#: phase.  The median of several short loops follows the host's speed
#: phases far better than one long loop.
CALIBRATION_REF_S = 0.025


def run_iteration(args: argparse.Namespace, out: Path, traced: bool,
                  cross_check: bool, timeout: float) -> dict[str, Any]:
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out)]
    cmd += ["--trace"] * traced + ["--cross-check"] * cross_check
    cmd += ["--smoke"] * args.smoke
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_JIT", None)  # no workload runs the numba array core
    out.mkdir(parents=True)
    # A session of its own, so a timeout also stops the sweep's workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} iteration timed out")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"perfbench: {args.workload} iteration exited "
                         f"with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          capture_output=True)
    return proc.stdout.strip() or None


def measure(args: argparse.Namespace, run_dir: Path) -> list[dict[str, Any]]:
    """Iterate until ``--seconds`` have passed (and, traced, until both an
    untraced and a traced iteration have run)."""
    start = time.perf_counter()
    results: list[dict[str, Any]] = []
    while True:
        i = len(results)
        traced = bool(args.trace) and i % 2 == 1
        left = DEADLINE_S - (time.perf_counter() - start)
        r = run_iteration(args, run_dir / f"iter-{i}", traced, i == 0, left)
        r["traced"] = traced
        r["host_factor"] = CALIBRATION_REF_S / statistics.median(r["calib"])
        results.append(r)
        elapsed = time.perf_counter() - start
        kinds = {x["traced"] for x in results}
        if elapsed >= args.seconds and (not args.trace or len(kinds) == 2):
            return results
        if elapsed >= DEADLINE_S / 2:
            return results


def verify(args: argparse.Namespace, results: list[dict[str, Any]]) -> None:
    """Fail every operation of an iteration whose results disagree with the
    first iteration's or, for the default seed, with ``pins.json``."""
    first = results[0]
    pinned = None
    if args.seed == DEFAULT_SEED and not args.smoke:
        pinned = json.loads(PINS.read_text()).get(args.workload)
    for r in results:
        # JSON round trip: tuples from the child compare as lists.
        if r["digest"] != first["digest"]:
            r["errors"].append("results differ between iterations")
            r["failed"] = r["ops"]
        elif pinned is not None and r["digest"]["pinned"] != pinned:
            r["errors"].append("results differ from pins.json")
            r["failed"] = r["ops"]


def end_to_end(results: list[dict[str, Any]], host: bool) -> dict[str, float]:
    """Medians over untraced iterations; with ``host`` each iteration's
    times are scaled to the reference host (see ``CALIBRATION_REF_S``)."""
    plain = [r for r in results if not r["traced"]]

    def med(fn) -> float:
        return statistics.median(fn(r, r["host_factor"] if host else 1.0)
                                 for r in plain)

    return {
        "setup_s": med(lambda r, f: r["setup_s"] * f),
        "wall_s": med(lambda r, f: r["wall_s"] * f),
        "work_per_s": med(lambda r, f: r["work"] / (r["main_s"] * f)),
        "peak_rss_mb": med(lambda r, f: r["rss_mb"]),
    }


def per_layer(spec: dict[str, Any],
              results: list[dict[str, Any]]) -> dict[str, float]:
    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    values = {
        "bench.trace_overhead_s": (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain)),
        "host.calibration_s": statistics.median(
            c for r in results for c in r["calib"]),
    }
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name not in values:
            # A layer the workload never enters reads 0.
            values[name] = statistics.median(
                r["layers"].get(name, 0) for r in traced)
    return values


def record_pins() -> int:
    """Rewrite pins.json from one iteration of each workload, default seed."""
    args = argparse.Namespace(seed=DEFAULT_SEED, smoke=False, trace=0)
    pins = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in WORKLOADS:
            args.workload = name
            r = run_iteration(args, Path(tmp) / name, False, True,
                              DEADLINE_S)
            if r["failed"]:
                raise SystemExit(f"perfbench: {name} failed: {r['errors']}")
            pins[name] = r["digest"]["pinned"]
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny horizons; pins are not checked")
    ap.add_argument("--record-pins", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        ap.error(f"no src/repro under {ROOT}; run from the repository root")
    if args.record_pins:
        return record_pins()
    if args.workload is None:
        ap.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        results = measure(args, run_dir)
        traced = [i for i, r in enumerate(results) if r["traced"]]
        if traced:
            shutil.copy(run_dir / f"iter-{traced[-1]}" / "spans.jsonl",
                        OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    verify(args, results)
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    for error in sorted({e for r in results for e in r["errors"]}):
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    provenance: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "git_revision": git_revision(), "src_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "iterations": len(results), "traced_iterations": len(traced),
        "calibration_s": [statistics.median(r["calib"]) for r in results],
        "end_to_end_raw": end_to_end(results, host=False),
    }
    for r in results:
        provenance.update(r["provenance"])
    print("provenance " + json.dumps(provenance))
    if args.trace:
        values, entries = per_layer(spec, results), spec["per_layer"]
    else:
        values, entries = end_to_end(results, host=True), spec["end_to_end"]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                    for e in entries},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
