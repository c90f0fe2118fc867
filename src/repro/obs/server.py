"""Prometheus ``/metrics`` HTTP endpoint for runs and sweeps.

:class:`MetricsServer` is a tiny threaded HTTP server exposing one
``/metrics`` route in the text exposition format.  It renders by merging
*providers* — callables returning exposition text — through the
:mod:`repro.obs.promparse` family model, which is what makes aggregation
correct: the format forbids duplicate ``# TYPE`` lines per family, so
provider outputs are parsed and re-rendered as one family set rather than
concatenated.

:class:`SweepMetricsObserver` adapts a
:class:`~repro.scenario.runner.ScenarioRunner` to the endpoint.  It is
both the runner's observer (progress callbacks) and a provider:

* sweep progress gauges (cells total/done/resumed/inflight) straight from
  the callbacks — visible at any ``--jobs``;
* per-cell metric registries, labelled ``cell="<name>-seed<seed>"``:
  for in-process execution (``--jobs 1``) the *live* registry is scraped
  mid-run; pool workers' registries arrive through the per-cell
  ``.metrics.txt`` artifacts the moment each cell finishes.

Live registries are converted to families directly (no text round
trip).  Reading one races with the simulating thread (new metrics can
appear mid-iteration); conversion retries a few times, a cell that still
fails or whose histograms fail validation drops out of that scrape, and
the server falls back to the last good document — the endpoint must
never take locks the hot path would feel.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable

from repro.obs import promparse
from repro.telemetry.export import registry_families

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_CONVERT_RETRIES = 5

#: sweep progress gauges: name suffix -> help text
_PROGRESS_HELP = {
    "total": "Jobs (scenario, seed cells) in this sweep.",
    "done": "Cells finished, including cells reloaded by --resume.",
    "resumed": "Cells reloaded from a previous interrupted sweep.",
    "inflight": "Cells currently executing in-process with a live registry.",
}


def _live_families(registry: Any) -> list[promparse.Family]:
    """Convert a possibly-live registry, retrying on mutation races."""
    for attempt in range(_CONVERT_RETRIES):
        try:
            return registry_families(registry)
        except RuntimeError:  # dict changed size during iteration
            if attempt == _CONVERT_RETRIES - 1:
                raise
    raise AssertionError("unreachable")


class MetricsServer:
    """Threaded HTTP server for ``GET /metrics``.

    ``port=0`` binds an ephemeral port (tests); the bound port is
    available as :attr:`port` after :meth:`start`.  Binds loopback by
    default — this is an observability endpoint, not a public service.
    """

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self._requested = (host, port)
        self._providers: list[Callable[[], str]] = []
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._last_good = ""

    def add_provider(self, provider: Callable[[], str]) -> None:
        """Register a callable returning exposition text to merge in."""
        self._providers.append(provider)

    def render(self) -> str:
        """Merge all providers into one valid exposition document."""
        groups: list[list[promparse.Family]] = []
        for provider in self._providers:
            try:
                groups.append(promparse.parse(provider()))
            except (RuntimeError, promparse.PromParseError):
                continue  # a racing provider drops out of this scrape only
        try:
            text = promparse.render(promparse.merge(groups))
        except promparse.PromParseError:
            return self._last_good
        self._last_good = text
        return text

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                    self.send_error(404, "only /metrics is served here")
                    return
                body = server.render().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt: str, *args: Any) -> None:
                pass  # scrapes are not stdout's business

        self._httpd = ThreadingHTTPServer(self._requested, _Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
            self._thread = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested[1]
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._requested[0]}:{self.port}/metrics"

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


class SweepMetricsObserver:
    """ScenarioRunner observer + MetricsServer provider (module docstring)."""

    def __init__(self, out_dir: str | Path | None = None) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self._lock = threading.Lock()
        self._total = 0
        self._resumed = 0
        self._done = 0
        self._live: dict[str, Any] = {}           # cell -> live Telemetry
        self._cells: dict[str, list[promparse.Family]] = {}

    # -- runner callbacks ---------------------------------------------------
    def sweep_started(self, total: int, resumed: int) -> None:
        with self._lock:
            self._total = total
            self._resumed = resumed
            self._done = resumed

    def job_live(self, name: str, seed: int, telemetry: Any) -> None:
        cell = f"{name}-seed{seed}"
        with self._lock:
            if telemetry is None:
                self._live.pop(cell, None)
            elif telemetry.metrics.enabled:
                self._live[cell] = telemetry

    def job_finished(self, name: str, seed: int, result: dict) -> None:
        cell = f"{name}-seed{seed}"
        families: list[promparse.Family] | None = None
        artifact = (result.get("telemetry") or {}).get("artifacts", {})
        if self.out_dir is not None and "metrics" in artifact:
            path = self.out_dir / artifact["metrics"]
            try:
                families = promparse.parse(path.read_text())
            except (OSError, promparse.PromParseError):
                families = None
        with self._lock:
            self._done += 1
            if families is not None:
                self._cells[cell] = promparse.add_labels(families, cell=cell)

    def sweep_finished(self) -> None:
        pass

    # -- provider -----------------------------------------------------------
    def progress(self) -> dict[str, int]:
        with self._lock:
            return {"total": self._total, "done": self._done,
                    "resumed": self._resumed, "inflight": len(self._live)}

    def render(self) -> str:
        with self._lock:
            live = dict(self._live)
            cell_groups = [list(fams) for fams in self._cells.values()]
            counts = {"total": self._total, "done": self._done,
                      "resumed": self._resumed, "inflight": len(live)}
        groups = [[
            promparse.Family(f"repro_sweep_cells_{key}", "gauge", help_text, [
                promparse.Sample(f"repro_sweep_cells_{key}", {},
                                 counts[key], str(counts[key]))])
            for key, help_text in _PROGRESS_HELP.items()
        ]]
        for cell, telemetry in sorted(live.items()):
            try:
                families = _live_families(telemetry.metrics)
                # a histogram caught mid-update drops this cell from
                # this scrape only
                promparse.validate(families)
            except (RuntimeError, promparse.PromParseError):
                continue
            groups.append(promparse.add_labels(families, cell=cell))
        groups.extend(cell_groups)
        return promparse.render(promparse.merge(groups))


def serve_run_metrics(port: int,
                      out_dir: str | Path | None = None,
                      ) -> tuple[MetricsServer, SweepMetricsObserver]:
    """Start a metrics endpoint wired to a fresh sweep observer.

    The caller passes the observer to :class:`ScenarioRunner` and stops the
    server when the run ends.  Separated from the CLI so tests drive it
    directly.
    """
    observer = SweepMetricsObserver(out_dir=out_dir)
    server = MetricsServer(port)
    server.add_provider(observer.render)
    server.start()
    return server, observer
