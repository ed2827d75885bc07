"""CLI-side bundle wiring the fleet telemetry pieces together.

Both experiment CLIs (``python -m repro <experiment>`` and ``python -m
repro plan run``) accept ``--events-log``, ``--serve`` and
``--profile-shards``; this module gives them one object that owns the
optional pieces — event-log writer, metrics registry, dashboard server —
and points the dashboard's ``/fleet`` and an event logger at each farm
battery as it starts.

Determinism note: the telemetry registry is activated **only around farm
construction** (so the cache/executor publish the farm counter trio), never
around task execution — simulations keep binding from the process-wide
disabled default, so result dicts and spec hashes are bit-identical with
telemetry on or off.  All status chatter goes to stderr; stdout stays
byte-stable for the CI serial-vs-parallel diffs.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Iterator, Optional

from repro.obs.events import EventLogWriter, FarmEventLogger
from repro.obs.fleet import fleet_snapshot
from repro.obs.metrics import MetricsRegistry, use_registry

__all__ = ["FleetTelemetry"]


class FleetTelemetry:
    """Owns the optional event log, registry and dashboard for one CLI run."""

    def __init__(
        self,
        events_log: Optional[str] = None,
        serve: Optional[int] = None,
        serve_grace: float = 0.0,
        name: str = "",
    ) -> None:
        self.serve_grace = serve_grace
        self.name = name
        self.registry: Optional[MetricsRegistry] = None
        self.writer: Optional[EventLogWriter] = None
        self.server = None
        self._logger: Optional[FarmEventLogger] = None
        if events_log:
            self.writer = EventLogWriter(events_log, name=name)
        if serve is not None:
            from repro.obs.dashboard import DashboardServer

            self.registry = MetricsRegistry(enabled=True)
            self.server = DashboardServer(registry=self.registry, port=serve)
            self.server.start()
            print(f"[fleet dashboard on {self.server.url} (/metrics /fleet)]",
                  file=sys.stderr)

    @contextlib.contextmanager
    def farm_registry(self) -> Iterator[None]:
        """Activate the fleet registry for farm construction only."""
        if self.registry is None:
            yield
        else:
            with use_registry(self.registry):
                yield

    def attach(self, farm) -> None:
        """Point the telemetry at a new farm battery (detaching the last).

        ``/fleet`` is named after the run, as the log's ``log.open`` is,
        so ``fleet watch --events`` reads what the dashboard served.
        """
        if self._logger is not None:
            self._logger.detach()
            self._logger = None
        if self.server is not None:
            self.server.fleet = functools.partial(
                fleet_snapshot, farm.progress, farm.cache, farm.jobs, self.name
            )
        if self.writer is not None:
            self._logger = FarmEventLogger(self.writer, farm.progress)

    def close(self) -> None:
        """Flush the log and (after any grace window) stop the server."""
        if self._logger is not None:
            self._logger.detach()
            self._logger = None
        if self.writer is not None and not self.writer.closed:
            path = self.writer.path
            events = self.writer.events_written + 1  # + log.close
            self.writer.close()
            print(f"[event log: {events} events -> {path}]", file=sys.stderr)
        if self.server is not None:
            if self.serve_grace > 0:
                print(f"[dashboard serving for {self.serve_grace:g}s more "
                      f"at {self.server.url}]", file=sys.stderr)
                time.sleep(self.serve_grace)
            self.server.stop()
            self.server = None
