"""Stdlib-only live dashboard: Prometheus text + ``/fleet`` JSON.

A :class:`DashboardServer` wraps :class:`http.server.ThreadingHTTPServer`
on a daemon thread serving:

* ``GET /metrics`` — the Prometheus text exposition of the attached
  :class:`~repro.obs.metrics.MetricsRegistry` (the farm counter trio,
  plus whatever else published to it);
* ``GET /fleet``   — the JSON picture the attached ``fleet`` callable
  returns (:func:`~repro.obs.fleet.fleet_snapshot`: progress,
  per-runner tallies, cache hit rate, in-flight specs, EWMA ETA, digest
  feed); ``fleet watch --url`` polls this;
* ``GET /``        — a tiny index naming the endpoints.

``port=0`` binds an ephemeral port (CI uses this); :meth:`start` returns
the bound port.  ``fleet`` and ``registry`` are plain mutable attributes
so a CLI running several farm batteries can re-point the server at each
new battery without rebinding the socket.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import urlparse

__all__ = ["DashboardServer"]

_INDEX = (
    "repro fleet dashboard\n"
    "  /metrics  Prometheus text exposition\n"
    "  /fleet    JSON fleet snapshot\n"
)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-fleet/1"

    # the dashboard is telemetry, not a service: never log to stderr
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def _send(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._route()
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def _route(self) -> None:
        url = urlparse(self.path)
        dashboard: "DashboardServer" = self.server.dashboard  # type: ignore[attr-defined]
        if url.path == "/":
            self._send(200, _INDEX, "text/plain; charset=utf-8")
        elif url.path == "/metrics":
            registry = dashboard.registry
            body = registry.render_prometheus() if registry is not None else ""
            self._send(200, body, "text/plain; version=0.0.4; charset=utf-8")
        elif url.path == "/fleet":
            fleet = dashboard.fleet
            if fleet is None:
                self._send(503, '{"error": "no fleet attached"}\n', "application/json")
                return
            body = json.dumps(fleet(), sort_keys=True, indent=1)
            self._send(200, body + "\n", "application/json")
        else:
            self._send(404, "not found\n", "text/plain; charset=utf-8")


class DashboardServer:
    """Daemon-threaded HTTP server over a fleet picture and a registry.

    ``fleet`` is a zero-argument callable returning the ``/fleet``
    payload, or ``None`` (``/fleet`` then answers 503).
    """

    def __init__(
        self,
        fleet=None,
        registry=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.fleet = fleet
        self.registry = registry
        self.host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> Optional[int]:
        return self._httpd.server_address[1] if self._httpd is not None else None

    @property
    def url(self) -> Optional[str]:
        return f"http://{self.host}:{self.port}" if self._httpd is not None else None

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        if self._httpd is not None:
            return self.port  # type: ignore[return-value]
        self._httpd = ThreadingHTTPServer((self.host, self._requested_port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.dashboard = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-fleet-dashboard",
            daemon=True,
        )
        self._thread.start()
        return self.port  # type: ignore[return-value]

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "DashboardServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
