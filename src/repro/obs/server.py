"""Stdlib-only threaded HTTP telemetry server for live runs.

ROADMAP item 3 asks for the :class:`~repro.obs.metrics.MetricsRegistry`
"on a real Prometheus scrape endpoint"; this is it.  The server owns no
simulation state: the *simulation* thread publishes pre-rendered
Prometheus text with :meth:`TelemetryServer.publish`, and the HTTP
threads serve the latest text under a lock.  Scrapes therefore never
touch live engine structures mid-mutation, and the sim thread never
blocks on a slow client.

It serves one endpoint, ``GET /metrics``: Prometheus text exposition
(``text/plain; version=0.0.4``), round-trippable through
:func:`~repro.obs.metrics.parse_prometheus_text`.  Any other path is a
404.

Attach points: ``SimConfig(serve=...)`` for single runs (the
:class:`EngineTelemetry` sampler listener republishes at every sampler
boundary), ``run_campaign(serve=...)`` and the fabric coordinator
(each publishes the ``cr_campaign_*`` registry folded from its store,
see :class:`~repro.campaign.monitor.CampaignView`), and ``cr-sim
run|trace|campaign run --serve [HOST:]PORT``.

A serve spec is a port (``9100``), a ``"[HOST:]PORT"`` string
(``"0.0.0.0:9100"``), ``True`` (loopback, ephemeral port -- the form
tests and CI use; read the bound port back from ``server.port``), or
an already-constructed :class:`TelemetryServer`.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.engine import Engine

ServeSpec = Union[bool, int, str, Tuple[str, int], "TelemetryServer"]

#: served before the first publish, so early scrapes still round-trip.
_EMPTY_METRICS = "# no metrics published yet\n"


def parse_serve(spec: ServeSpec) -> Tuple[str, int]:
    """Coerce a serve spec into a ``(host, port)`` bind address.

    ``True`` binds loopback on an ephemeral port; a bare int or
    ``"PORT"`` binds loopback on that port; ``"HOST:PORT"`` binds
    explicitly.  A port outside 0-65535 is a ``ValueError``.
    """
    if spec is True:
        return ("127.0.0.1", 0)
    if isinstance(spec, bool):  # False: callers guard, but be safe
        raise ValueError("serve spec is disabled (False)")
    if isinstance(spec, int):
        host, port = "127.0.0.1", spec
    elif isinstance(spec, tuple) and len(spec) == 2:
        host, port = str(spec[0]), int(spec[1])
    elif isinstance(spec, str):
        host, _, text = spec.rpartition(":")
        try:
            host, port = host or "127.0.0.1", int(text)
        except ValueError:
            raise ValueError(
                f"serve spec {spec!r} is not [HOST:]PORT"
            ) from None
    else:
        raise ValueError(f"cannot parse serve spec {spec!r}")
    if not 0 <= port <= 65535:
        raise ValueError(
            f"serve spec {spec!r}: port {port} is outside 0-65535"
        )
    return (host, port)


class _Handler(BaseHTTPRequestHandler):
    """Serves the owning :class:`TelemetryServer`'s latest text."""

    server_version = "cr-telemetry"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:
        pass  # scrapers poll; never spam the sim's stderr

    def _send(self, body: str, content_type: str,
              code: int = 200) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        telemetry: "TelemetryServer" = self.server.telemetry  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            self._send(telemetry.metrics_text(),
                       "text/plain; version=0.0.4; charset=utf-8")
        else:
            self._send(f"no such endpoint {path!r}\n",
                       "text/plain; charset=utf-8", code=404)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    telemetry: "TelemetryServer"


class TelemetryServer:
    """Threaded HTTP server over the latest published metrics text.

    Construction binds the socket (so an ephemeral ``port=0`` resolves
    immediately); :meth:`start` begins serving on a daemon thread,
    :meth:`stop` shuts it down.  Publishing and serving synchronise on
    one internal lock; the publisher renders the text on the sim side
    (see module docstring).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._httpd = _Server((host, port), _Handler)
        self._httpd.telemetry = self
        self.host, self.port = self._httpd.server_address[:2]
        self._lock = threading.Lock()
        self._metrics_text = _EMPTY_METRICS
        self._thread: Optional[threading.Thread] = None
        self.publishes = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def url(self) -> str:
        host = "127.0.0.1" if self.host == "0.0.0.0" else self.host
        return f"http://{host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "TelemetryServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name=f"cr-telemetry:{self.port}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    # -- snapshot exchange ----------------------------------------------

    def publish(self, metrics_text: str) -> None:
        """Swap in new Prometheus text."""
        with self._lock:
            self._metrics_text = metrics_text
            self.publishes += 1

    def metrics_text(self) -> str:
        with self._lock:
            return self._metrics_text


def make_telemetry_server(spec: ServeSpec) -> TelemetryServer:
    """Coerce a serve spec into a *started* :class:`TelemetryServer`."""
    if isinstance(spec, TelemetryServer):
        return spec.start()
    host, port = parse_serve(spec)
    return TelemetryServer(host, port).start()


class EngineTelemetry:
    """Sampler listener publishing one engine's metrics to a server.

    Rides ``engine.sampler.listeners`` (``SimConfig(serve=...)`` wires
    it), so a fresh ``/metrics`` text lands at every sampler boundary;
    :meth:`close` publishes the final registry and stops the server if
    this publisher started it.
    """

    def __init__(self, server: TelemetryServer,
                 owns_server: bool = True) -> None:
        self.server = server
        self.owns_server = owns_server

    def on_sample(self, engine: "Engine", sample: Dict[str, Any]) -> None:
        self.publish(engine)

    def publish(self, engine: "Engine") -> None:
        from .metrics import engine_metrics

        self.server.publish(engine_metrics(engine).prometheus_text())

    def close(self, engine: "Engine") -> None:
        """Publish the end-of-run registry; stop an owned server."""
        self.publish(engine)
        if self.owns_server:
            self.server.stop()
