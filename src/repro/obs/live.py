"""Live telemetry plane: trace propagation and scrapeable endpoints.

The batch observability layer (:mod:`repro.obs.metrics`,
:mod:`repro.obs.spans`) answers "what happened" after a run finishes —
per-worker snapshots merge into one deterministic registry. The paper's
§3 base station, however, is an *online* service: malicious-beacon
detection runs continuously, and an operator must be able to tell, while
it runs, whether the queue is draining, leases are being heartbeated,
and the revocation ledger is keeping up. This module adds that live
plane without touching the deterministic contract:

- :class:`TraceContext` — a ``trace_id`` plus remote parent span id,
  serialized into queue-backend task manifests and revocation replay
  batches so coordinator ``task:*`` spans, worker ``trial`` spans, and
  ``svc:flush`` spans stitch into one causally-linked trace
  (``tools/stitch_trace.py`` draws the cross-process edges);
- process-level span **namespace** and **trace context** accessors —
  a worker sets its namespace once (``set_process_span_namespace("w0")``)
  and every :class:`~repro.obs.spans.Observability` it creates mints
  globally unique string span ids (``"w0:1"``, ``"w0:2"``, ...);
- :class:`TelemetryServer` — a stdlib-only threaded HTTP server
  exposing ``/metrics`` (Prometheus text), ``/healthz`` (JSON), and
  ``/spans`` (recent-span ring buffer as JSON);
- liveness snapshot builders (:func:`queue_liveness_snapshot`) whose
  gauges follow the ``_max`` merge convention of
  :func:`repro.obs.metrics.merge_snapshots`, so scrapes from several
  processes reduce deterministically.

Everything here is wall-clock territory and therefore stays *out* of
the deterministic merged registries; nothing draws randomness, so
attaching a server (or propagating a trace context) leaves simulated
results bit-identical.

Paper section: §3 (the base station as an always-on, auditable service)
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
)

from repro.errors import ConfigurationError
from repro.obs.export import prometheus_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from http.server import ThreadingHTTPServer

#: Manifest / batch key under which a serialized trace context travels.
TRACE_KEY = "trace"

#: Default capacity of the /spans ring buffer.
SPAN_RING_CAPACITY = 256


def new_trace_id() -> str:
    """A fresh 128-bit trace id (hex).

    Uses :func:`uuid.uuid4` (``os.urandom`` underneath) — deliberately
    *not* the simulation's seeded RNG streams, so minting a trace id can
    never perturb a result.
    """
    return uuid.uuid4().hex


@dataclass(frozen=True)
class TraceContext:
    """A cross-process trace reference: trace id + remote parent span.

    ``parent_span_id`` is the *string* id of the span in another process
    that causally precedes work done under this context (e.g. the
    coordinator's ``task:figure05:s7`` span for a worker's ``trial``
    span). Empty string means "root of the trace".
    """

    trace_id: str
    parent_span_id: str = ""

    def to_dict(self) -> Dict[str, str]:
        """JSON-ready form, as embedded in task manifests."""
        return {"trace_id": self.trace_id, "parent_span_id": self.parent_span_id}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceContext":
        """Rebuild from :meth:`to_dict` output; validates the shape."""
        trace_id = data.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            raise ConfigurationError(
                f"trace context needs a non-empty trace_id, got {data!r}"
            )
        return cls(
            trace_id=trace_id,
            parent_span_id=str(data.get("parent_span_id", "")),
        )


# --------------------------------------------------------------------------
# Process-level span namespace / trace context
# --------------------------------------------------------------------------

_process_state = threading.local()


def set_process_span_namespace(namespace: Optional[str]) -> None:
    """Set (or clear, with None) this process's span-id namespace.

    Once set, every newly created
    :class:`~repro.obs.spans.Observability` mints string span ids
    ``"{namespace}:{n}"`` — deterministic per process, globally unique
    across a worker fleet when each worker uses its worker id.
    """
    _process_state.namespace = namespace


def process_span_namespace() -> Optional[str]:
    """The current process span namespace (None = plain integer ids)."""
    return getattr(_process_state, "namespace", None)


def set_process_trace_context(context: Optional[TraceContext]) -> None:
    """Set (or clear, with None) the ambient cross-process trace context.

    While set, root spans of newly created ``Observability`` objects
    carry ``trace_id`` (and, when non-empty, ``remote_parent``) in their
    attrs — the hooks :mod:`tools.stitch_trace` uses to draw
    cross-process parent edges.
    """
    _process_state.trace_context = context


def process_trace_context() -> Optional[TraceContext]:
    """The ambient trace context set for this process (or None)."""
    return getattr(_process_state, "trace_context", None)


def namespace_counter(namespace: str) -> "itertools.count":
    """The shared span-serial counter for ``namespace`` in this process.

    Every :class:`~repro.obs.spans.Observability` created under the same
    namespace draws from one counter, so a worker that runs several
    trials never mints the same ``"w0:<n>"`` id twice — ids stay
    globally unique across a whole stitched trace, not just within one
    trial. Deterministic per process: the same sequence of span opens
    yields the same serials.
    """
    counters = getattr(_process_state, "counters", None)
    if counters is None:
        counters = {}
        _process_state.counters = counters
    counter = counters.get(namespace)
    if counter is None:
        counter = itertools.count(1)
        counters[namespace] = counter
    return counter


class SpanRing:
    """A bounded, thread-safe ring of recently completed span dicts."""

    def __init__(self, capacity: int = SPAN_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError(f"ring capacity must be >= 1, got {capacity}")
        self._spans: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def append(self, span: Mapping[str, Any]) -> None:
        """Record one completed span (oldest entries fall off)."""
        with self._lock:
            self._spans.append(dict(span))

    def extend(self, spans: Iterable[Mapping[str, Any]]) -> None:
        """Record several completed spans in order."""
        with self._lock:
            for span in spans:
                self._spans.append(dict(span))

    def recent(self) -> List[Dict[str, Any]]:
        """The buffered spans, oldest first (a copy)."""
        with self._lock:
            return [dict(span) for span in self._spans]


# --------------------------------------------------------------------------
# Scrapeable endpoints
# --------------------------------------------------------------------------


class TelemetryServer:
    """A stdlib-only threaded HTTP server for live telemetry scrapes.

    Endpoints:

    - ``/metrics`` — ``snapshot_fn()`` rendered by
      :func:`repro.obs.export.prometheus_text`;
    - ``/healthz`` — ``health_fn()`` as JSON, HTTP 200 when its
      ``status`` is ``"ok"``, 503 otherwise;
    - ``/spans`` — ``spans_fn()`` (recent completed spans) as JSON.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`. The server runs on a daemon thread and is idle-cheap:
    snapshot callables are only invoked per scrape, never on the
    simulation hot path.
    """

    def __init__(
        self,
        snapshot_fn: Optional[Callable[[], Mapping[str, Any]]] = None,
        *,
        health_fn: Optional[Callable[[], Mapping[str, Any]]] = None,
        spans_fn: Optional[Callable[[], List[Dict[str, Any]]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._snapshot_fn = snapshot_fn or (
            lambda: {"counters": {}, "gauges": {}, "histograms": {}}
        )
        self._health_fn = health_fn or (lambda: {"status": "ok"})
        self._spans_fn = spans_fn or (lambda: [])
        self._host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (0 before :meth:`start`)."""
        return self._httpd.server_address[1] if self._httpd else 0

    @property
    def url(self) -> str:
        """Base URL of the running server (empty before start)."""
        return f"http://{self._host}:{self.port}" if self._httpd else ""

    def start(self) -> "TelemetryServer":
        """Bind and serve on a daemon thread; returns self for chaining.

        ``http.server`` is imported here, not at module import, so a run
        that never serves telemetry does not load it.
        """
        if self._httpd is not None:
            return self
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        snapshot_fn, health_fn, spans_fn = (
            self._snapshot_fn,
            self._health_fn,
            self._spans_fn,
        )

        class Handler(BaseHTTPRequestHandler):
            """Routes /metrics, /healthz, and /spans; 404 otherwise."""

            protocol_version = "HTTP/1.1"

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                """Serve one scrape."""
                path = self.path.split("?", 1)[0]
                json_type = "application/json"
                try:
                    if path == "/metrics":
                        self._reply(
                            200,
                            prometheus_text(snapshot_fn()),
                            "text/plain; version=0.0.4",
                        )
                    elif path == "/healthz":
                        health = health_fn()
                        status = 200 if health.get("status") == "ok" else 503
                        self._reply(
                            status, json.dumps(health, sort_keys=True), json_type
                        )
                    elif path == "/spans":
                        body = json.dumps(spans_fn(), sort_keys=True, default=repr)
                        self._reply(200, body, json_type)
                    else:
                        self._reply(404, json.dumps({"error": "not found"}), json_type)
                except Exception as exc:  # pragma: no cover - defensive
                    self._reply(500, json.dumps({"error": repr(exc)}), json_type)

            def _reply(self, code: int, body: str, content_type: str) -> None:
                payload = body.encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
                """Silence per-request stderr logging (scrapes are frequent)."""

        httpd = ThreadingHTTPServer((self._host, self._requested_port), Handler)
        httpd.daemon_threads = True
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name=f"telemetry:{httpd.server_address[1]}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "TelemetryServer":
        """Start on entry (context-manager form)."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Stop on exit."""
        self.stop()


# --------------------------------------------------------------------------
# Liveness snapshots (wall-clock; live plane only, never merged into the
# deterministic registries)
# --------------------------------------------------------------------------


def queue_liveness_snapshot(
    run_dir: os.PathLike,
    *,
    requeues: int = 0,
    steals: int = 0,
    now: Optional[float] = None,
) -> Dict[str, Any]:
    """Liveness gauges for one file-queue run directory.

    Scans the PR 7 layout (``tasks/``, ``leases/``, ``results/``) and
    returns a registry-shaped snapshot:

    - ``queue_depth`` — tasks not yet completed;
    - ``queue_inflight_leases`` — lease files currently held;
    - ``queue_heartbeat_age_seconds_max`` — staleness of the oldest
      lease heartbeat (``_max`` suffix → merges by max across scrapes);
    - ``queue_tasks_total`` / ``queue_results_total`` counters;
    - ``queue_requeues_total`` / ``queue_steals_total`` counters (from
      the caller's run stats, when available).

    Safe to call while workers are mutating the directory: a task file
    vanishing mid-scan is treated as completed.
    """
    root = Path(run_dir)
    wall = time.time() if now is None else now
    tasks = {p.stem for p in (root / "tasks").glob("*.json")}
    results = {p.stem for p in (root / "results").glob("*.json")}
    lease_ages: List[float] = []
    for lease in (root / "leases").glob("*.lease"):
        try:
            lease_ages.append(max(0.0, wall - lease.stat().st_mtime))
        except OSError:
            continue  # released between glob and stat
    depth = len(tasks - results)
    return {
        "counters": {
            "queue_tasks_total": len(tasks),
            "queue_results_total": len(results),
            "queue_requeues_total": int(requeues),
            "queue_steals_total": int(steals),
        },
        "gauges": {
            "queue_depth": depth,
            "queue_inflight_leases": len(lease_ages),
            "queue_heartbeat_age_seconds_max": max(lease_ages, default=0.0),
        },
        "histograms": {},
    }


def span_event_lines(
    telemetry: Mapping[str, Any],
    *,
    trial: str,
    process: Optional[str] = None,
) -> List[str]:
    """Completed spans of one telemetry dict as stitchable JSONL lines.

    One ``{"kind": "span", ...}`` JSON object per completed span, each
    stamped with the trial key, the producing process name, absolute
    wall time (``t0_epoch_s``, anchored at the telemetry's
    ``wall0_epoch``), and — when present in the span attrs — the
    ``trace_id`` / ``remote_parent`` hooks ``tools/stitch_trace.py``
    uses to connect processes.
    """
    wall0 = float(telemetry.get("wall0_epoch") or 0.0)
    proc = process or str(telemetry.get("process") or "main")
    lines: List[str] = []
    for span in telemetry.get("spans") or []:
        attrs = dict(span.get("attrs") or {})
        record = {
            "kind": "span",
            "trial": trial,
            "process": proc,
            "span": span["name"],
            "id": span["id"],
            "parent": span.get("parent", 0),
            "depth": span.get("depth", 0),
            "t0_epoch_s": wall0 + float(span.get("t0_wall_s", 0.0)),
            "dur_s": float(span.get("dur_wall_s", 0.0)),
            "sim_t0": span.get("t0_sim"),
            "sim_t1": span.get("t1_sim"),
            "attrs": attrs,
        }
        if "trace_id" in attrs:
            record["trace_id"] = attrs["trace_id"]
        if "remote_parent" in attrs:
            record["remote_parent"] = attrs["remote_parent"]
        lines.append(json.dumps(record, sort_keys=True, default=repr))
    return lines


def append_event_lines(path: os.PathLike, lines: List[str]) -> None:
    """Append JSONL lines to ``path`` (parents created; no-op if empty)."""
    if not lines:
        return
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    with destination.open("a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
