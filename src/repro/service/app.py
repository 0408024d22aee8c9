"""The HTTP surface: a long-running multi-tenant query/analysis service.

Stdlib only — :class:`http.server.ThreadingHTTPServer` accepts
connections, a **bounded worker pool** behind a request queue executes
runs (so a burst of heavy programs cannot fork unbounded work), and a
**sliding-window rate limiter** meters each tenant.  Flow control is
explicit in the status codes:

* ``429`` — the tenant exceeded its request rate (``Retry-After`` set);
* ``503`` — the run queue is full (global back-pressure);
* ``504`` — the run exceeded the synchronous response timeout (it keeps
  executing and is still persisted; poll ``GET /v1/runs``).

Endpoints (see ``docs/SERVICE.md`` for the full reference)::

    GET  /health                      liveness + store counters
    POST /v1/analyze                  classification certificate only
    POST /v1/runs                     classify, route, execute, persist
    GET  /v1/runs?tenant=T            list a tenant's runs (summaries)
    GET  /v1/runs/ID?tenant=T         one run, certificate + full report
    POST /v1/runs/ID/verify?tenant=T  re-verify against a fresh evaluation

A ``POST /v1/runs`` body becomes a :class:`repro.runtimes.Request` —
the one ``repro run`` and ``repro cluster`` build from their flags — and
goes through the one pipeline of :mod:`repro.runtimes`:
:func:`~repro.runtimes.plan_request` parses, plans (cheapest applicable
coordination-free protocol, the All-barrier when nothing weaker is sound
or the caller forces it, the per-stratum optimizer, or the ILOG¬
planner) and certifies; :func:`~repro.runtimes.run_request` executes on
the requested runtime (``eval`` = the synchronous simulator, ``cluster``
= the asyncio runtime, ``processes`` = one OS process per node) and
checks the output against ``Q(I)``.  This module keeps HTTP, tenancy,
the rate limiter, the queue and the
:class:`~repro.service.store.RunStore`, which persists the certificate,
decision, fingerprint and validated
:class:`~repro.transducers.telemetry.RunReport`.
"""

from __future__ import annotations

import functools
import json
import math
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from ..runtimes import Request, RequestError, plan_request, run_request
from ..transducers.telemetry import output_fingerprint
from .store import RunStore

__all__ = [
    "SERVICE_VERSION",
    "DEFAULT_RATE_LIMIT",
    "DEFAULT_RATE_WINDOW",
    "MODES",
    "ServiceConfig",
    "RateLimiter",
    "ReproService",
    "execute_request",
]

#: Reported in /health and the Server header; bumped on breaking changes.
SERVICE_VERSION = 1

#: Default per-tenant rate: at most this many requests per window.
DEFAULT_RATE_LIMIT = 120
DEFAULT_RATE_WINDOW = 10.0

#: Execution modes, and the :mod:`repro.runtimes` name each one maps to.
_RUNTIME_BY_MODE = {"eval": "sync", "cluster": "cluster", "processes": "processes"}
MODES = tuple(_RUNTIME_BY_MODE)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance (all have serving defaults)."""

    host: str = "127.0.0.1"
    port: int = 8765
    store_path: str = "repro-service.db"
    workers: int = 4
    queue_capacity: int = 64
    rate_limit: int = DEFAULT_RATE_LIMIT
    rate_window: float = DEFAULT_RATE_WINDOW
    request_timeout: float = 120.0
    default_nodes: int = 3
    max_nodes: int = 8
    max_body_bytes: int = 1 << 20
    quiet: bool = True


class RateLimiter:
    """Sliding-window per-tenant limiter: at most *limit* requests in any
    trailing *window* seconds.  :meth:`check` returns ``None`` to admit or
    the seconds until the oldest in-window request expires (the
    ``Retry-After`` value)."""

    def __init__(self, limit: int, window: float) -> None:
        self._limit = max(1, int(limit))
        self._window = float(window)
        self._lock = threading.Lock()
        self._events: dict[str, deque[float]] = {}

    def check(self, tenant: str) -> float | None:
        now = time.monotonic()
        with self._lock:
            events = self._events.setdefault(tenant, deque())
            while events and now - events[0] > self._window:
                events.popleft()
            if len(events) >= self._limit:
                return max(self._window - (now - events[0]), 0.001)
            events.append(now)
            return None


# ----------------------------------------------------------------------
# Request execution (pure function of payload + store; also used directly
# by tests and the load benchmark)
# ----------------------------------------------------------------------


#: The JSON switches that pick a planner; at most one may be set.
_PLANNER_SWITCHES = {"force_barrier": "barrier", "optimize": "optimize", "ilog": "ilog"}


def _switch(payload: dict[str, Any], key: str) -> bool:
    value = payload.get(key, False)
    if not isinstance(value, bool):
        raise RequestError(f"'{key}' must be a boolean")
    return value


def _planner(payload: dict[str, Any]) -> str:
    """The planner the payload's switches name (``default`` when none is)."""
    chosen = [key for key in _PLANNER_SWITCHES if _switch(payload, key)]
    if len(chosen) > 1:
        raise RequestError(f"'{chosen[0]}' does not combine with '{chosen[1]}'")
    return _PLANNER_SWITCHES[chosen[0]] if chosen else "default"


def _request(
    payload: dict[str, Any], config: ServiceConfig
) -> tuple[str, str, Request]:
    """``(tenant, mode, request)`` for a ``POST /v1/runs`` body."""
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    tenant = payload.get("tenant")
    if not tenant or not isinstance(tenant, str):
        raise RequestError("'tenant' must be a non-empty string")
    mode = payload.get("mode", "eval")
    if mode not in MODES:
        raise RequestError(f"'mode' must be one of {', '.join(MODES)}")
    request = Request(
        program=payload.get("program"),
        facts=payload.get("facts", ""),
        runtime=_RUNTIME_BY_MODE[mode],
        nodes=payload.get("nodes", config.default_nodes),
        seed=payload.get("seed", 0),
        planner=_planner(payload),
        check_pairs=payload.get("check_pairs", 0),
    )
    if request.nodes > config.max_nodes:
        raise RequestError(f"'nodes' must be an integer in 1..{config.max_nodes}")
    return tenant, mode, request


def execute_request(
    store: RunStore, payload: dict[str, Any], *, config: ServiceConfig | None = None
) -> tuple[int, dict[str, Any]]:
    """The whole POST /v1/runs pipeline; returns (http_status, body).

    Every accepted request is persisted — including ones that fail to
    parse (status ``rejected``) — so the store is a complete audit log.
    """
    config = config or ServiceConfig()
    started = time.perf_counter()
    try:
        tenant, mode, request = _request(payload, config)
    except RequestError as error:
        return 400, {"error": str(error)}
    request_id = store.record_request(
        tenant,
        mode=mode,
        program=request.program,
        facts=request.facts,
        options={
            "nodes": request.nodes,
            "seed": request.seed,
            **{key: request.planner == name for key, name in _PLANNER_SWITCHES.items()},
            "check_pairs": request.check_pairs,
        },
    )
    record = functools.partial(
        store.record_run, tenant, request_id, mode=mode, program=request.program
    )
    try:
        planned = plan_request(request)
    except RequestError as error:
        elapsed = time.perf_counter() - started
        record(status="rejected", elapsed_s=elapsed, error=str(error))
        return 400, {"error": str(error)}
    judged = {"certificate": planned.certificate, "decision": planned.decision}
    try:
        outcome = run_request(planned)
        observation, violations = outcome.observation, outcome.violations
        result = observation.output
        report = observation.report.to_dict()
        status = "failed" if violations else "ok"
        error_text = violations[0].describe() if violations else None
        elapsed = time.perf_counter() - started
        run_id = record(
            status=status,
            report=report,
            output_fingerprint=observation.fingerprint,
            output_facts=len(result),
            elapsed_s=elapsed,
            error=error_text,
            **judged,
        )
    except Exception as error:  # execution failure: recorded, surfaced as 500
        elapsed = time.perf_counter() - started
        record(status="failed", elapsed_s=elapsed, error=str(error), **judged)
        return 500, {"error": str(error)}
    body = {
        "run_id": run_id,
        "tenant": tenant,
        "mode": mode,
        "status": status,
        "quiesced": observation.quiesced,
        "matches_centralized": result == outcome.spec.final,
        **judged,
        "output_fingerprint": observation.fingerprint,
        "output_facts": len(result),
        "elapsed_s": round(elapsed, 6),
        "report": report,
    }
    if error_text is not None:
        body["error"] = error_text
    return (200 if status == "ok" else 500), body


def _verify_run(store: RunStore, tenant: str, run_id: str) -> tuple[int, dict]:
    """POST /v1/runs/ID/verify: recompute Q(I) in-process and compare."""
    record = store.get_run(tenant, run_id)
    request = store.request_for_run(tenant, run_id)
    if record is None or request is None:
        return 404, {"error": f"no run {run_id!r} for tenant {tenant!r}"}
    if record["output_fingerprint"] is None:
        return 409, {"error": f"run {run_id!r} stored no fingerprint to verify"}
    try:
        planner = "ilog" if request["options"].get("ilog") else "default"
        stored = Request(request["program"], request["facts"], planner=planner)
        planned = plan_request(stored)
        recomputed = output_fingerprint(planned.plan.query(planned.instance))
    except Exception as error:
        return 500, {"error": f"re-evaluation failed: {error}"}
    ok = recomputed == record["output_fingerprint"]
    store.set_verified(tenant, run_id, ok)
    return 200, {
        "run_id": run_id,
        "verified": ok,
        "stored_fingerprint": record["output_fingerprint"],
        "recomputed_fingerprint": recomputed,
    }


def _analyze_only(payload: dict[str, Any]) -> tuple[int, dict]:
    """POST /v1/analyze: the certificate without execution or storage."""
    try:
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        request = Request(
            payload.get("program"),
            seed=payload.get("seed", 0),
            planner="ilog" if _switch(payload, "ilog") else "default",
            check_pairs=payload.get("check_pairs", 0),
        )
        return 200, {"certificate": plan_request(request).certificate}
    except RequestError as error:
        return 400, {"error": str(error)}


# ----------------------------------------------------------------------
# The server: worker pool + HTTP handler
# ----------------------------------------------------------------------


@dataclass
class _Job:
    payload: dict[str, Any]
    done: threading.Event = field(default_factory=threading.Event)
    status: int = 500
    body: dict[str, Any] = field(default_factory=dict)


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-service/{SERVICE_VERSION}"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> "ReproService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        if not self.service.config.quiet:
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------

    def _send(self, status: int, body: dict, headers: dict | None = None) -> None:
        blob = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # One write per response.  ``wfile`` is unbuffered, so headers and
        # body written apart leave as two TCP segments, and on a kept-alive
        # connection the second stalls ~40 ms on Nagle + delayed ACK.
        self._headers_buffer.append(b"\r\n" + blob)
        self.flush_headers()

    def _json_body(self) -> dict | None:
        length = int(self.headers.get("Content-Length") or 0)
        if length > self.service.config.max_body_bytes:
            self._send(413, {"error": "request body too large"})
            return None
        try:
            return json.loads(self.rfile.read(length) or b"{}")
        except json.JSONDecodeError as error:
            self._send(400, {"error": f"invalid JSON body: {error}"})
            return None

    def _tenant_param(self, query: dict) -> str | None:
        tenant = (query.get("tenant") or [None])[0] or self.headers.get(
            "X-Repro-Tenant"
        )
        if not tenant:
            self._send(400, {"error": "pass ?tenant=NAME (or X-Repro-Tenant)"})
            return None
        return tenant

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        url = urlparse(self.path)
        query = parse_qs(url.query)
        parts = [p for p in url.path.split("/") if p]
        service = self.service
        if url.path == "/health":
            store = service.store
            self._send(
                200,
                {
                    "status": "ok",
                    "version": SERVICE_VERSION,
                    "store": store.path,
                    "tenants": len(store.tenants()),
                    "runs": store.run_count(),
                    "queue_depth": service.queue_depth(),
                },
            )
            return
        if parts[:2] == ["v1", "runs"] and len(parts) == 2:
            tenant = self._tenant_param(query)
            if tenant is None:
                return
            try:
                limit = int((query.get("limit") or ["50"])[0])
            except ValueError:
                self._send(400, {"error": "'limit' must be an integer"})
                return
            limit = max(1, min(limit, 500))
            self._send(
                200,
                {"tenant": tenant, "runs": service.store.list_runs(tenant, limit=limit)},
            )
            return
        if parts[:2] == ["v1", "runs"] and len(parts) == 3:
            tenant = self._tenant_param(query)
            if tenant is None:
                return
            record = service.store.get_run(tenant, parts[2])
            if record is None:
                self._send(
                    404, {"error": f"no run {parts[2]!r} for tenant {tenant!r}"}
                )
                return
            record["tenant"] = tenant
            self._send(200, record)
            return
        self._send(404, {"error": f"unknown path {url.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
        url = urlparse(self.path)
        query = parse_qs(url.query)
        parts = [p for p in url.path.split("/") if p]
        service = self.service
        body = self._json_body()
        if body is None:
            return
        if url.path == "/v1/analyze":
            tenant = body.get("tenant") if isinstance(body, dict) else None
            retry = service.limiter.check(tenant or "<anonymous>")
            if retry is not None:
                self._send_rate_limited(retry)
                return
            status, payload = _analyze_only(body)
            self._send(status, payload)
            return
        if url.path == "/v1/runs":
            tenant = body.get("tenant") if isinstance(body, dict) else None
            if not tenant or not isinstance(tenant, str):
                self._send(400, {"error": "'tenant' must be a non-empty string"})
                return
            retry = service.limiter.check(tenant)
            if retry is not None:
                self._send_rate_limited(retry)
                return
            job = _Job(payload=body)
            if not service.submit(job):
                retry_after = service.backpressure_retry_after()
                self._send(
                    503,
                    {
                        "error": "run queue is full; retry later",
                        "retry_after": round(retry_after, 3),
                    },
                    {"Retry-After": str(max(1, math.ceil(retry_after)))},
                )
                return
            if not job.done.wait(service.config.request_timeout):
                self._send(
                    504,
                    {
                        "error": "run still executing; it will be persisted — "
                        "poll GET /v1/runs"
                    },
                )
                return
            self._send(job.status, job.body)
            return
        if parts[:2] == ["v1", "runs"] and len(parts) == 4 and parts[3] == "verify":
            tenant = self._tenant_param(query)
            if tenant is None:
                return
            retry = service.limiter.check(tenant)
            if retry is not None:
                self._send_rate_limited(retry)
                return
            status, payload = _verify_run(service.store, tenant, parts[2])
            self._send(status, payload)
            return
        self._send(404, {"error": f"unknown path {url.path!r}"})

    def _send_rate_limited(self, retry_after: float) -> None:
        self._send(
            429,
            {"error": "rate limit exceeded", "retry_after": round(retry_after, 3)},
            {"Retry-After": str(max(1, math.ceil(retry_after)))},
        )


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class ReproService:
    """One service instance: HTTP server + worker pool + store.

    Typical embedded use (tests, the load benchmark)::

        service = ReproService(ServiceConfig(port=0, store_path=path))
        service.start_in_thread()
        ... requests against f"http://127.0.0.1:{service.port}" ...
        service.shutdown()

    The CLI (``repro serve``) does the same and calls :meth:`shutdown`
    once a signal arrives.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.store = RunStore(self.config.store_path)
        self.limiter = RateLimiter(self.config.rate_limit, self.config.rate_window)
        self._queue: queue.Queue[_Job | None] = queue.Queue(
            maxsize=self.config.queue_capacity
        )
        self._workers: list[threading.Thread] = []
        # Recent per-job wall times, appended by the worker pool — the
        # drain-rate estimate behind 503 Retry-After hints.
        self._recent_elapsed: deque[float] = deque(maxlen=32)
        self._elapsed_lock = threading.Lock()
        self._httpd: _Server | None = None
        self._serve_thread: threading.Thread | None = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("service not started")
        return self._httpd.server_address[1]

    def start(self) -> "ReproService":
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._httpd = _Server((self.config.host, self.config.port), _Handler)
        self._httpd.service = self  # type: ignore[attr-defined]
        for index in range(max(1, self.config.workers)):
            worker = threading.Thread(
                target=self._worker_loop, name=f"repro-svc-worker-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        return self

    def start_in_thread(self) -> "ReproService":
        self.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,  # type: ignore[union-attr]
            kwargs={"poll_interval": 0.2},
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting, drain the workers, close the store."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=10.0)
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
        self.store.close()

    # -- the worker pool ---------------------------------------------------

    def submit(self, job: _Job) -> bool:
        try:
            self._queue.put_nowait(job)
            return True
        except queue.Full:
            return False

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def backpressure_retry_after(self) -> float:
        """Seconds until the full queue plausibly has room again: the
        backlog ahead of a would-be entrant divided across the worker
        pool, at the observed per-job wall time (the limiter's per-slot
        window when no job has finished yet)."""
        with self._elapsed_lock:
            if self._recent_elapsed:
                per_job = sum(self._recent_elapsed) / len(self._recent_elapsed)
            else:
                per_job = self.config.rate_window / max(1, self.config.rate_limit)
        workers = max(1, len(self._workers) or self.config.workers)
        backlog = max(1, self.queue_depth())
        return max(0.001, backlog * per_job / workers)

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            started = time.monotonic()
            try:
                job.status, job.body = execute_request(
                    self.store, job.payload, config=self.config
                )
            except Exception as error:  # defensive: a worker must never die
                job.status, job.body = 500, {"error": f"internal error: {error}"}
            finally:
                job.done.set()
                with self._elapsed_lock:
                    self._recent_elapsed.append(time.monotonic() - started)
