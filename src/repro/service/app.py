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

Every ``POST /v1/runs`` goes through the same pipeline: parse →
classify (:func:`repro.core.certificate.certificate_for_plan`) → route
(cheapest applicable coordination-free protocol, or the All-barrier
when nothing weaker is sound, or when the caller forces it for an A/B
cost comparison) → execute on the requested runtime (``eval`` = the
synchronous in-process simulator over the columnar kernel, ``cluster``
= the asyncio runtime, ``processes`` = one OS process per node) →
persist certificate, decision, fingerprint and the validated
:class:`~repro.transducers.telemetry.RunReport` in the
:class:`~repro.service.store.RunStore`.
"""

from __future__ import annotations

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

from ..core.analyzer import (
    network_for_plan,
    plan_distribution,
    plan_ilog_distribution,
    query_for,
)
from ..core.certificate import (
    certificate_for_plan,
    ilog_certificate_for_plan,
    protocol_reason,
)
from ..datalog.instance import Instance
from ..datalog.parser import parse_facts, parse_program
from ..runtimes import execute, node_names, refines, spec_for
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


class _BadRequest(ValueError):
    """A client error: reported as 400 with the message, never a 500."""


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


def _validated(payload: dict[str, Any], config: ServiceConfig) -> dict[str, Any]:
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    tenant = payload.get("tenant")
    if not tenant or not isinstance(tenant, str):
        raise _BadRequest("'tenant' must be a non-empty string")
    program = payload.get("program")
    if not program or not isinstance(program, str):
        raise _BadRequest("'program' must be a non-empty string")
    facts = payload.get("facts", "")
    if not isinstance(facts, str):
        raise _BadRequest("'facts' must be a string of facts")
    mode = payload.get("mode", "eval")
    if mode not in MODES:
        raise _BadRequest(f"'mode' must be one of {', '.join(MODES)}")
    nodes = payload.get("nodes", config.default_nodes)
    if not isinstance(nodes, int) or not 1 <= nodes <= config.max_nodes:
        raise _BadRequest(f"'nodes' must be an integer in 1..{config.max_nodes}")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int):
        raise _BadRequest("'seed' must be an integer")
    force_barrier = bool(payload.get("force_barrier", False))
    optimize = bool(payload.get("optimize", False))
    ilog = bool(payload.get("ilog", False))
    check_pairs = payload.get("check_pairs", 0)
    if not isinstance(check_pairs, int) or not 0 <= check_pairs <= 500:
        raise _BadRequest("'check_pairs' must be an integer in 0..500")
    if ilog and mode != "eval":
        raise _BadRequest("ILOG programs run in mode 'eval' only")
    if ilog and force_barrier:
        raise _BadRequest("'force_barrier' does not combine with 'ilog'")
    if optimize and ilog:
        raise _BadRequest("'optimize' does not combine with 'ilog'")
    if optimize and force_barrier:
        raise _BadRequest(
            "'optimize' does not combine with 'force_barrier' (the "
            "optimizer's whole point is to avoid the barrier)"
        )
    if ilog and check_pairs:
        raise _BadRequest(
            "'check_pairs' does not combine with 'ilog' (value invention "
            "makes the empirical oracle ill-defined)"
        )
    return {
        "tenant": tenant,
        "program": program,
        "facts": facts,
        "mode": mode,
        "nodes": nodes,
        "seed": seed,
        "force_barrier": force_barrier,
        "optimize": optimize,
        "ilog": ilog,
        "check_pairs": check_pairs,
    }


def _plan_and_certificate(request: dict[str, Any], facts: int):
    """Parse + classify; returns (plan, certificate, decision).

    *facts* is the size of the parsed input, for the optimizer's cost
    prediction.
    """
    forced = request["force_barrier"]
    reason, extra = None, {}
    if request["ilog"]:
        from ..ilog.program import parse_ilog_program

        program = parse_ilog_program(request["program"])
        plan = plan_ilog_distribution(program)
        cert = ilog_certificate_for_plan(program, plan)
    elif request["optimize"]:
        from ..optimizer import plan_certificate, plan_optimized

        program = parse_program(request["program"])
        optimized = plan_optimized(program)
        plan = optimized.plan
        cert = plan_certificate(
            program,
            nodes=request["nodes"],
            facts=facts,
            check_pairs=request["check_pairs"],
            seed=request["seed"],
        )
        reason = optimized.reason
        extra = {
            "optimized": True,
            "effective_monotonicity": optimized.effective_monotonicity,
            "upgraded": optimized.upgraded,
        }
    else:
        program = parse_program(request["program"])
        plan = plan_distribution(program, force_barrier=forced)
        cert = certificate_for_plan(
            program,
            plan,
            forced_barrier=forced,
            check_pairs=request["check_pairs"],
            seed=request["seed"],
        )
    decision = {
        "protocol": plan.transducer.name,
        "requires_barrier": plan.requires_barrier,
        "forced_barrier": forced,
        "model": plan.analysis.model,
        "coordination_class": plan.analysis.coordination_class,
        "reason": reason or protocol_reason(plan, forced_barrier=forced),
        **extra,
    }
    return plan, cert, decision


def _execute_plan(plan, request: dict[str, Any], instance: Instance):
    """Run the planned protocol on the requested runtime; the
    :class:`~repro.runtimes.Observation`.

    Every mode runs the network of the plan the certificate describes.
    """
    network = network_for_plan(plan, node_names(request["nodes"]))
    runtime = _RUNTIME_BY_MODE[request["mode"]]
    return execute(runtime, network, instance, seed=request["seed"])


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
        request = _validated(payload, config)
    except _BadRequest as error:
        return 400, {"error": str(error)}
    request_id = store.record_request(
        request["tenant"],
        mode=request["mode"],
        program=request["program"],
        facts=request["facts"],
        options={
            key: request[key]
            for key in (
                "nodes",
                "seed",
                "force_barrier",
                "optimize",
                "ilog",
                "check_pairs",
            )
        },
    )
    try:
        instance = Instance(parse_facts(request["facts"]))
        plan, cert, decision = _plan_and_certificate(request, len(instance))
    except Exception as error:  # parse/classification errors are client errors
        store.record_run(
            request["tenant"],
            request_id,
            mode=request["mode"],
            status="rejected",
            program=request["program"],
            elapsed_s=time.perf_counter() - started,
            error=str(error),
        )
        return 400, {"error": str(error)}
    try:
        observation = _execute_plan(plan, request, instance)
        result, quiesced = observation.output, observation.quiesced
        report = observation.report.to_dict()
        spec = spec_for(plan.query, instance)
        violations = refines(observation, spec)
        matches = result == spec.final
        status = "failed" if violations else "ok"
        error_text = violations[0].describe() if violations else None
        elapsed = time.perf_counter() - started
        run_id = store.record_run(
            request["tenant"],
            request_id,
            mode=request["mode"],
            status=status,
            program=request["program"],
            decision=decision,
            certificate=cert,
            report=report,
            output_fingerprint=observation.fingerprint,
            output_facts=len(result),
            elapsed_s=elapsed,
            error=error_text,
        )
    except Exception as error:  # execution failure: recorded, surfaced as 500
        store.record_run(
            request["tenant"],
            request_id,
            mode=request["mode"],
            status="failed",
            program=request["program"],
            decision=decision,
            certificate=cert,
            elapsed_s=time.perf_counter() - started,
            error=str(error),
        )
        return 500, {"error": str(error)}
    body = {
        "run_id": run_id,
        "tenant": request["tenant"],
        "mode": request["mode"],
        "status": status,
        "quiesced": quiesced,
        "matches_centralized": matches,
        "certificate": cert,
        "decision": decision,
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
        instance = Instance(parse_facts(request["facts"]))
        if request["options"].get("ilog"):
            from ..ilog.program import parse_ilog_program

            query = plan_ilog_distribution(
                parse_ilog_program(request["program"])
            ).query
        else:
            query = query_for(parse_program(request["program"]))
        recomputed = output_fingerprint(query(instance))
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
    if not isinstance(payload, dict) or not isinstance(payload.get("program"), str):
        return 400, {"error": "'program' must be a string"}
    check_pairs = payload.get("check_pairs", 0)
    if not isinstance(check_pairs, int) or not 0 <= check_pairs <= 500:
        return 400, {"error": "'check_pairs' must be an integer in 0..500"}
    try:
        if payload.get("ilog"):
            from ..ilog.program import parse_ilog_program

            program = parse_ilog_program(payload["program"])
            cert = ilog_certificate_for_plan(program, plan_ilog_distribution(program))
        else:
            from ..core.certificate import certificate

            cert = certificate(
                parse_program(payload["program"]),
                check_pairs=check_pairs,
                seed=int(payload.get("seed", 0) or 0),
            )
    except Exception as error:
        return 400, {"error": str(error)}
    return 200, {"certificate": cert}


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

    The CLI (``repro serve``) calls :meth:`serve_forever` on the main
    thread and :meth:`shutdown` from its signal handlers.
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

    def serve_forever(self) -> None:
        if self._httpd is None:
            self.start()
        assert self._httpd is not None
        self._httpd.serve_forever(poll_interval=0.2)

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
