"""service_mix: ``repro serve`` in its own process, driven over HTTP by two
closed-loop client connections (= nproc).

The only workload crossing HTTP, the worker queue and ``service.store``.
An op is one session — POST a run, GET it back, list the tenant's runs, and
on every fourth session re-verify — so the store is written and read in the
same op against a table that keeps growing: a write-path gain that costs
reads (or ``list_runs`` degrading with size) lands in ``run_p50_ms``.
Inputs are seven facts, so kernel changes must not move it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from . import gen
from .harness import Workload
from .spans import Recorder, duration, mean_attr, median_ms

#: tenant -> query kind: the five tenant programs of the service load test
#: (one per routing outcome: broadcast, Thm 4.3, Thm 4.4 twice, barrier).
TENANTS = (
    ("graph-team", "tc"),
    ("absence-team", "sp"),
    ("strata-team", "wm_o"),
    ("cotc-team", "cotc"),
    ("barrier-team", "tri"),
)
FACTS = 7
NODES = 3
SESSIONS = 200          # distinct sessions, cycled
CLUSTER_EVERY = 5       # modes eval 4 : cluster 1
OPTIMIZE_EVERY = 10
VERIFY_EVERY = 4
SERVER_WORKERS = 2
#: Far above anything two closed-loop clients can offer: the limiter and the
#: queue must never answer 429/503 here (both are counted if they do).
RATE_LIMIT = 1_000_000
HTTP_TIMEOUT = 60.0


def session_ops(workload: str, seed: int, smoke: bool) -> list:
    ops = []
    coordination_free_seen = 0
    for index in range(10 if smoke else SESSIONS):
        tenant, kind = TENANTS[index % len(TENANTS)]
        rng = gen.rng_for(workload, seed, index)
        optimize = index % OPTIMIZE_EVERY == OPTIMIZE_EVERY - 1
        force_barrier = False
        if gen.PROTOCOL[kind] != "barrier" and not optimize:
            # Every second coordination-free request takes the barrier arm.
            coordination_free_seen += 1
            force_barrier = coordination_free_seen % 2 == 0
        params = {
            "tenant": tenant,
            "mode": "cluster" if index % CLUSTER_EVERY == CLUSTER_EVERY - 1 else "eval",
            "force_barrier": force_barrier,
            "optimize": optimize,
            "verify": index % VERIFY_EVERY == VERIFY_EVERY - 1,
            "seed": index,
        }
        ops.append(gen.Op(
            f"{index:03d}-{tenant}-{params['mode']}"
            f"{'-barrier' if force_barrier else ''}{'-optimize' if optimize else ''}",
            kind, gen.small_data(kind, rng, FACTS), params,
        ))
    return ops


def payload_for(op) -> dict:
    params = op.params
    return {
        "tenant": params["tenant"],
        "program": op.program,
        "facts": op.facts,
        "mode": params["mode"],
        "nodes": NODES,
        "seed": params["seed"],
        "force_barrier": params["force_barrier"],
        "optimize": params["optimize"],
    }


class SessionError(RuntimeError):
    pass


class ServiceMix(Workload):
    name = "service_mix"
    why = (
        "only workload crossing HTTP, the worker queue and the sqlite store; "
        "each op writes then reads a growing table; 7-fact inputs, so kernel "
        "changes must not move it"
    )
    clients = 2
    warmup = 10

    def __init__(self) -> None:
        self._server = None
        self._replay_store = None
        self._lock = threading.Lock()
        self.statuses = {"429": 0, "503": 0, "5xx": 0}
        self.posted = 0

    def ops(self, seed: int, smoke: bool) -> list:
        return session_ops(self.name, seed, smoke)

    # -- the server process --------------------------------------------------

    def prepare(self, ops, scratch) -> None:
        self._payloads = {op.id: payload_for(op) for op in ops}
        self._scratch = Path(scratch)
        self._db = self._scratch / "service.db"
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(SERVER_WORKERS), "--store", str(self._db),
             "--rate-limit", str(RATE_LIMIT), "--rate-window", "1.0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        banner = self._server.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        if match is None:
            self.close()
            raise RuntimeError(f"service did not start: {banner!r}")
        self._port = int(match.group(1))

    def live_pids(self) -> tuple:
        return (self._server.pid,) if self._server is not None else ()

    def close(self) -> None:
        if self._replay_store is not None:
            self._replay_store.close()
            self._replay_store = None
        server, self._server = self._server, None
        if server is None:
            return
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    # -- the client ----------------------------------------------------------

    def _request(self, method: str, path: str, body: dict | None = None):
        # One connection per request, like the urllib clients of the
        # existing load test.  On a kept-alive connection the server's
        # two-segment responses (headers, then body) meet Nagle and the
        # client's delayed ACK, and every response stalls ~40 ms on a kernel
        # timer — that would be measured instead of the program.
        connection = http.client.HTTPConnection(
            "127.0.0.1", self._port, timeout=HTTP_TIMEOUT
        )
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Connection": "close"}
        if data is not None:
            headers["Content-Type"] = "application/json"
        try:
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            status, text = response.status, response.read()
        finally:
            connection.close()
        if status != 200:
            key = str(status) if status in (429, 503) else "5xx" if status >= 500 else None
            if key is not None:
                with self._lock:
                    self.statuses[key] += 1
            raise SessionError(f"{method} {path} -> {status}: {text[:200]!r}")
        return json.loads(text)

    def _session(self, op, span):
        """POST, GET, list (and verify): returns the posted fingerprint after
        checking the store hands the same one back."""
        params = op.params
        tenant = params["tenant"]
        with span("service.app.post"):
            posted = self._request("POST", "/v1/runs", self._payloads[op.id])
        with self._lock:
            self.posted += 1
        if posted.get("status") != "ok":
            raise SessionError(f"run status {posted.get('status')!r}")
        run_id = posted["run_id"]
        with span("service.app.get"):
            stored = self._request("GET", f"/v1/runs/{run_id}?tenant={tenant}")
        with span("service.app.list"):
            listed = self._request("GET", f"/v1/runs?tenant={tenant}&limit=50")
        if stored["output_fingerprint"] != posted["output_fingerprint"]:
            raise SessionError("stored fingerprint differs from the posted one")
        if not any(row["run_id"] == run_id for row in listed["runs"]):
            raise SessionError("posted run missing from the tenant's newest runs")
        if params["verify"]:
            with span("service.app.verify"):
                verdict = self._request(
                    "POST", f"/v1/runs/{run_id}/verify?tenant={tenant}", {}
                )
            if not verdict["verified"]:
                raise SessionError("verify reported a mismatch")
        return posted["output_fingerprint"]

    def run(self, op):
        return self._session(op, _no_span)

    # -- the traced run ------------------------------------------------------

    def trace_start(self, ops, rec: Recorder) -> None:
        from repro.service import RunStore, ServiceConfig

        self._replay_store = RunStore(self._scratch / "replay.db")
        self._config = ServiceConfig(store_path=str(self._scratch / "replay.db"))

    def traced(self, op, rec: Recorder):
        with rec.span("session"):
            fingerprint = self._session(op, rec.span)
        # What happens behind the socket: the same payload through the
        # in-process entry point, then through its public calls one by one.
        from repro.service import execute_request

        payload = self._payloads[op.id]
        with rec.span("replay"):
            with rec.span("service.app.execute_request"):
                status, body = execute_request(
                    self._replay_store, payload, config=self._config
                )
            if status != 200 or body["output_fingerprint"] != fingerprint:
                raise SessionError(f"in-process replay disagrees (status {status})")
            with rec.span("inproc"):
                run_id = unrolled_request(self._replay_store, payload, rec)
            tenant = payload["tenant"]
            with rec.span("service.store.get_run"):
                self._replay_store.get_run(tenant, run_id)
            with rec.span("service.store.list_runs"):
                self._replay_store.list_runs(tenant, limit=50)
        return fingerprint

    def layers(self, rec: Recorder, ops_run: int) -> dict:
        spans = rec.spans

        def p50(name):
            return median_ms(spans, name, per_span=True)

        post, inproc = p50("service.app.post"), p50("service.app.execute_request")
        unrolled = sum(duration(s) for s in spans if s["name"] == "inproc")
        whole = sum(
            duration(s) for s in spans if s["name"] == "service.app.execute_request"
        )
        db_bytes = sum(
            path.stat().st_size
            for path in (self._db, Path(f"{self._db}-wal"))
            if path.exists()
        )
        from .sim_protocols import runtime_layers

        layers = runtime_layers(spans, "transducers.runtime.run", ops_run)
        layers.update({
            "datalog.parser.parse_ms": median_ms(spans, "datalog.parser.parse"),
            "datalog.parser.facts_parsed": mean_attr(
                spans, "datalog.parser.parse", "facts", ops_run
            ),
            "core.certificate.certificate_ms": p50("core.certificate.certificate"),
            "optimizer.plan.optimize_ms": p50("optimizer.plan.optimize"),
            "optimizer.plan.upgrades": mean_attr(
                spans, "optimizer.plan.optimize", "upgraded", ops_run
            ),
            "transducers.telemetry.report_ms": p50("transducers.telemetry.report"),
            "transducers.telemetry.fingerprint_ms": p50(
                "transducers.telemetry.fingerprint"
            ),
            "service.app.post_p50_ms": post,
            "service.app.get_p50_ms": p50("service.app.get"),
            "service.app.list_p50_ms": p50("service.app.list"),
            "service.app.verify_p50_ms": p50("service.app.verify"),
            "service.app.http_overhead_ms": post - inproc,
            "service.app.central_check_ms": p50("service.app.central_check"),
            "service.app.status_429": self.statuses["429"],
            "service.app.status_503": self.statuses["503"],
            "service.app.status_5xx": self.statuses["5xx"],
            "service.store.record_request_ms": p50("service.store.record_request"),
            "service.store.record_run_ms": p50("service.store.record_run"),
            "service.store.get_run_ms": p50("service.store.get_run"),
            "service.store.list_runs_ms": p50("service.store.list_runs"),
            "service.store.db_bytes_per_run": db_bytes / max(self.posted, 1),
            # The server's spans cannot be seen through the socket: coverage
            # is the unrolled in-process pipeline against execute_request
            # on the same payloads (= post_p50_ms − http_overhead_ms).
            "trace.coverage_ratio": unrolled / whole if whole else 0.0,
        })
        return layers

def _no_span(name):
    return nullcontext()


def unrolled_request(store, payload: dict, rec: Recorder) -> str:
    """``execute_request`` as the sequence of public calls it makes, each
    under a span.  Returns the run id."""
    from repro.core.analyzer import network_for_plan, plan_distribution
    from repro.core.certificate import certificate_for_plan, protocol_reason
    from repro.datalog import Instance, parse_facts, parse_program
    from repro.transducers import FairScheduler, build_run_report, output_fingerprint

    from .proxies import RoundMarker, time_query

    started = time.perf_counter()
    options = {
        "nodes": payload["nodes"], "seed": payload["seed"],
        "force_barrier": payload["force_barrier"], "optimize": payload["optimize"],
        "ilog": False, "check_pairs": 0,
    }
    with rec.span("service.store.record_request"):
        request_id = store.record_request(
            payload["tenant"], mode=payload["mode"], program=payload["program"],
            facts=payload["facts"], options=options,
        )
    with rec.span("datalog.parser.parse") as span:
        program = parse_program(payload["program"])
        span["facts"] = 0
    decision = {"forced_barrier": payload["force_barrier"]}
    if payload["optimize"]:
        from repro.optimizer import plan_certificate, plan_optimized

        with rec.span("optimizer.plan.optimize") as span:
            optimized = plan_optimized(program)
            span["upgraded"] = int(optimized.upgraded)
        plan = optimized.plan
        with rec.span("datalog.parser.parse") as span:
            facts = len(Instance(parse_facts(payload["facts"])))
            span["facts"] = facts
        with rec.span("core.certificate.certificate"):
            cert = plan_certificate(
                program, nodes=payload["nodes"], facts=facts, check_pairs=0,
                seed=payload["seed"],
            )
        decision.update(
            reason=optimized.reason, optimized=True, upgraded=optimized.upgraded,
            effective_monotonicity=optimized.effective_monotonicity,
        )
    else:
        with rec.span("core.analyzer.plan"):
            plan = plan_distribution(program, force_barrier=payload["force_barrier"])
        with rec.span("core.certificate.certificate"):
            cert = certificate_for_plan(
                program, plan, forced_barrier=payload["force_barrier"],
                check_pairs=0, seed=payload["seed"],
            )
        decision["reason"] = protocol_reason(
            plan, forced_barrier=payload["force_barrier"]
        )
    decision.update(
        protocol=plan.transducer.name, requires_barrier=plan.requires_barrier,
        model=plan.analysis.model, coordination_class=plan.analysis.coordination_class,
    )
    time_query(plan, rec)
    with rec.span("datalog.parser.parse") as span:
        instance = Instance(parse_facts(payload["facts"]))
        span["facts"] = len(instance)
    nodes = tuple(f"n{i + 1}" for i in range(payload["nodes"]))
    if payload["mode"] == "eval":
        with rec.span("transducers.policy.distribute"):
            run = network_for_plan(plan, nodes).new_run(instance)
        scheduler = FairScheduler(payload["seed"])
        marker = RoundMarker(scheduler, rec)
        with rec.span("transducers.runtime.run") as span:
            result = run.run_to_quiescence(scheduler=marker)
            marker.close()
            metrics = run.metrics
            span.update(
                transitions=metrics.transitions, rounds=metrics.rounds,
                message_facts_sent=metrics.message_facts_sent,
                cache_hits=metrics.cache_hits, cache_misses=metrics.cache_misses,
                faults=0,
            )
        with rec.span("transducers.telemetry.report"):
            report = build_run_report(run, scheduler=scheduler, quiesced=True).to_dict()
    else:
        from repro.cluster import ClusterRun, build_cluster_report

        with rec.span("transducers.runtime.run") as span:
            run = ClusterRun(
                network_for_plan(plan, nodes), instance, transport="memory",
                seed=payload["seed"],
            )
            result = run.run_to_quiescence()
            span.update(
                transitions=run.metrics.transitions, rounds=run.metrics.rounds,
                message_facts_sent=run.metrics.message_facts_sent, faults=0,
            )
        with rec.span("transducers.telemetry.report"):
            report = build_cluster_report(run, quiesced=True).to_dict()
    with rec.span("service.app.central_check"):
        expected = plan.query(Instance(parse_facts(payload["facts"])))
    status = "ok" if result == expected else "failed"
    with rec.span("transducers.telemetry.fingerprint"):
        fingerprint = output_fingerprint(result)
    with rec.span("service.store.record_run"):
        run_id = store.record_run(
            payload["tenant"], request_id, mode=payload["mode"], status=status,
            program=payload["program"], decision=decision, certificate=cert,
            report=report, output_fingerprint=fingerprint, output_facts=len(result),
            elapsed_s=time.perf_counter() - started,
        )
    with rec.span("transducers.telemetry.fingerprint"):
        output_fingerprint(result)  # execute_request digests the result twice
    return run_id


WORKLOAD = ServiceMix
