"""Service tests: the request pipeline, the HTTP surface, rate limiting,
and the concurrent multi-tenant isolation + fingerprint-parity gate."""

import json
import os
import threading
import urllib.error
import urllib.request
import warnings

import pytest

from repro.core.analyzer import query_for
from repro.datalog import Instance, parse_facts, parse_program
from repro.queries import zoo_entries, zoo_program
from repro.service import (
    RateLimiter,
    ReproService,
    RunStore,
    ServiceConfig,
    execute_request,
)
from repro.service.app import MODES
from repro.transducers.telemetry import output_fingerprint, validate_report_dict

TC = "T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z)."
TC_FACTS = "E(1,2). E(2,3). E(3,4)."
NONMONO = """
    T(x, y, z) :- E(x, y), E(y, z), E(z, x), y != x, y != z, x != z.
    D(x1) :- T(x1, x2, x3), T(y1, y2, y3),
             x1 != y1, x1 != y2, x1 != y3,
             x2 != y1, x2 != y2, x2 != y3,
             x3 != y1, x3 != y2, x3 != y3.
    O(x) :- Adom(x), not D(x).
"""


def _direct_fingerprint(program_text: str, facts_text: str) -> str:
    query = query_for(parse_program(program_text))
    return output_fingerprint(query(Instance(parse_facts(facts_text))))


class TestExecuteRequest:
    def test_monotone_routes_coordination_free(self):
        store = RunStore(":memory:")
        status, body = execute_request(
            store, {"tenant": "t", "program": TC, "facts": TC_FACTS}
        )
        assert status == 200
        assert body["status"] == "ok"
        assert body["decision"]["requires_barrier"] is False
        assert body["certificate"]["monotonicity"] == "M"
        assert body["output_fingerprint"] == _direct_fingerprint(TC, TC_FACTS)

    def test_forced_barrier_recorded(self):
        store = RunStore(":memory:")
        status, body = execute_request(
            store,
            {"tenant": "t", "program": TC, "facts": TC_FACTS, "force_barrier": True},
        )
        assert status == 200
        assert body["decision"]["forced_barrier"] is True
        assert body["decision"]["requires_barrier"] is True
        # Forcing the barrier never changes the answer, only the cost.
        assert body["output_fingerprint"] == _direct_fingerprint(TC, TC_FACTS)

    def test_non_monotone_requires_barrier(self):
        store = RunStore(":memory:")
        facts = "E(1,2). E(2,3). Adom(1). Adom(2). Adom(3)."
        status, body = execute_request(
            store, {"tenant": "t", "program": NONMONO, "facts": facts}
        )
        assert status == 200
        assert body["decision"]["requires_barrier"] is True
        assert body["certificate"]["monotonicity"] is None
        assert body["output_fingerprint"] == _direct_fingerprint(NONMONO, facts)

    def test_cluster_mode_produces_cluster_report(self):
        store = RunStore(":memory:")
        status, body = execute_request(
            store, {"tenant": "t", "program": TC, "facts": TC_FACTS, "mode": "cluster"}
        )
        assert status == 200
        validate_report_dict(body["report"], kind="cluster")
        assert body["output_fingerprint"] == _direct_fingerprint(TC, TC_FACTS)

    def test_empirical_check_pairs(self):
        store = RunStore(":memory:")
        status, body = execute_request(
            store, {"tenant": "t", "program": TC, "facts": TC_FACTS, "check_pairs": 3}
        )
        assert status == 200
        assert body["certificate"]["empirical"]["holds"] is True

    def test_parse_error_is_recorded_and_400(self):
        store = RunStore(":memory:")
        status, body = execute_request(
            store, {"tenant": "t", "program": "T(x :-", "facts": ""}
        )
        assert status == 400
        assert "error" in body
        runs = store.list_runs("t")
        assert len(runs) == 1 and runs[0]["status"] == "rejected"

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    def test_malformed_facts_are_a_client_error(self, mode, optimize):
        store = RunStore(":memory:")
        status, body = execute_request(
            store,
            {
                "tenant": "t",
                "program": TC,
                "facts": "E(1,",
                "mode": mode,
                "optimize": optimize,
            },
        )
        assert status == 400
        assert "line 1" in body["error"]
        runs = store.list_runs("t")
        assert len(runs) == 1 and runs[0]["status"] == "rejected"

    @pytest.mark.parametrize(
        "payload",
        [
            {"program": TC},  # no tenant
            {"tenant": "t"},  # no program
            {"tenant": "t", "program": TC, "mode": "warp"},
            {"tenant": "t", "program": TC, "nodes": 99},
            {"tenant": "t", "program": TC, "ilog": True, "mode": "cluster"},
            {"tenant": "t", "program": TC, "nodes": True},
            {"tenant": "t", "program": TC, "check_pairs": True},
            {"tenant": "t", "program": TC, "optimize": 1},
        ],
    )
    def test_invalid_payloads_rejected(self, payload):
        status, body = execute_request(RunStore(":memory:"), payload)
        assert status == 400 and "error" in body

    def test_every_zoo_program_round_trips(self):
        store = RunStore(":memory:")
        facts = "E(1,2). E(2,3). E(3,1). Adom(1). Adom(2). Adom(3). Mark(2). V(1). V(2)."
        for entry in zoo_entries():
            program_text = entry.source
            status, body = execute_request(
                store, {"tenant": "zoo", "program": program_text, "facts": facts}
            )
            assert status == 200, (entry.name, body.get("error"))
            assert body["output_fingerprint"] == _direct_fingerprint(
                program_text, facts
            ), entry.name
            expected_barrier = entry.monotonicity in (None, "none")
            assert body["decision"]["requires_barrier"] is expected_barrier, entry.name


TAGGED = 'Tag(x, y) :- S(x), L(y). O(x, y) :- E(x, y), not Tag(x, y).'
TAGGED_FACTS = "E(1,2). E(2,3). E(3,1). S(1). S(3). L(2)."


class TestOptimizeFlag:
    def test_optimized_run_upgrades_and_matches_direct_output(self):
        store = RunStore(":memory:")
        status, body = execute_request(
            store,
            {
                "tenant": "t",
                "program": TAGGED,
                "facts": TAGGED_FACTS,
                "optimize": True,
            },
        )
        assert status == 200
        decision = body["decision"]
        assert decision["optimized"] is True
        assert decision["upgraded"] is True
        assert decision["effective_monotonicity"] == "Mdistinct"
        assert decision["requires_barrier"] is False
        assert decision["protocol"].startswith("distinct")
        # Rerouting never changes the answer.
        assert body["output_fingerprint"] == _direct_fingerprint(
            TAGGED, TAGGED_FACTS
        )

    def test_optimized_certificate_carries_cost_and_strata(self):
        store = RunStore(":memory:")
        status, body = execute_request(
            store,
            {
                "tenant": "t",
                "program": TAGGED,
                "facts": TAGGED_FACTS,
                "optimize": True,
            },
        )
        assert status == 200
        cert = body["certificate"]
        assert cert["effective"]["upgraded"] is True
        assert cert["cost"]["cheaper_than_barrier"] is True
        assert [s["role"] for s in cert["strata"]] == ["monotone", "guarded"]

    def test_optimize_on_monotone_program_is_a_no_op(self):
        store = RunStore(":memory:")
        status, body = execute_request(
            store,
            {"tenant": "t", "program": TC, "facts": TC_FACTS, "optimize": True},
        )
        assert status == 200
        assert body["decision"]["upgraded"] is False
        assert body["decision"]["requires_barrier"] is False

    @pytest.mark.parametrize(
        "extra",
        [
            {"ilog": True},
            {"force_barrier": True},
        ],
    )
    def test_optimize_rejects_contradictory_flags(self, extra):
        status, body = execute_request(
            RunStore(":memory:"),
            {
                "tenant": "t",
                "program": TAGGED,
                "facts": TAGGED_FACTS,
                "optimize": True,
                **extra,
            },
        )
        assert status == 400 and "error" in body


class TestRateLimiter:
    def test_admits_until_limit_then_defers(self):
        limiter = RateLimiter(3, 60.0)
        assert [limiter.check("t") for _ in range(3)] == [None, None, None]
        retry = limiter.check("t")
        assert retry is not None and retry > 0

    def test_tenants_independent(self):
        limiter = RateLimiter(1, 60.0)
        assert limiter.check("a") is None
        assert limiter.check("b") is None
        assert limiter.check("a") is not None


@pytest.fixture()
def service(tmp_path):
    config = ServiceConfig(
        port=0, store_path=str(tmp_path / "svc.db"), workers=4, rate_limit=10_000
    )
    svc = ReproService(config).start_in_thread()
    yield svc
    svc.shutdown()


def _call(svc, method, path, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{svc.port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHTTP:
    def test_health(self, service):
        status, body = _call(service, "GET", "/health")
        assert status == 200 and body["status"] == "ok"

    def test_post_run_then_fetch_and_verify(self, service):
        status, body = _call(
            service,
            "POST",
            "/v1/runs",
            {"tenant": "alice", "program": TC, "facts": TC_FACTS},
        )
        assert status == 200 and body["status"] == "ok"
        run_id = body["run_id"]
        status, listed = _call(service, "GET", "/v1/runs?tenant=alice")
        assert status == 200 and listed["runs"][0]["run_id"] == run_id
        status, fetched = _call(service, "GET", f"/v1/runs/{run_id}?tenant=alice")
        assert status == 200
        validate_report_dict(fetched["report"], kind="run")
        status, verified = _call(
            service, "POST", f"/v1/runs/{run_id}/verify?tenant=alice"
        )
        assert status == 200 and verified["verified"] is True

    def test_cross_tenant_fetch_is_404(self, service):
        _, body = _call(
            service,
            "POST",
            "/v1/runs",
            {"tenant": "alice", "program": TC, "facts": TC_FACTS},
        )
        status, _ = _call(service, "GET", f"/v1/runs/{body['run_id']}?tenant=eve")
        assert status == 404

    def test_analyze_endpoint(self, service):
        status, body = _call(service, "POST", "/v1/analyze", {"program": TC})
        assert status == 200
        assert body["certificate"]["monotonicity"] == "M"
        assert body["certificate"]["memberships"]["datalog"] is True

    @pytest.mark.parametrize("seed", [1.7, "x"])
    def test_analyze_rejects_a_seed_that_is_not_an_integer(self, service, seed):
        status, body = _call(
            service, "POST", "/v1/analyze", {"program": TC, "seed": seed}
        )
        assert (status, body) == (400, {"error": "'seed' must be an integer"})

    def test_rate_limited_gets_429(self, tmp_path):
        config = ServiceConfig(
            port=0, store_path=":memory:", workers=1, rate_limit=2, rate_window=60.0
        )
        svc = ReproService(config).start_in_thread()
        try:
            codes = [
                _call(svc, "POST", "/v1/analyze", {"program": TC})[0]
                for _ in range(4)
            ]
            assert codes[:2] == [200, 200]
            assert 429 in codes[2:]
        finally:
            svc.shutdown()

    def test_unknown_path_404(self, service):
        assert _call(service, "GET", "/v1/nope")[0] == 404

    def test_one_write_per_response_on_a_kept_alive_connection(
        self, service, monkeypatch
    ):
        """Headers and body leave in a single write: two writes are two TCP
        segments, and the second stalls ~40 ms (Nagle + delayed ACK) on
        every response after the first of a kept-alive connection."""
        import http.client

        from repro.service import app

        connections: list[list[int]] = []

        class RecordingWriter:
            def __init__(self, raw, sizes):
                self._raw, self._sizes = raw, sizes

            def write(self, data):
                self._sizes.append(len(data))
                return self._raw.write(data)

            def __getattr__(self, name):
                return getattr(self._raw, name)

        original_setup = app._Handler.setup

        def recording_setup(handler):
            original_setup(handler)
            connections.append([])
            handler.wfile = RecordingWriter(handler.wfile, connections[-1])

        monkeypatch.setattr(app._Handler, "setup", recording_setup)
        client = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
        try:
            payload = json.dumps({"program": TC})
            for method, path, body in (
                ("GET", "/health", None),
                ("POST", "/v1/analyze", payload),
                ("GET", "/v1/nope", None),
                ("GET", "/health", None),
            ):
                client.request(method, path, body=body)
                response = client.getresponse()
                data = response.read()
                assert int(response.getheader("Content-Length")) == len(data)
                json.loads(data)
        finally:
            client.close()
        # One server-side connection carried all four requests ...
        assert len(connections) == 1
        # ... and each response was exactly one write.
        assert len(connections[0]) == 4


class TestConcurrentTenants:
    """The issue's gate: ≥8 threads across ≥3 tenants, per-tenant store
    isolation, every stored fingerprint byte-identical to direct eval."""

    PROGRAMS = {
        "team-graph": (TC, TC_FACTS),
        "team-sp": (
            "O(x, y) :- E(x, y), not Mark(y).",
            "E(1,2). E(2,3). Mark(3).",
        ),
        "team-wfs": (
            "Loop(x) :- E(x, x).\nO(x, y) :- E(x, y), not Loop(x).",
            "E(1,1). E(1,2). E(2,3).",
        ),
    }

    def test_concurrent_isolation_and_parity(self, service):
        per_thread = 4
        tenants = list(self.PROGRAMS)
        errors: list = []

        def hammer(tenant: str) -> None:
            program, facts = self.PROGRAMS[tenant]
            for index in range(per_thread):
                status, body = _call(
                    service,
                    "POST",
                    "/v1/runs",
                    {"tenant": tenant, "program": program, "facts": facts,
                     "seed": index},
                )
                if status != 200 or body["status"] != "ok":
                    errors.append((tenant, status, body))

        threads = [
            threading.Thread(target=hammer, args=(tenant,))
            for tenant in tenants
            for _ in range(3)  # 3 tenants x 3 threads = 9 >= 8
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]

        for tenant in tenants:
            program, facts = self.PROGRAMS[tenant]
            expected = _direct_fingerprint(program, facts)
            _, listed = _call(service, "GET", f"/v1/runs?tenant={tenant}&limit=100")
            runs = listed["runs"]
            assert len(runs) == per_thread * 3
            for summary in runs:
                _, full = _call(
                    service, "GET", f"/v1/runs/{summary['run_id']}?tenant={tenant}"
                )
                # isolation: the record belongs to this tenant and carries
                # this tenant's program, not a neighbour's
                assert full["tenant"] == tenant
                # parity: stored fingerprint byte-identical to direct eval
                assert full["output_fingerprint"] == expected
            # isolation: other tenants cannot see these runs
            for other in tenants:
                if other == tenant:
                    continue
                _, code_check = _call(
                    service,
                    "GET",
                    f"/v1/runs/{runs[0]['run_id']}?tenant={other}",
                )
                assert "error" in code_check


class TestProcessesMode:
    """``mode: "processes"`` as the service runs it: on pool threads, so
    the cluster forks its workers from a multi-threaded process, several
    requests at once.  (The cluster tests fork from the main thread of a
    single-threaded one.)"""

    THREADS = 4

    def test_concurrent_requests_fork_from_threads(self):
        store = RunStore(":memory:")
        results: list = []

        def post(index: int) -> None:
            results.append(
                execute_request(
                    store,
                    {
                        "tenant": f"tenant-{index}",
                        "program": TC,
                        "facts": TC_FACTS,
                        "mode": "processes",
                        "nodes": 2,
                        "seed": index,
                    },
                )
            )

        threads = [
            threading.Thread(target=post, args=(index,))
            for index in range(self.THREADS)
        ]
        with warnings.catch_warnings(record=True) as caught:
            # Louder than any default: if CPython >= 3.12's
            # fork-from-threads DeprecationWarning can get past the filter
            # in repro.cluster.procs, it gets past it here.
            warnings.simplefilter("always")
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not [w for w in caught if "fork()" in str(w.message)]

        expected = _direct_fingerprint(TC, TC_FACTS)
        assert len(results) == self.THREADS
        for status, body in results:
            assert status == 200 and body["status"] == "ok", body
            assert body["output_fingerprint"] == expected
            validate_report_dict(body["report"], kind="cluster")
            assert body["report"]["transport"] == "proc"
        assert store.run_count() == self.THREADS
        store.close()

        # Every worker of every request was reaped by the run that forked it.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestRoutingIsWhatRuns:
    """One target per request: whatever the mode, the runtime executes the
    protocol the decision names and the certificate certifies.  (Until the
    ``repro.runtimes`` seam, ``processes`` re-planned from the program text
    alone: with ``optimize`` it certified ``distinct[...]`` and ran
    ``barrier[...]``, and it refused ``force_barrier`` outright.)"""

    FACTS = "E(1,2). E(2,3). E(3,1). S(1). S(3). L(2)."

    @pytest.mark.parametrize("mode", ["eval", "cluster", "processes"])
    @pytest.mark.parametrize(
        "routing, protocol",
        [
            ({"optimize": True}, "distinct[datalog[O]]"),
            ({"force_barrier": True}, "barrier[datalog[O]]"),
            ({}, "barrier[datalog[O]]"),
        ],
    )
    def test_decision_report_and_certificate_agree(self, mode, routing, protocol):
        program = "\n".join(repr(rule) for rule in zoo_program("tagged-edges").rules)
        store = RunStore(":memory:")
        status, body = execute_request(
            store,
            {"tenant": "t", "program": program, "facts": self.FACTS,
             "mode": mode, "nodes": 2, **routing},
        )
        store.close()
        assert status == 200 and body["status"] == "ok", body
        assert body["decision"]["protocol"] == protocol
        assert body["report"]["protocol"] == protocol
        assert body["certificate"]["protocol"]["name"] == protocol
        assert body["output_fingerprint"] == _direct_fingerprint(program, self.FACTS)

