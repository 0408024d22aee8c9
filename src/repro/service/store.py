"""The persistent run store: tenants, requests, runs, validated reports.

One sqlite database (stdlib :mod:`sqlite3`, WAL mode) holds everything
the service ever executed:

* ``tenants``  — the tenant registry (auto-created on first use);
* ``requests`` — every accepted POST body, verbatim, so any run can be
  re-verified later against a fresh in-process evaluation;
* ``runs``     — one row per execution: the routing decision (protocol,
  barrier or not, why), the classification certificate, the output
  fingerprint, extracted cost columns (messages, rounds, transitions)
  for SQL aggregation, and the full
  :class:`~repro.transducers.telemetry.RunReport` JSON.

Reports are validated against the versioned schema
(:func:`repro.transducers.telemetry.validate_report_dict`) **on write
and on read** — a row that stops validating is corruption, not data.

Per-tenant isolation is structural: every read API takes the tenant
name and scopes the SQL to that tenant's id, so one tenant's run ids
simply do not resolve for another.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
import uuid
from typing import Any

from ..transducers.telemetry import validate_report_dict

__all__ = ["STORE_SCHEMA_VERSION", "RunStore", "program_sha"]

#: Bumped whenever the sqlite layout changes incompatibly.
STORE_SCHEMA_VERSION = 1

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tenants (
    id         INTEGER PRIMARY KEY,
    name       TEXT NOT NULL UNIQUE,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS requests (
    id          INTEGER PRIMARY KEY,
    tenant_id   INTEGER NOT NULL REFERENCES tenants(id),
    received_at REAL NOT NULL,
    mode        TEXT NOT NULL,
    program     TEXT NOT NULL,
    facts       TEXT NOT NULL,
    options     TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id                 TEXT PRIMARY KEY,
    tenant_id          INTEGER NOT NULL REFERENCES tenants(id),
    request_id         INTEGER NOT NULL REFERENCES requests(id),
    created_at         REAL NOT NULL,
    mode               TEXT NOT NULL,
    status             TEXT NOT NULL,
    program_sha        TEXT NOT NULL,
    protocol           TEXT,
    fragment           TEXT,
    monotonicity       TEXT,
    coordination_class TEXT,
    requires_barrier   INTEGER,
    forced_barrier     INTEGER,
    decision_reason    TEXT,
    output_fingerprint TEXT,
    output_facts       INTEGER,
    messages           INTEGER,
    rounds             INTEGER,
    transitions        INTEGER,
    elapsed_s          REAL,
    certificate        TEXT,
    report             TEXT,
    error              TEXT,
    verified           INTEGER,
    verified_at        REAL
);
CREATE INDEX IF NOT EXISTS runs_by_tenant ON runs(tenant_id, created_at);
CREATE INDEX IF NOT EXISTS runs_by_program ON runs(program_sha, forced_barrier);
"""

#: run mode -> the report-schema flavor it must validate against.
_REPORT_KIND_BY_MODE = {
    "eval": "run",
    "cluster": "cluster",
    "processes": "cluster",
}


def program_sha(text: str) -> str:
    """Content identity of a program: sha256 over the whitespace-normalized
    source, so the same program posted with different formatting groups
    into one row of the routing/cost tables."""
    canonical = " ".join(text.split())
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RunStore:
    """Thread-safe sqlite-backed store (one connection, one lock).

    ``path`` may be ``":memory:"`` for tests; a file path is created on
    first open.  All timestamps are ``time.time()`` floats.
    """

    def __init__(self, path: str | os.PathLike = ":memory:") -> None:
        self._path = os.fspath(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self._path, check_same_thread=False, timeout=30.0
        )
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            if self._path != ":memory:":
                self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._conn.executescript(_DDL)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta(key, value) VALUES ('schema_version', ?)",
                    (str(STORE_SCHEMA_VERSION),),
                )
            elif int(row["value"]) != STORE_SCHEMA_VERSION:
                raise ValueError(
                    f"store {self._path} has schema version {row['value']}, "
                    f"this build speaks {STORE_SCHEMA_VERSION}"
                )
            self._conn.commit()

    # -- lifecycle ---------------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- tenants -----------------------------------------------------------

    def ensure_tenant(self, name: str) -> int:
        """The tenant's id, creating the tenant on first sight."""
        if not name or not isinstance(name, str):
            raise ValueError("tenant name must be a non-empty string")
        with self._lock:
            self._conn.execute(
                "INSERT OR IGNORE INTO tenants(name, created_at) VALUES (?, ?)",
                (name, time.time()),
            )
            self._conn.commit()
            row = self._conn.execute(
                "SELECT id FROM tenants WHERE name=?", (name,)
            ).fetchone()
            return int(row["id"])

    def tenant_id(self, name: str) -> int | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT id FROM tenants WHERE name=?", (name,)
            ).fetchone()
            return None if row is None else int(row["id"])

    def tenants(self) -> list[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT name FROM tenants ORDER BY name"
            ).fetchall()
            return [row["name"] for row in rows]

    # -- writes ------------------------------------------------------------

    def record_request(
        self,
        tenant: str,
        *,
        mode: str,
        program: str,
        facts: str,
        options: dict[str, Any],
    ) -> int:
        tenant_id = self.ensure_tenant(tenant)
        with self._lock:
            cursor = self._conn.execute(
                "INSERT INTO requests(tenant_id, received_at, mode, program,"
                " facts, options) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    tenant_id,
                    time.time(),
                    mode,
                    program,
                    facts,
                    json.dumps(options, sort_keys=True),
                ),
            )
            self._conn.commit()
            return int(cursor.lastrowid)

    def record_run(
        self,
        tenant: str,
        request_id: int,
        *,
        mode: str,
        status: str,
        program: str,
        decision: dict[str, Any] | None = None,
        certificate: dict[str, Any] | None = None,
        report: dict[str, Any] | None = None,
        output_fingerprint: str | None = None,
        output_facts: int | None = None,
        elapsed_s: float | None = None,
        error: str | None = None,
    ) -> str:
        """Persist one finished (or failed) execution; returns the run id.

        A non-None *report* is validated against the mode's report schema
        before it is written — an invalid report is a bug in the caller,
        not a row.
        """
        if report is not None:
            validate_report_dict(report, kind=_REPORT_KIND_BY_MODE[mode])
        tenant_id = self.ensure_tenant(tenant)
        run_id = uuid.uuid4().hex
        decision = decision or {}
        metrics = (report or {}).get("metrics", {})
        with self._lock:
            self._conn.execute(
                "INSERT INTO runs(id, tenant_id, request_id, created_at, mode,"
                " status, program_sha, protocol, fragment, monotonicity,"
                " coordination_class, requires_barrier, forced_barrier,"
                " decision_reason, output_fingerprint, output_facts, messages,"
                " rounds, transitions, elapsed_s, certificate, report, error)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?,"
                " ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    tenant_id,
                    request_id,
                    time.time(),
                    mode,
                    status,
                    program_sha(program),
                    decision.get("protocol"),
                    (certificate or {}).get("fragment"),
                    (certificate or {}).get("monotonicity"),
                    (certificate or {}).get("coordination_class"),
                    None
                    if decision.get("requires_barrier") is None
                    else int(bool(decision.get("requires_barrier"))),
                    None
                    if decision.get("forced_barrier") is None
                    else int(bool(decision.get("forced_barrier"))),
                    decision.get("reason"),
                    output_fingerprint,
                    output_facts,
                    metrics.get("message_facts_sent"),
                    metrics.get("rounds"),
                    metrics.get("transitions"),
                    elapsed_s,
                    None
                    if certificate is None
                    else json.dumps(certificate, sort_keys=True),
                    None if report is None else json.dumps(report, sort_keys=True),
                    error,
                ),
            )
            self._conn.commit()
        return run_id

    def set_verified(self, tenant: str, run_id: str, ok: bool) -> bool:
        """Record a re-verification verdict; False when the run is not
        visible to *tenant*."""
        tenant_id = self.tenant_id(tenant)
        if tenant_id is None:
            return False
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE runs SET verified=?, verified_at=? "
                "WHERE id=? AND tenant_id=?",
                (int(ok), time.time(), run_id, tenant_id),
            )
            self._conn.commit()
            return cursor.rowcount == 1

    # -- tenant-scoped reads ----------------------------------------------

    def _run_row(self, tenant: str, run_id: str) -> sqlite3.Row | None:
        tenant_id = self.tenant_id(tenant)
        if tenant_id is None:
            return None
        with self._lock:
            return self._conn.execute(
                "SELECT * FROM runs WHERE id=? AND tenant_id=?",
                (run_id, tenant_id),
            ).fetchone()

    @staticmethod
    def _summary(row: sqlite3.Row) -> dict[str, Any]:
        return {
            "run_id": row["id"],
            "created_at": row["created_at"],
            "mode": row["mode"],
            "status": row["status"],
            "program_sha": row["program_sha"],
            "protocol": row["protocol"],
            "fragment": row["fragment"],
            "monotonicity": row["monotonicity"],
            "coordination_class": row["coordination_class"],
            "requires_barrier": None
            if row["requires_barrier"] is None
            else bool(row["requires_barrier"]),
            "forced_barrier": None
            if row["forced_barrier"] is None
            else bool(row["forced_barrier"]),
            "decision_reason": row["decision_reason"],
            "output_fingerprint": row["output_fingerprint"],
            "output_facts": row["output_facts"],
            "messages": row["messages"],
            "rounds": row["rounds"],
            "transitions": row["transitions"],
            "elapsed_s": row["elapsed_s"],
            "error": row["error"],
            "verified": None if row["verified"] is None else bool(row["verified"]),
        }

    def list_runs(self, tenant: str, *, limit: int = 50) -> list[dict[str, Any]]:
        """Newest-first run summaries for one tenant (no report payloads)."""
        tenant_id = self.tenant_id(tenant)
        if tenant_id is None:
            return []
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM runs WHERE tenant_id=? "
                "ORDER BY created_at DESC, id DESC LIMIT ?",
                (tenant_id, int(limit)),
            ).fetchall()
        return [self._summary(row) for row in rows]

    def get_run(self, tenant: str, run_id: str) -> dict[str, Any] | None:
        """The full run record — summary plus certificate and the report,
        the latter re-validated against the schema on the way out."""
        row = self._run_row(tenant, run_id)
        if row is None:
            return None
        record = self._summary(row)
        record["certificate"] = (
            None if row["certificate"] is None else json.loads(row["certificate"])
        )
        if row["report"] is None:
            record["report"] = None
        else:
            report = json.loads(row["report"])
            validate_report_dict(report, kind=_REPORT_KIND_BY_MODE[row["mode"]])
            record["report"] = report
        return record

    def request_for_run(self, tenant: str, run_id: str) -> dict[str, Any] | None:
        """The originating request (program + facts) for re-verification."""
        row = self._run_row(tenant, run_id)
        if row is None:
            return None
        with self._lock:
            request = self._conn.execute(
                "SELECT * FROM requests WHERE id=?", (row["request_id"],)
            ).fetchone()
        if request is None:
            return None
        return {
            "request_id": int(request["id"]),
            "mode": request["mode"],
            "program": request["program"],
            "facts": request["facts"],
            "options": json.loads(request["options"]),
        }

    def run_count(self, tenant: str | None = None) -> int:
        with self._lock:
            if tenant is None:
                row = self._conn.execute("SELECT COUNT(*) AS n FROM runs").fetchone()
            else:
                tenant_id = self.tenant_id(tenant)
                if tenant_id is None:
                    return 0
                row = self._conn.execute(
                    "SELECT COUNT(*) AS n FROM runs WHERE tenant_id=?",
                    (tenant_id,),
                ).fetchone()
            return int(row["n"])
