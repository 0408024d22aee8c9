"""Crash-isolated execution: one OS process per transducer node.

Each node runs in its own OS process, forked from the coordinator — its own
interner, its own compiled rules, its own failure domain — hosting the same
:class:`~repro.cluster.runtime.ClusterNode` driver (over the same
:class:`~repro.transducers.node.NodeCore`) on the one TCP data plane, a
:class:`~repro.cluster.transport.TcpEndpoint` per worker.  What this
runtime is verified to be is crash isolation with real-``SIGKILL``
recovery: a worker killed mid-run is respawned, recovers from its
snapshot + WAL, and the run still computes Q(I).  It is not a speedup:
``docs/CLUSTER.md`` measures 2 workers at 1.04–1.18× the speed of 1.  A
parent :class:`ProcessCluster` coordinates:

* **sharding** — the parent distributes the input database horizontally
  with the network's own distribution policy (the paper's domain-guided
  policies *are* a sharding scheme, Thm 4.4) and each worker starts from
  its fragment alone;
* **handshake** — workers bind a data-plane server on an ephemeral port,
  dial the parent's control socket, say HELLO with their port, and block
  until the parent broadcasts the full PEERS port map; the Safra token
  ring then runs worker-to-worker with no parent involvement;
* **monitoring / recovery** — the parent watches every child; a worker
  that dies without delivering a result (e.g. a real ``SIGKILL``) is
  respawned over the same on-disk checkpoint directory and recovers
  through the ordinary snapshot + WAL-replay path, while the parent
  announces the new port (PEER-UPDATE) so live peers reconnect and
  retransmit;
* **result collection** — each worker sends its final node state over the
  control plane; the parent folds them into the same telemetry surface
  :class:`~repro.cluster.runtime.ClusterRun` exposes, so reports and the
  divergence gate treat both runtimes identically.

At-least-once delivery, exactly-once effects
--------------------------------------------

A kill can strand frames three ways, and each has a dedicated repair:

1. *Receiver died before accepting a delivered frame* — the frame was
   never WAL-logged, so the sender's volatile per-peer outbox (every
   frame it ever sent) is retransmitted wholesale when the parent
   announces the peer's restart.
2. *Receiver accepted (WAL-logged) a frame the sender retransmits anyway*
   — receivers deduplicate by durable ``(sender, sequence)`` identity
   (``NodeCore(dedup=True)``), rebuilt from the WAL on recovery, and
   drop the copy without touching the Safra counter.
3. *Sender died after logging a send that never left user space* — the
   recovering sender re-dispatches the byte-identical regenerated frame
   (uncounted); case 2 absorbs it at peers that already had it.

The Safra counting invariant survives all three because acceptance and
dispatch are counted exactly once, durably, and duplicates are dropped
silently.  Termination is decided by the unmodified token ring; the
parent only relays a synthetic STOP ("finish") to workers that were down
when the real one was broadcast.

The scaling workload
--------------------

The committed scaling curve measures a fixed *partitionable* workload:
disjoint win-move games whose positions are block-encoded (component ``c``
owns values ``c*SCALING_BLOCK ..``) so
:func:`~repro.transducers.policy.block_domain_assignment` co-locates every
game on one node.  Win-move distributes over disconnected games, so each
worker solves its fragment locally
(:func:`~repro.transducers.protocols.local_shard_transducer`) and the
union equals the centralized Q(I) — asserted on every run.  Unlike the
Section-4 protocol transducers (which flood their inputs so every node
sees everything), sharding here genuinely shrinks the work: one deep game
no longer drags every co-located shallow game through its alternating
fixpoint rounds (see :func:`scaling_workload` for the cost argument).

What a forked worker inherits
-----------------------------

Workers are ``os.fork()`` children of the coordinator (POSIX-only, like the
``SIGKILL`` and ``add_signal_handler`` code below): importing :mod:`repro`
in a fresh interpreter takes longer than a whole 2-worker run, and the
coordinator has already paid for it.  A worker *inherits* the imported
modules, the coordinator's hash seed and the module-level memo caches
(deterministic content) — and the run itself: it runs the coordinator's
:class:`~repro.transducers.runtime.TransducerNetwork` object, its own
fragment and the feed batches, read from memory.  A network carries no run
state, so the copy is as good as the original; a respawn after a
``SIGKILL`` forks from the same coordinator and sees the same objects.  A
worker does *not* inherit descriptors (all closed but its stdio and
liveness pipe), the event loop or signal handlers.  Only results travel
as bytes, back over the control plane.
Workers are direct children, reaped before :meth:`ProcessCluster.arun`
returns or raises; no helper process outlives a run.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import sys
import tempfile
import time
import traceback
import warnings
from typing import Iterable, NoReturn

from ..datalog.instance import Instance
from ..datalog.terms import Fact, sort_facts
from ..transducers.policy import block_domain_assignment, domain_guided_policy
from ..transducers.node import NodeCore, NodeState, NodeStats, NodeSummary
from ..transducers.protocols import Section4Protocol, local_shard_transducer
from ..transducers.runtime import QuiescenceError, TransducerNetwork
from .checkpoint import DiskCheckpointStore, NodeJournal
from .codec import (
    KIND_STOP,
    Envelope,
    decode_value,
    encode_envelope,
    encode_value,
)
from .runtime import ClusterNode, RingRun
from .transport import (
    DEFAULT_MAILBOX_CAPACITY,
    LOOPBACK,
    TcpEndpoint,
    close_writers,
    dial_with_retry,
    read_frame,
    write_frame,
)

__all__ = [
    "ProcessCluster",
    "SCALING_BLOCK",
    "scaling_workload",
    "scaling_workload_by_key",
    "encode_facts_hex",
    "decode_facts_hex",
]

#: Vertex-value stride per component of the scaling workload; also the
#: block size of its co-locating domain assignment.
SCALING_BLOCK = 1_000_000

#: Respawn budget per node — a worker that cannot stay alive this many
#: times is a bug (or a hostile host), not a fault to be healed.
MAX_RESTARTS = 3


# ----------------------------------------------------------------------
# Wire helpers: control-plane JSON frames and codec-hex fact lists
# ----------------------------------------------------------------------


def encode_facts_hex(facts: Iterable[Fact]) -> str:
    """A sorted fact list as hex of its wire-codec encoding (the same
    tagged-value format the data plane and the WAL speak)."""
    return encode_value(
        tuple((fact.relation, fact.values) for fact in sort_facts(facts))
    ).hex()


def decode_facts_hex(text: str) -> tuple[Fact, ...]:
    value = decode_value(bytes.fromhex(text))
    return tuple(Fact(relation, values) for relation, values in value)


def _send_msg(writer: asyncio.StreamWriter, message: dict) -> None:
    write_frame(writer, json.dumps(message, sort_keys=True).encode("utf-8"))


async def _read_msg(reader: asyncio.StreamReader) -> dict | None:
    blob = await read_frame(reader)
    return None if blob is None else json.loads(blob)


# ----------------------------------------------------------------------
# The scaling workload (fixed, partitionable, reconstructible by key)
# ----------------------------------------------------------------------


class _ScalingWorkload(Section4Protocol):
    """A Section4Protocol bundle whose policy is the co-locating block
    assignment instead of the value-hash assignment."""

    def policy(self, network):
        return domain_guided_policy(
            self.query.input_schema,
            network,
            block_domain_assignment(network, SCALING_BLOCK),
            name="block-domain-guided",
        )


def scaling_workload(*, components: int = 24, size: int = 120) -> Section4Protocol:
    """The fixed partitionable workload (``scaling-wm-c<components>-s<size>``).

    ``components`` disjoint win-move games of ``size`` positions each,
    positions of component ``c`` encoded as ``c * SCALING_BLOCK + p``:
    component 0 is a *deep* chain game (alternating win/lose down a path
    of ``size`` moves), every other component is a *shallow* dense game
    (out-degree 3, mostly drawn).  The query is win-move under the
    well-founded semantics, evaluated shard-locally.

    Why this shape: the number of Γs of the alternating fixpoint is set by
    the deepest local game, so the single deep chain drags a central run
    through ~``size`` Γs.  While every Γ started again from its whole local
    instance that cost ≈ Γs × total size, and block-sharding isolated it:
    only the shard holding component 0 paid the deep alternation, over its
    small fragment — the BSP-superstep argument for sharding datalog with
    stratified convergence depths.  Each Γ now continues the previous Γ of
    its half and pays for what changed (docs/PERFORMANCE.md, "Each Γ
    continues its half"): a central run joins the input twice, once for
    the first Γ of each half, and after that only the rows each Γ changes,
    so the depth no longer multiplies the size.  docs/CLUSTER.md records
    what sharding still buys.

    Everything is generated by closed-form arithmetic (no RNG, no builtin
    ``hash``), so the key alone names the identical workload in every
    process and under every hash seed.
    """
    from ..queries import win_move_query

    facts: set[Fact] = set()
    base = 0 * SCALING_BLOCK
    for position in range(size - 1):
        facts.add(Fact("Move", (base + position, base + position + 1)))
    for component in range(1, components):
        base = component * SCALING_BLOCK
        for position in range(size):
            for spoke in range(1, 4):
                facts.add(
                    Fact(
                        "Move",
                        (base + position, base + (position * 7 + spoke) % size),
                    )
                )
    query = win_move_query()
    return _ScalingWorkload(
        key=f"scaling-wm-c{components}-s{size}",
        theorem="partitionable (component-local win-move, block-co-located)",
        transducer=local_shard_transducer(query),
        query=query,
        instance=Instance(facts),
        domain_guided=True,
    )


_SCALING_KEY = re.compile(r"^scaling-wm-c(\d+)-s(\d+)$")


def scaling_workload_by_key(key: str) -> Section4Protocol:
    match = _SCALING_KEY.match(key)
    if match is None:
        raise KeyError(f"not a scaling workload key: {key!r}")
    components, size = map(int, match.groups())
    return scaling_workload(components=components, size=size)


def _scaling_network(recipe: dict, processes: int | None) -> TransducerNetwork:
    """The network of ``{"kind": "scaling", "key": ...}`` on ``n1 ..
    n<processes>`` — the one recipe :class:`ProcessCluster` still takes."""
    if recipe.get("kind") != "scaling":
        raise ValueError(f"not a scaling workload recipe: {recipe!r}")
    if processes is None:
        raise ValueError("a scaling workload recipe needs processes=N")
    nodes = tuple(f"n{i + 1}" for i in range(processes))
    return scaling_workload_by_key(recipe["key"]).network(nodes)


def _encode_summary(summary: NodeCore | NodeSummary) -> dict:
    """A node's summary as control-plane JSON (the worker result message)."""
    return {
        "output": encode_facts_hex(summary.state.output),
        "memory": encode_facts_hex(summary.state.memory),
        "stats": summary.stats.to_dict(),
        "token_probes": summary.token_probes,
        "wal_replayed": summary.wal_replayed,
        "epochs": summary.epochs_injected,
        "epoch_outputs": {
            str(epoch): encode_facts_hex(facts)
            for epoch, facts in summary.epoch_outputs.items()
        },
    }


def _decode_summary(message: dict) -> NodeSummary:
    return NodeSummary(
        state=NodeState(
            Instance(decode_facts_hex(message["output"])),
            Instance(decode_facts_hex(message["memory"])),
        ),
        stats=NodeStats(**message["stats"]),
        token_probes=message["token_probes"],
        wal_replayed=message["wal_replayed"],
        epochs_injected=message["epochs"],
        epoch_outputs={
            int(epoch): decode_facts_hex(text)
            for epoch, text in message["epoch_outputs"].items()
        },
    )


# ----------------------------------------------------------------------
# Worker side: the process entry point
# ----------------------------------------------------------------------


def _make_kill_probe(kill_after: int):
    """A crash probe delivering a *real* SIGKILL after ``kill_after``
    transitions — uncatchable, no cleanup, no flush beyond what already
    reached the kernel.  The genuine article, unlike
    :exc:`~repro.cluster.faults.NodeCrashed`."""
    remaining = [int(kill_after)]

    def probe() -> None:
        remaining[0] -= 1
        if remaining[0] <= 0:
            os.kill(os.getpid(), signal.SIGKILL)

    return probe


async def _control_loop(
    reader: asyncio.StreamReader, endpoint: TcpEndpoint, node: str
) -> None:
    while True:
        message = await _read_msg(reader)
        if message is None:
            # The coordinator is gone; an orphaned worker must not linger.
            os._exit(2)
        kind = message.get("type")
        if kind == "peer-update":
            await endpoint.update_peer(message["node"], int(message["port"]))
        elif kind == "finish":
            # Global termination was detected while this worker was down
            # (the real STOP died with its connection); synthesize one.
            await endpoint.send(
                node,
                encode_envelope(
                    Envelope(
                        kind=KIND_STOP,
                        sender="__coordinator__",
                        round=0,
                        sequence=0,
                    )
                ),
            )


async def _worker_async(
    cluster: ProcessCluster,
    node: str,
    control_port: int,
    checkpoint_dir: str,
    kill_after: int | None,
) -> None:
    """Run *node* of *cluster* — the coordinator's object, inherited by the
    fork — and send its result to the coordinator."""
    endpoint = TcpEndpoint(node, mailbox_capacity=cluster._mailbox_capacity)
    await endpoint.start()
    creader, cwriter = await dial_with_retry(LOOPBACK, control_port)
    _send_msg(
        cwriter,
        {"type": "hello", "node": node, "port": endpoint.port, "pid": os.getpid()},
    )
    await cwriter.drain()
    peers_msg = await _read_msg(creader)
    if peers_msg is None or peers_msg.get("type") != "peers":
        raise RuntimeError(f"worker {node}: expected PEERS, got {peers_msg!r}")
    endpoint.set_peers(peers_msg["peers"])

    journal = NodeJournal(DiskCheckpointStore(checkpoint_dir), node)
    recovered = journal.has_history()
    core = NodeCore(
        cluster.network,
        node,
        cluster.local_input(node),
        max_probes=cluster._max_probes,
        snapshot_every=cluster._snapshot_every,
        dedup=True,
        # Only the initiator's core consumes the feed.  It is a fixed list,
        # so WAL replay of an injection after a real SIGKILL regenerates it
        # identically.
        feed=cluster._feed_batches(),
    )
    cluster_node = ClusterNode(
        core,
        endpoint,
        journal=journal,
        crash_probe=_make_kill_probe(kill_after) if kill_after else None,
    )
    control_task = asyncio.ensure_future(
        _control_loop(creader, endpoint, node)
    )
    try:
        await cluster_node.run()
    finally:
        control_task.cancel()
        try:
            await control_task  # the control stream has one reader at a time
        except (asyncio.CancelledError, Exception):
            pass
    core.stats.buffer_high_water = endpoint.mailbox.high_water
    _send_msg(
        cwriter,
        {
            "type": "result",
            "node": node,
            "pid": os.getpid(),
            "recovered": bool(recovered),
            "snapshot_bytes": journal.snapshot_bytes,
            **_encode_summary(core),
        },
    )
    await cwriter.drain()
    # Half-close, then read the coordinator out.  Closing with an unread
    # ``finish`` in the receive queue makes the kernel answer RST and drop
    # whatever of a large result is still unsent; the coordinator closes
    # this connection once it has stored the result.
    cwriter.write_eof()
    try:
        while await creader.read(1 << 16):
            pass
    except ConnectionError:
        pass
    await close_writers([cwriter])
    await endpoint.close()


def _run_forked_worker(worker: tuple, log_fd: int, alive_fd: int) -> NoReturn:
    """The whole life of a forked child: shed the coordinator, run one
    cluster node (``_worker_async(*worker)``), ``os._exit``.

    The child starts as a copy of the coordinator deep inside the parent's
    event-loop stack, and none of that may run here: not the parent's
    ``finally`` blocks (they kill the *other* workers), not its ``atexit``
    hooks, not its buffered stdio.  So every way out — success, worker
    error, ``SystemExit``, ``KeyboardInterrupt`` — ends in ``os._exit``:
    status 0 once the result is delivered, else 1 with the traceback in the
    worker's stderr file.
    """
    status = 1
    try:
        null_fd = os.open(os.devnull, os.O_RDONLY)
        os.dup2(null_fd, 0)
        os.dup2(log_fd, 1)
        os.dup2(log_fd, 2)
        # The parent's stdio objects may hold unflushed text, a lock another
        # thread held at fork time, or a test runner's capture file.
        sys.stdout = sys.stderr = open(
            2, "w", buffering=1, encoding="utf-8",
            errors="backslashreplace", closefd=False,
        )
        # Every other inherited descriptor goes: the parent loop's selector
        # and self-pipe, the control server, peers' control connections and
        # liveness pipes, a service's HTTP sockets and database.  Only
        # ``alive_fd`` stays: never written, its closing at death (however
        # that comes) is what the parent waits on.
        os.closerange(3, alive_fd)
        os.closerange(alive_fd + 1, os.sysconf("SC_OPEN_MAX"))
        # The parent's loop routed signals into a wakeup socket that is now
        # closed (and whose number will be reused); its SIGTERM/SIGINT
        # policy is the coordinator's, not a worker's.
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        asyncio.run(_worker_async(*worker))
        status = 0
    except BaseException:  # never unwind into the coordinator's stack
        traceback.print_exc()
    finally:
        try:
            sys.stderr.flush()
        finally:
            os._exit(status)


# ----------------------------------------------------------------------
# Parent side: the coordinator
# ----------------------------------------------------------------------


def _fork() -> int:
    """``os.fork()`` without CPython >= 3.12's ``DeprecationWarning`` about
    forking a multi-threaded process — which the service does: it runs
    clusters from pool threads.

    The warning's concern is a child that deadlocks on a lock some other
    thread held at fork time.  Audit: ``src/`` creates no ``threading``
    lock outside ``service/``; the child never imports ``service``,
    replaces its stdio objects before its first write, runs only
    :func:`_run_forked_worker` on a fresh event loop and leaves through
    ``os._exit``.  One filter, scoped to that message from this module; it
    is re-asserted per fork (idempotent) because test runners and
    ``warnings.catch_warnings`` blocks push their own filters in front of
    anything registered at import time.
    """
    warnings.filterwarnings(
        "ignore",
        message=r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
        category=DeprecationWarning,
        module=r"repro\.cluster\.procs$",
    )
    return os.fork()


class _ForkedWorker:
    """The coordinator's handle on one forked worker: ``pid``,
    ``returncode``, ``wait()``, ``kill()`` — and no watcher thread (a thread
    would make the next fork a multi-threaded one).

    Death — clean exit, worker error or a real ``SIGKILL`` — closes the
    child's end of the liveness pipe; the loop sees EOF on ``alive_fd`` and
    reaps the pid with ``os.waitpid`` right there, so a dead worker is
    never left a zombie and its CPU lands in ``RUSAGE_CHILDREN`` at once.
    """

    def __init__(self, pid: int, alive_fd: int) -> None:
        self.pid = pid
        self.returncode: int | None = None
        self._alive_fd = alive_fd
        self._exited = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self._loop.add_reader(alive_fd, self._reap)

    def _reap(self) -> None:
        self._loop.remove_reader(self._alive_fd)
        os.close(self._alive_fd)
        # The pipe closes a moment before the process becomes waitable
        # (descriptors go before the exit status is posted): block for it.
        _, status = os.waitpid(self.pid, 0)
        self.returncode = os.waitstatus_to_exitcode(status)
        self._exited.set()

    async def wait(self) -> int:
        await self._exited.wait()
        return self.returncode

    def kill(self) -> None:
        # Not reaped yet means the pid is still ours (a zombie at worst),
        # so this can neither miss nor hit a recycled pid.
        if self.returncode is None:
            os.kill(self.pid, signal.SIGKILL)


class ClusterShutdown(RuntimeError):
    """The coordinator was asked to stop (SIGTERM/SIGINT) mid-run.

    Raised out of :meth:`ProcessCluster.arun` *after* its cleanup ran —
    by the time a caller sees this, every worker process has been reaped
    and the control-plane socket is closed (no orphans)."""


class ProcessCluster(RingRun):
    """A one-shot multi-process execution of a transducer network.

    Mirrors :class:`~repro.cluster.runtime.ClusterRun`'s telemetry surface
    (``global_output``, ``node_stats``, ``metrics``, ``token_probes``,
    ``crashes``/``recoveries``/``wal_replayed``/``snapshot_bytes``) so
    :func:`~repro.cluster.telemetry.build_cluster_report` and the
    divergence gate treat both runtimes identically.

    One worker per node of *network*, each forked from this object and
    running *network* itself; node names must be strings, because the
    control plane names them in JSON.  ``{"kind": "scaling", "key": ...}``
    with ``processes=N`` is accepted in place of a network.

    ``kill_node``/``kill_after`` schedule one *real* ``SIGKILL``: the
    named worker shoots itself after that many transitions, the parent
    observes the death, respawns it over the same checkpoint directory,
    and the worker recovers via snapshot + WAL replay.
    """

    def __init__(
        self,
        network: TransducerNetwork | dict,
        instance: Instance,
        *,
        processes: int | None = None,
        seed: int = 0,
        run_dir: str | os.PathLike | None = None,
        kill_node: str | None = None,
        kill_after: int | None = None,
        timeout: float | None = 120.0,
        snapshot_every: int = 1,
        max_probes: int = 10_000,
        mailbox_capacity: int = DEFAULT_MAILBOX_CAPACITY,
        delta_feed=None,
    ) -> None:
        if isinstance(network, dict):
            # ROADMAP item 5 deletes this recipe with processes= and the unread seed=.
            network = _scaling_network(network, processes)
        super().__init__(network, instance, delta_feed)
        nodes = tuple(self.nodes())
        if not all(isinstance(node, str) for node in nodes):
            raise ValueError("process-cluster node names must be strings")
        if kill_node is not None and kill_node not in nodes:
            raise ValueError(f"kill_node {kill_node!r} is not in {nodes}")
        self._run_dir = run_dir
        self._kill_node = kill_node
        self._kill_after = kill_after
        self._timeout = timeout
        self._snapshot_every = snapshot_every
        self._max_probes = max_probes
        self._mailbox_capacity = mailbox_capacity
        self._results: dict[str, dict] = {}

    @property
    def transport_name(self) -> str:
        return "proc"

    # -- execution ---------------------------------------------------------

    async def arun(self) -> Instance:
        self._begin()
        if self._run_dir is not None:
            run_dir = os.fspath(self._run_dir)
            os.makedirs(run_dir, exist_ok=True)
        else:
            run_dir = tempfile.mkdtemp(prefix="repro-procs-")
        ordered = self.nodes()
        events: asyncio.Queue = asyncio.Queue()
        conns: dict[str, asyncio.StreamWriter] = {}
        ports: dict[str, int] = {}
        procs: dict[str, _ForkedWorker] = {}
        monitor_tasks: list[asyncio.Task] = []
        spawn_counts: dict[str, int] = {node: 0 for node in ordered}
        terminated = False
        deadline = (
            time.monotonic() + self._timeout if self._timeout is not None else None
        )

        async def accept_control(reader, writer) -> None:
            hello = await _read_msg(reader)
            if hello is None or hello.get("type") != "hello":
                writer.close()
                return
            node = hello["node"]
            stale = conns.get(node)
            if stale is not None:
                stale.close()  # the connection of this node's dead predecessor
            conns[node] = writer
            await events.put(("hello", node, hello))
            while True:
                message = await _read_msg(reader)
                if message is None:
                    return
                await events.put((message["type"], node, message))

        server = await asyncio.start_server(accept_control, LOOPBACK, 0)
        control_port = server.sockets[0].getsockname()[1]

        # Graceful shutdown: SIGTERM/SIGINT inject an event that unwinds
        # arun through its cleanup (reap workers, close sockets) before
        # raising ClusterShutdown.  Registration fails off the main
        # thread (the service runs clusters from worker threads) — then
        # the parent process's own handler owns signal policy instead.
        loop = asyncio.get_running_loop()
        handled_signals: list[int] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda s=signum: events.put_nowait(
                        ("shutdown", None, {"signum": s})
                    ),
                )
                handled_signals.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass

        def write_pids() -> None:
            # Audit file for supervisors and the no-orphans regression
            # test: the parent pid plus every live worker pid, rewritten
            # atomically at each (re)spawn.
            payload = {
                "parent": os.getpid(),
                "workers": {
                    node: proc.pid
                    for node, proc in procs.items()
                    if proc.returncode is None
                },
            }
            tmp_path = os.path.join(run_dir, "pids.json.tmp")
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_path, os.path.join(run_dir, "pids.json"))

        def spawn(node: str, *, kill: bool) -> None:
            attempt = spawn_counts[node]
            spawn_counts[node] = attempt + 1
            worker = (
                self,
                node,
                control_port,
                os.path.join(run_dir, f"ckpt-{node}"),
                self._kill_after if kill else None,
            )
            log_fd = os.open(
                os.path.join(run_dir, f"{node}-{attempt}.stderr"),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                0o644,
            )
            alive_r, alive_w = os.pipe()
            try:
                pid = _fork()
                if pid == 0:
                    _run_forked_worker(worker, log_fd, alive_w)  # never returns
            except OSError:
                os.close(alive_r)
                raise
            finally:
                os.close(alive_w)
                os.close(log_fd)
            proc = procs[node] = _ForkedWorker(pid, alive_r)

            async def monitor() -> None:
                returncode = await proc.wait()
                await events.put(("exit", node, {"returncode": returncode}))

            monitor_tasks.append(asyncio.ensure_future(monitor()))
            write_pids()

        def worker_stderr(node: str) -> str:
            chunks = []
            for attempt in range(spawn_counts[node]):
                path = os.path.join(run_dir, f"{node}-{attempt}.stderr")
                try:
                    with open(path, "r", encoding="utf-8", errors="replace") as f:
                        text = f.read().strip()
                except FileNotFoundError:
                    continue
                if text:
                    chunks.append(f"--- {node} attempt {attempt} ---\n{text}")
            return "\n".join(chunks)

        try:
            for node in ordered:
                spawn(node, kill=node == self._kill_node)

            handshook = 0
            while len(self._results) < len(ordered):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise QuiescenceError(
                            f"process cluster did not quiesce within "
                            f"{self._timeout}s wall clock"
                        )
                try:
                    kind, node, message = await asyncio.wait_for(
                        events.get(), remaining
                    )
                except asyncio.TimeoutError:
                    raise QuiescenceError(
                        f"process cluster did not quiesce within "
                        f"{self._timeout}s wall clock"
                    ) from None
                if kind == "hello":
                    ports[node] = int(message["port"])
                    handshook += 1
                    if handshook == len(ordered):
                        # Every data-plane server is bound: release all
                        # workers with the full port map at once.
                        for name, writer in conns.items():
                            _send_msg(writer, {"type": "peers", "peers": ports})
                            await writer.drain()
                    elif handshook > len(ordered):
                        # A respawned worker: it gets the current map, the
                        # live peers get its new port and retransmit.
                        writer = conns[node]
                        _send_msg(writer, {"type": "peers", "peers": ports})
                        await writer.drain()
                        for name, other in conns.items():
                            if name == node or name in self._results:
                                continue
                            try:
                                _send_msg(
                                    other,
                                    {
                                        "type": "peer-update",
                                        "node": node,
                                        "port": ports[node],
                                    },
                                )
                                await other.drain()
                            except (ConnectionError, OSError):
                                pass
                        if terminated:
                            _send_msg(writer, {"type": "finish"})
                            await writer.drain()
                elif kind == "result":
                    self._results[node] = message
                    conns[node].close()  # the EOF the worker is waiting for
                    if not terminated:
                        # Any result implies STOP was broadcast, i.e. the
                        # ring detected global termination.  Relay it to
                        # workers whose data-plane STOP may have died with
                        # a killed connection.
                        terminated = True
                        for name, writer in conns.items():
                            if name in self._results:
                                continue
                            try:
                                _send_msg(writer, {"type": "finish"})
                                await writer.drain()
                            except (ConnectionError, OSError):
                                pass
                elif kind == "shutdown":
                    raise ClusterShutdown(
                        f"coordinator received signal {message['signum']}; "
                        "workers reaped"
                    )
                elif kind == "exit":
                    if node in self._results:
                        continue  # clean exit after delivering its result
                    returncode = message["returncode"]
                    self.crashes += 1
                    if spawn_counts[node] > MAX_RESTARTS:
                        raise RuntimeError(
                            f"worker {node} died {spawn_counts[node]} times "
                            f"(last returncode {returncode}); giving up.\n"
                            f"{worker_stderr(node)}"
                        )
                    # Respawn over the same checkpoint directory — the
                    # deliberate kill is never re-armed, so each recovery
                    # makes real progress.
                    spawn(node, kill=False)
                    self.recoveries += 1
        finally:
            for signum in handled_signals:
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
            server.close()
            for task in monitor_tasks:
                task.cancel()
            for task in monitor_tasks:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
            for proc in procs.values():
                proc.kill()
                await proc.wait()
            await close_writers(conns.values())
            # After the connections: since Python 3.12 this waits for every
            # accepted connection to close, not just the listening socket.
            await server.wait_closed()
            if self._run_dir is None:
                # Nobody was told where this directory is, and everything
                # a caller gets from it (results, quoted worker stderr) has
                # been read by now.
                shutil.rmtree(run_dir, ignore_errors=True)
            else:
                try:
                    write_pids()  # now records zero live workers
                except OSError:
                    pass
            # On the error path too: whichever workers delivered a result
            # show their work; a killed worker shows nothing.
            self._harvest(
                {
                    node: _decode_summary(self._results[node])
                    for node in ordered
                    if node in self._results
                }
            )
            self.snapshot_bytes = sum(
                result["snapshot_bytes"] for result in self._results.values()
            )
        return self.global_output()

    def worker_result(self, node: str) -> dict:
        """The raw control-plane result payload for *node* (tests)."""
        return dict(self._results[node])
