"""Pluggable transports: how encoded envelopes move between cluster nodes.

A :class:`Transport` owns the infrastructure (queues or sockets) and hands
each node exactly one :class:`Endpoint`.  The endpoint is the *whole* world
a node may observe: ``send(target, frame)`` and ``recv()`` /
``recv_nowait()`` over its own bounded mailbox.  Nothing on the interface
exposes another node's mailbox or any global buffer state — the
decentralized-quiescence guarantee of :mod:`repro.cluster.runtime` is
enforced structurally here (and asserted by a test that runs the nodes
behind a proxy stripping everything but send/receive).

Two transports ship:

* :class:`InMemoryTransport` — per-node ``asyncio.Queue`` mailboxes inside
  one event loop; the default, fastest, zero-setup option.
* :class:`TcpTransport` — one :class:`TcpEndpoint` per node on the running
  loop: a loopback listener, one persistent connection per peer,
  length-prefixed frames.  Same interface, real sockets, real kernel
  buffering.  A process worker (:mod:`repro.cluster.procs`) runs exactly
  one :class:`TcpEndpoint` of its own; its control plane speaks the same
  frames (:func:`write_frame` / :func:`read_frame`).

Mailboxes are *bounded* (``mailbox_capacity``): a sender awaiting
``send()`` on a full mailbox experiences backpressure exactly like a
blocking socket write.  High-water marks are tracked for telemetry.

One exception to backpressure: **self-delivery bypasses the bound**
(:meth:`Mailbox.force_put`).  A node that ``await``s a send into its own
full mailbox can never return to ``recv()`` to drain it — a deadlock no
other node can break.  Real stacks dodge this the same way (a loopback
write lands in a kernel buffer the writer doesn't sleep on); both
transports skip the wire and force the frame in.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Hashable, Iterable

__all__ = [
    "TransportError",
    "Mailbox",
    "Endpoint",
    "Transport",
    "InMemoryTransport",
    "TcpEndpoint",
    "TcpTransport",
    "make_transport",
    "dial_with_retry",
    "close_writers",
    "read_frame",
    "write_frame",
    "TRANSPORT_NAMES",
    "LOOPBACK",
    "DIAL_ATTEMPTS",
]

#: The length prefix of every TCP frame, data plane and control plane.
_LEN = struct.Struct("<I")

#: Default bound on a node mailbox, in frames.  Generous relative to the
#: experiment sizes; small enough that a runaway protocol hits backpressure
#: instead of exhausting memory.
DEFAULT_MAILBOX_CAPACITY = 1024

#: Every listener binds here and every dial goes here: one host only.
LOOPBACK = "127.0.0.1"

#: Bounded connect attempts before a dial is declared failed — the one
#: budget of the data plane and the control plane.  Small on purpose: a
#: peer that refuses this often is down, and its frames wait in the
#: sender's outbox instead of stalling the sender.
DIAL_ATTEMPTS = 3
#: Per-attempt connect timeout, seconds.
_DIAL_TIMEOUT = 5.0
#: First retry delay, seconds; doubles per attempt (capped at 1s).
_DIAL_BACKOFF = 0.05


class TransportError(RuntimeError):
    """Raised when a transport cannot be started or a peer is unknown."""


def write_frame(writer: asyncio.StreamWriter, frame: bytes) -> None:
    """Queue one length-prefixed frame on *writer* (the caller drains)."""
    writer.write(_LEN.pack(len(frame)) + frame)


async def read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """The next length-prefixed frame, or ``None`` once the peer closed."""
    try:
        (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
        return await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None


async def close_writers(writers) -> None:
    """Close stream writers *cleanly*: close them all, then await each
    ``wait_closed`` so buffered frames (PEER-UPDATE, finish, results) are
    flushed to the kernel before the event loop dies — dropping the waits
    loses frames and fires ResourceWarnings under ``-W error``.  Errors
    are suppressed per writer: a peer that already died must not keep the
    rest from closing.
    """
    writers = list(writers)
    for writer in writers:
        try:
            writer.close()
        except Exception:
            pass
    for writer in writers:
        try:
            await writer.wait_closed()
        except Exception:
            pass


async def dial_with_retry(
    host: str,
    port: int,
    *,
    timeout: float = _DIAL_TIMEOUT,
    attempts: int = DIAL_ATTEMPTS,
    backoff: float = _DIAL_BACKOFF,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a TCP connection with a per-attempt timeout and bounded,
    exponentially backed-off retries.

    A peer that comes up a beat late — or is restarting after a kill —
    refuses the first connect; retrying briefly is the difference between
    a self-healing deployment and one that fails a whole run on a single
    ECONNREFUSED.  The budget is bounded so a genuinely dead peer still
    surfaces as a :class:`TransportError` instead of a hang.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    delay = backoff
    last_error: Exception | None = None
    for attempt in range(attempts):
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout
            )
        except (OSError, asyncio.TimeoutError) as error:
            last_error = error
            if attempt + 1 < attempts:
                await asyncio.sleep(delay)
                delay = min(delay * 2, 1.0)
    raise TransportError(
        f"could not connect to {host}:{port} after {attempts} "
        f"attempt(s): {last_error!r}"
    )


class Mailbox:
    """A bounded frame queue with a high-water mark (telemetry).

    The bound is a semaphore over an unbounded queue rather than a bounded
    ``asyncio.Queue``: :meth:`force_put` must be able to overshoot the
    capacity (self-delivery; see the module docstring) without either
    blocking or stealing a slot from metered senders.  Each queued frame
    remembers whether it took a slot, so a slot is released exactly when a
    *metered* frame departs — the semaphore always meters exactly the
    metered frames in the queue, however they interleave with forced ones.
    """

    def __init__(self, capacity: int = DEFAULT_MAILBOX_CAPACITY) -> None:
        self._queue: asyncio.Queue[tuple[bytes, bool]] = asyncio.Queue()
        self._slots = asyncio.Semaphore(capacity)
        self.high_water = 0
        self.enqueued = 0
        self.forced = 0

    def _note_enqueued(self) -> None:
        self.enqueued += 1
        depth = self._queue.qsize()
        if depth > self.high_water:
            self.high_water = depth

    async def put(self, frame: bytes) -> None:
        """Enqueue one frame, awaiting a free slot if at capacity."""
        await self._slots.acquire()
        self._queue.put_nowait((frame, True))
        self._note_enqueued()

    def force_put(self, frame: bytes) -> None:
        """Enqueue one frame regardless of capacity (never blocks).

        For deliveries where backpressure would deadlock the only task
        able to relieve it — a node sending to itself.
        """
        self._queue.put_nowait((frame, False))
        self.forced += 1
        self._note_enqueued()

    def _departed(self, metered: bool) -> None:
        if metered:
            self._slots.release()

    async def get(self) -> bytes:
        frame, metered = await self._queue.get()
        self._departed(metered)
        return frame

    def get_nowait(self) -> bytes | None:
        try:
            frame, metered = self._queue.get_nowait()
        except asyncio.QueueEmpty:
            return None
        self._departed(metered)
        return frame

    def depth(self) -> int:
        return self._queue.qsize()


class Endpoint:
    """One node's window on the network: send to a peer, receive from the
    own mailbox.  This is the complete interface node logic may use."""

    def __init__(self, node: Hashable, transport: "Transport") -> None:
        self._node = node
        self._transport = transport

    @property
    def node(self) -> Hashable:
        return self._node

    async def send(self, target: Hashable, frame: bytes) -> int:
        """Dispatch one frame to *target*; returns the number of wire
        copies put in flight (1 here; fault wrappers may differ)."""
        await self._transport.deliver(self._node, target, frame)
        return 1

    async def recv(self) -> bytes:
        """Await the next frame from this node's mailbox."""
        return await self._transport.mailbox(self._node).get()

    def recv_nowait(self) -> bytes | None:
        """The next frame if one is already buffered, else ``None``."""
        return self._transport.mailbox(self._node).get_nowait()


class Transport:
    """Base class: mailbox bookkeeping shared by both transports."""

    name = "abstract"

    def __init__(self, *, mailbox_capacity: int = DEFAULT_MAILBOX_CAPACITY) -> None:
        self._mailboxes: dict[Hashable, Mailbox] = {}
        self._capacity = mailbox_capacity

    async def open(self, nodes: Iterable[Hashable]) -> dict[Hashable, Endpoint]:
        """Start the infrastructure and mint one endpoint per node."""
        self._mailboxes = await self._start(list(nodes))
        return {node: Endpoint(node, self) for node in self._mailboxes}

    async def _start(self, nodes: list[Hashable]) -> dict[Hashable, Mailbox]:
        """Transport-specific startup; returns each node's mailbox."""
        return {node: Mailbox(self._capacity) for node in nodes}

    def mailbox(self, node: Hashable) -> Mailbox:
        try:
            return self._mailboxes[node]
        except KeyError:
            raise TransportError(f"unknown node {node!r}") from None

    async def deliver(self, source: Hashable, target: Hashable, frame: bytes) -> None:
        """Move one frame from *source* to *target*'s mailbox."""
        raise NotImplementedError

    async def close(self) -> None:
        """Tear down the infrastructure (default: nothing)."""

    def mailbox_high_water(self, node: Hashable) -> int:
        return self.mailbox(node).high_water

    def frames_delivered(self) -> int:
        return sum(box.enqueued for box in self._mailboxes.values())


class InMemoryTransport(Transport):
    """Envelopes move between ``asyncio.Queue`` mailboxes in-process."""

    name = "memory"

    async def deliver(self, source: Hashable, target: Hashable, frame: bytes) -> None:
        if source == target:
            # Backpressure on a self-send would suspend the one task that
            # can drain the mailbox (TCP avoids this via kernel buffers).
            self.mailbox(target).force_put(frame)
        else:
            await self.mailbox(target).put(frame)


class TcpEndpoint:
    """One node's loopback-TCP window on the network: the only TCP endpoint,
    one per node of a :class:`TcpTransport` and one per process worker.

    One listener pumps length-prefixed frames into the node's mailbox.
    Sends go over lazy persistent connections, one per target, each behind
    its own lock.  Every frame sent to a peer also stays in a volatile
    per-peer outbox: when a peer restarts (a killed process worker),
    :meth:`update_peer` retransmits all of it to the new listener and the
    receiver deduplicates by durable frame identity.  A self-send skips
    the socket and is forced into the mailbox (see the module docstring).
    """

    def __init__(
        self, node: Hashable, *, mailbox_capacity: int = DEFAULT_MAILBOX_CAPACITY
    ) -> None:
        self._node = node
        self.mailbox = Mailbox(mailbox_capacity)
        self._server: asyncio.base_events.Server | None = None
        self.port: int | None = None
        self._ports: dict[Hashable, int] = {}
        self._writers: dict[Hashable, asyncio.StreamWriter] = {}
        self._locks: dict[Hashable, asyncio.Lock] = {}
        self._outbox: dict[Hashable, list[bytes]] = {}
        self._reader_tasks: list[asyncio.Task] = []

    @property
    def node(self) -> Hashable:
        return self._node

    async def start(self) -> None:
        """Bind the listener on an ephemeral loopback port (:attr:`port`)."""
        self._server = await asyncio.start_server(self._accept, LOOPBACK, 0)
        self.port = self._server.sockets[0].getsockname()[1]

    def _accept(self, reader, writer) -> None:
        self._reader_tasks.append(asyncio.ensure_future(self._pump(reader, writer)))

    async def _pump(self, reader, writer) -> None:
        try:
            while (frame := await read_frame(reader)) is not None:
                await self.mailbox.put(frame)
        finally:
            writer.close()  # peer closed (exit or kill); retransmission heals losses

    def set_peers(self, ports: dict[Hashable, int]) -> None:
        """Learn the listener port of each named node."""
        self._ports.update(ports)

    def _lock(self, target: Hashable) -> asyncio.Lock:
        return self._locks.setdefault(target, asyncio.Lock())

    async def _write(self, target: Hashable, frame: bytes) -> bool:
        """Best-effort write to *target*'s live connection.

        Returns ``False`` when the peer is down (connect refused / reset):
        the frame stays in the outbox until :meth:`update_peer` names the
        peer's new listener.  Fails fast — long retries against a dead
        peer's *old* port can never succeed.
        """
        async with self._lock(target):
            writer = self._writers.get(target)
            try:
                if writer is None:
                    _, writer = await dial_with_retry(LOOPBACK, self._ports[target])
                    self._writers[target] = writer
                write_frame(writer, frame)
                await writer.drain()
                return True
            except (TransportError, OSError, asyncio.TimeoutError):
                self._writers.pop(target, None)
                return False

    async def send(self, target: Hashable, frame: bytes) -> int:
        """Dispatch one frame; always counts as one wire copy.

        A frame bound for a dead peer is *still in flight* from the Safra
        ring's point of view: it sits in the outbox and is delivered on
        retransmit, so counting it exactly once keeps the global sum
        truthful in every interleaving.
        """
        if target == self._node:
            self.mailbox.force_put(frame)
            return 1
        if target not in self._ports:
            raise TransportError(f"unknown node {target!r}")
        self._outbox.setdefault(target, []).append(frame)
        await self._write(target, frame)
        return 1

    async def recv(self) -> bytes:
        return await self.mailbox.get()

    def recv_nowait(self) -> bytes | None:
        return self.mailbox.get_nowait()

    async def update_peer(self, target: Hashable, port: int) -> None:
        """*target* restarted with its listener on *port*: drop the dead
        connection and retransmit every frame ever sent to it."""
        async with self._lock(target):
            self._ports[target] = port
            old = self._writers.pop(target, None)
            if old is not None:
                old.close()
        for frame in list(self._outbox.get(target, ())):
            if not await self._write(target, frame):
                return  # peer died again; the next announcement retries

    async def close(self) -> None:
        await close_writers(self._writers.values())
        self._writers.clear()
        if self._server is not None:
            self._server.close()
        for task in self._reader_tasks:
            task.cancel()
        for task in self._reader_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._reader_tasks.clear()
        if self._server is not None:
            # Last: since Python 3.12 this also waits for every accepted
            # connection to close, which the cancelled pumps just did.
            await self._server.wait_closed()


class TcpTransport(Transport):
    """Loopback TCP: one :class:`TcpEndpoint` per node on the running loop,
    each told every node's port.  Every send passes through
    :meth:`deliver`, self-sends included."""

    name = "tcp"

    def __init__(self, *, mailbox_capacity: int = DEFAULT_MAILBOX_CAPACITY) -> None:
        super().__init__(mailbox_capacity=mailbox_capacity)
        self._endpoints: dict[Hashable, TcpEndpoint] = {}

    async def _start(self, nodes: list[Hashable]) -> dict[Hashable, Mailbox]:
        self._endpoints = {
            node: TcpEndpoint(node, mailbox_capacity=self._capacity) for node in nodes
        }
        for endpoint in self._endpoints.values():
            await endpoint.start()
        ports = {node: endpoint.port for node, endpoint in self._endpoints.items()}
        for endpoint in self._endpoints.values():
            endpoint.set_peers(ports)
        return {node: endpoint.mailbox for node, endpoint in self._endpoints.items()}

    async def deliver(self, source: Hashable, target: Hashable, frame: bytes) -> None:
        await self._endpoints[source].send(target, frame)

    async def close(self) -> None:
        for endpoint in self._endpoints.values():
            await endpoint.close()
        self._endpoints.clear()


TRANSPORT_NAMES: dict[str, type[Transport]] = {
    "memory": InMemoryTransport,
    "tcp": TcpTransport,
}


def make_transport(
    name: str, *, mailbox_capacity: int = DEFAULT_MAILBOX_CAPACITY
) -> Transport:
    """Instantiate a transport by CLI name (see ``TRANSPORT_NAMES``)."""
    try:
        factory = TRANSPORT_NAMES[name]
    except KeyError:
        known = ", ".join(sorted(TRANSPORT_NAMES))
        raise TransportError(
            f"unknown transport {name!r} (known: {known})"
        ) from None
    return factory(mailbox_capacity=mailbox_capacity)
