"""Unit tests for the transport layer: mailboxes, memory and TCP delivery,
and the TCP endpoint's repair path (outbox, ``update_peer``) in one
process, with no fork."""

import asyncio

import pytest

from repro.cluster.transport import (
    InMemoryTransport,
    Mailbox,
    TcpEndpoint,
    TcpTransport,
    TransportError,
    make_transport,
)


def run(coro):
    return asyncio.run(coro)


class TestMailbox:
    def test_high_water_tracks_depth(self):
        async def scenario():
            box = Mailbox(capacity=8)
            for i in range(3):
                await box.put(b"x")
            assert box.depth() == 3
            assert box.high_water == 3
            assert await box.get() == b"x"
            await box.put(b"y")
            # High water is a max, not the current depth.
            assert box.high_water == 3
            assert box.enqueued == 4

        run(scenario())

    def test_bounded_put_blocks(self):
        async def scenario():
            box = Mailbox(capacity=1)
            await box.put(b"a")
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(box.put(b"b"), timeout=0.05)

        run(scenario())

    def test_get_nowait_empty_returns_none(self):
        async def scenario():
            box = Mailbox()
            assert box.get_nowait() is None

        run(scenario())

    def test_force_put_overshoots_capacity_without_blocking(self):
        async def scenario():
            box = Mailbox(capacity=1)
            await box.put(b"metered")
            box.force_put(b"forced")  # would deadlock if it awaited a slot
            assert box.depth() == 2
            assert box.forced == 1
            # Draining a forced frame must NOT free a metered slot: the
            # next metered put still blocks until the metered frame leaves.
            assert await box.get() == b"metered"
            # one metered slot free again now; the forced frame remains
            await box.put(b"metered2")
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(box.put(b"over"), timeout=0.05)
            assert await box.get() == b"forced"
            with pytest.raises(asyncio.TimeoutError):
                # forced departure burned unmetered credit, not a slot
                await asyncio.wait_for(box.put(b"over"), timeout=0.05)
            assert await box.get() == b"metered2"
            await box.put(b"fits-now")

        run(scenario())


@pytest.mark.parametrize("transport_name", ["memory", "tcp"])
class TestTransports:
    def test_delivery_and_ordering(self, transport_name):
        async def scenario():
            transport = make_transport(transport_name)
            try:
                endpoints = await transport.open(["a", "b"])
                for i in range(5):
                    assert await endpoints["a"].send("b", b"frame%d" % i) == 1
                frames = [await endpoints["b"].recv() for _ in range(5)]
                assert frames == [b"frame%d" % i for i in range(5)]
                assert endpoints["b"].recv_nowait() is None
                assert transport.frames_delivered() == 5
                assert transport.mailbox_high_water("b") >= 1
                assert transport.mailbox_high_water("a") == 0
            finally:
                await transport.close()

        run(scenario())

    def test_self_send(self, transport_name):
        async def scenario():
            transport = make_transport(transport_name)
            try:
                endpoints = await transport.open(["solo"])
                await endpoints["solo"].send("solo", b"ring")
                assert await endpoints["solo"].recv() == b"ring"
            finally:
                await transport.close()

        run(scenario())

    def test_self_send_with_full_mailbox_does_not_deadlock(self, transport_name):
        """Regression: a node awaiting a self-send into its own full
        bounded mailbox could never return to recv() to drain it.  Memory
        transport must bypass backpressure for self-delivery (TCP decouples
        via kernel socket buffers)."""

        async def scenario():
            transport = make_transport(transport_name, mailbox_capacity=1)
            try:
                endpoints = await transport.open(["solo"])

                async def node_body():
                    # Fill the mailbox, then keep self-sending while also
                    # draining — exactly a transducer's send-then-recv loop.
                    for i in range(4):
                        await endpoints["solo"].send("solo", b"m%d" % i)
                    received = []
                    for _ in range(4):
                        received.append(await endpoints["solo"].recv())
                    return received

                received = await asyncio.wait_for(node_body(), timeout=2.0)
                assert received == [b"m%d" % i for i in range(4)]
            finally:
                await transport.close()

        run(scenario())

    def test_unknown_target_rejected(self, transport_name):
        async def scenario():
            transport = make_transport(transport_name)
            try:
                endpoints = await transport.open(["a"])
                with pytest.raises(TransportError, match="unknown node"):
                    await endpoints["a"].send("ghost", b"x")
            finally:
                await transport.close()

        run(scenario())


class TestTcpEndpointRepair:
    """What a process worker's endpoint does when a peer dies and comes back,
    driven on one loop: the peer is an endpoint whose listener is closed,
    and its restart is a fresh endpoint on a new port."""

    @staticmethod
    async def _endpoint(node, peers=None):
        endpoint = TcpEndpoint(node)
        await endpoint.start()
        endpoint.set_peers({node: endpoint.port, **(peers or {})})
        return endpoint

    def test_frames_sent_to_a_closed_listener_stay_in_the_outbox(self):
        async def scenario():
            dead = await self._endpoint("b")
            port = dead.port
            await dead.close()
            sender = await self._endpoint("a", {"b": port})
            restarted = await self._endpoint("b")
            try:
                for i in range(3):
                    # Refused, kept, and still one copy in flight.
                    assert await sender.send("b", b"f%d" % i) == 1
                await asyncio.sleep(0.05)
                assert restarted.recv_nowait() is None  # not announced yet
                await sender.update_peer("b", restarted.port)
                frames = [await restarted.recv() for _ in range(3)]
                assert frames == [b"f0", b"f1", b"f2"]
            finally:
                await sender.close()
                await restarted.close()

        run(asyncio.wait_for(scenario(), timeout=10))

    def test_update_peer_retransmits_everything_once_in_order(self):
        async def scenario():
            peer = await self._endpoint("b")
            sender = await self._endpoint("a", {"b": peer.port})
            restarted = None
            try:
                await sender.send("b", b"f0")
                assert await peer.recv() == b"f0"
                await peer.close()  # the peer dies with f0 accepted
                await sender.send("b", b"f1")  # into the dead connection
                restarted = await self._endpoint("b")
                await sender.update_peer("b", restarted.port)
                await sender.send("b", b"f2")
                # Every frame ever sent, once each, in send order; the
                # receiver's dedup (not the endpoint) drops the old f0.
                frames = [await restarted.recv() for _ in range(3)]
                assert frames == [b"f0", b"f1", b"f2"]
                await asyncio.sleep(0.05)
                assert restarted.recv_nowait() is None
                assert restarted.mailbox.enqueued == 3
            finally:
                await sender.close()
                if restarted is not None:
                    await restarted.close()

        run(asyncio.wait_for(scenario(), timeout=10))

    def test_unknown_target_raises_transport_error(self):
        async def scenario():
            endpoint = await self._endpoint("a")
            try:
                with pytest.raises(TransportError, match="unknown node 'ghost'"):
                    await endpoint.send("ghost", b"x")
            finally:
                await endpoint.close()

        run(scenario())


class TestFactory:
    def test_names(self):
        assert isinstance(make_transport("memory"), InMemoryTransport)
        assert isinstance(make_transport("tcp"), TcpTransport)

    def test_unknown_name(self):
        with pytest.raises(TransportError, match="unknown transport"):
            make_transport("carrier-pigeon")


class TestDialWithRetry:
    def test_rejects_non_positive_attempts(self):
        from repro.cluster.transport import dial_with_retry

        with pytest.raises(ValueError, match="attempts"):
            run(dial_with_retry("127.0.0.1", 1, attempts=0))

    def test_connects_first_try(self):
        from repro.cluster.transport import dial_with_retry

        async def scenario():
            server = await asyncio.start_server(
                lambda r, w: w.close(), "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await dial_with_retry("127.0.0.1", port)
                writer.close()
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_retries_until_late_server_binds(self):
        """The self-healing case: the peer binds only after the first
        connect attempts have been refused."""
        from repro.cluster.transport import dial_with_retry

        async def scenario():
            probe = await asyncio.start_server(
                lambda r, w: w.close(), "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            holder = {}

            async def bind_late():
                await asyncio.sleep(0.15)
                holder["server"] = await asyncio.start_server(
                    lambda r, w: w.close(), "127.0.0.1", port
                )

            binder = asyncio.ensure_future(bind_late())
            try:
                reader, writer = await dial_with_retry(
                    "127.0.0.1", port, attempts=20, backoff=0.05
                )
                writer.close()
            finally:
                await binder
                holder["server"].close()
                await holder["server"].wait_closed()

        run(scenario())

    def test_bounded_budget_surfaces_transport_error(self):
        from repro.cluster.transport import dial_with_retry

        async def scenario():
            probe = await asyncio.start_server(
                lambda r, w: w.close(), "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            with pytest.raises(TransportError, match="after 2 attempt"):
                await dial_with_retry(
                    "127.0.0.1", port, attempts=2, backoff=0.01
                )

        run(scenario())
