"""Dispatch tiers: thread/process semantics and independence.

Byte-identity of per-tenant reports against fresh-process serial runs
lives in tests/differential/test_server_differential.py; this module
pins the *scheduling* contract -- which tiers exist, how sessions are
routed, that one connection's frames run in arrival order, and that no
tier lets one tenant's slow dispatch stall another tenant's replies.
"""

import contextlib
import random
import socket
import struct
import threading
import time

import pytest

from repro.core import Logic, ids
from repro.parallel.remote import (register_fault_farm,
                                   remote_fault_simulate, resolve_bench)
from repro.rmi import JavaCADServer, TcpTransport
from repro.rmi.protocol import CallReply, CallRequest
from repro.server import DISPATCH_TIERS, AsyncRMIServer
from repro.server.dispatch import ProcessDispatcher

ALL_TIERS = list(DISPATCH_TIERS)


class Echo:
    def ping(self, value):
        return value * 2

    def slow(self, value, seconds=0.2):
        time.sleep(seconds)
        return value


class SessionIds:
    def next_session_id(self):
        return next(ids.current().session_ids)


class Recorder:
    """Records the order its calls execute in (releasing the GIL)."""

    def __init__(self):
        self.seen = []

    def record(self, index):
        self.seen.append(index)
        time.sleep(0.0005)
        return index

    def order(self):
        return list(self.seen)


def tier_session():
    server = JavaCADServer("tiers.session")
    server.bind("echo", Echo(), ["ping", "slow"])
    server.bind("ids", SessionIds(), ["next_session_id"])
    server.bind("recorder", Recorder(), ["record", "order"])
    register_fault_farm(server)
    return server


@contextlib.contextmanager
def running(tier, **options):
    server = AsyncRMIServer(session_factory=tier_session,
                            dispatch=tier, **options)
    host, port = server.start()
    try:
        yield server, host, port
    finally:
        server.stop()


class TestTierSelection:
    def test_known_tiers(self):
        assert DISPATCH_TIERS == ("thread", "process")

    def test_unknown_tier_is_rejected(self):
        with pytest.raises(ValueError, match="dispatch"):
            AsyncRMIServer(session_factory=tier_session,
                           dispatch="osmosis")

    @pytest.mark.parametrize("tier", ALL_TIERS)
    def test_round_trip_on_every_tier(self, tier):
        with running(tier) as (_server, host, port):
            transport = TcpTransport(host, port)
            try:
                assert transport.invoke("echo", "ping", (21,), {}) == 42
            finally:
                transport.close()

    @pytest.mark.parametrize("tier", ALL_TIERS)
    def test_repr_names_the_tier(self, tier):
        server = AsyncRMIServer(session_factory=tier_session,
                                dispatch=tier)
        assert f"dispatch={tier!r}" in repr(server)


class TestSessionIdIsolation:
    @pytest.mark.parametrize("tier", ALL_TIERS)
    def test_two_tenants_each_see_fresh_process_ids(self, tier):
        with running(tier) as (_server, host, port):
            first = TcpTransport(host, port)
            second = TcpTransport(host, port)
            try:
                a = [first.invoke("ids", "next_session_id", (), {})
                     for _ in range(3)]
                b = [second.invoke("ids", "next_session_id", (), {})
                     for _ in range(3)]
                # Sticky continuity: the same session resumes its
                # namespace, it does not restart it.
                a += [first.invoke("ids", "next_session_id", (), {})
                      for _ in range(2)]
            finally:
                first.close()
                second.close()
        assert a == [1, 2, 3, 4, 5]
        assert b == [1, 2, 3]

    def test_process_tier_routes_sessions_stickily(self):
        dispatcher = ProcessDispatcher(tier_session, workers=3)
        try:
            for session_id in range(1, 10):
                pool = dispatcher.pool_for(session_id)
                assert pool is dispatcher.pool_for(session_id)
                expected = (session_id - 1) % 3
                assert dispatcher._pools.index(pool) == expected
        finally:
            dispatcher.shutdown()

    def test_process_dispatcher_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessDispatcher(tier_session, workers=0)


class TestCrossTenantIndependence:
    """A slow tenant must not delay a fast tenant's replies.

    The slow call sleeps, so this holds even on a one-core runner:
    what is being pinned is the *scheduling* (no shared lock between
    tenants), not CPU parallelism.
    """

    SLOW_SECONDS = 0.8

    def _overlap(self, tier):
        with running(tier) as (_server, host, port):
            slow = TcpTransport(host, port)
            fast = TcpTransport(host, port)
            try:
                fast.invoke("echo", "ping", (0,), {})  # open session
                slow_done = threading.Event()

                def slow_call():
                    slow.invoke("echo", "slow", (1,),
                                {"seconds": self.SLOW_SECONDS})
                    slow_done.set()

                worker = threading.Thread(target=slow_call)
                worker.start()
                time.sleep(0.15)  # the slow dispatch is now in flight
                begin = time.monotonic()
                replies = [fast.invoke("echo", "ping", (i,), {})
                           for i in range(5)]
                fast_wall = time.monotonic() - begin
                finished_during = slow_done.is_set()
                worker.join()
            finally:
                slow.close()
                fast.close()
        assert replies == [0, 2, 4, 6, 8]
        return fast_wall, finished_during

    @pytest.mark.parametrize("tier", ALL_TIERS)
    def test_fast_tenant_overlaps_a_slow_tenants_dispatch(self, tier):
        fast_wall, finished_during = self._overlap(tier)
        # All five replies must land while the slow call still holds
        # its executor -- they never queue behind it.
        assert not finished_during
        assert fast_wall < self.SLOW_SECONDS / 2, fast_wall


def _frame(payload):
    return struct.pack(">I", len(payload)) + payload


def _read_reply(sock):
    def exactly(count):
        data = b""
        while len(data) < count:
            chunk = sock.recv(count - len(data))
            assert chunk, "server closed the connection"
            data += chunk
        return data

    (length,) = struct.unpack(">I", exactly(4))
    return CallReply.decode(exactly(length))


class TestPipelinedOrder:
    """One connection's frames execute in the order they were sent.

    Replies are written back in order whatever the execution order, so
    only the servant can see a reordering -- of stateful sequences
    (begin_shard / add_patterns / collect_report) and of the session's
    id draws.
    """

    FRAMES = 200

    @pytest.mark.parametrize("tier", ALL_TIERS)
    def test_pipelined_frames_execute_in_send_order(self, tier):
        with running(tier) as (_server, host, port):
            with socket.create_connection((host, port), timeout=30) \
                    as sock:
                sock.sendall(b"".join(
                    _frame(CallRequest("recorder", "record", (index,),
                                       call_id=index + 1).encode())
                    for index in range(self.FRAMES)))
                replies = [_read_reply(sock) for _ in range(self.FRAMES)]
                sock.sendall(_frame(CallRequest(
                    "recorder", "order", call_id=self.FRAMES + 1
                ).encode()))
                order = _read_reply(sock).result
        assert [reply.result for reply in replies] \
            == list(range(self.FRAMES))
        assert list(order) == list(range(self.FRAMES))


class TestFarmShardIsolation:
    """A farm shard's fresh ids are bound for that call only."""

    @pytest.mark.parametrize("tier", ALL_TIERS)
    def test_shard_leaves_other_tenants_and_the_process_alone(self, tier):
        netlist = resolve_bench("c17")
        rng = random.Random(5)
        patterns = [{net: Logic(rng.getrandbits(1))
                     for net in netlist.inputs} for _ in range(8)]
        process_default = ids.current()
        before = next(process_default.session_ids)
        with running(tier) as (_server, host, port):
            tenant_b = TcpTransport(host, port)
            try:
                seen = [tenant_b.invoke("ids", "next_session_id", (), {})
                        for _ in range(2)]
                # Tenant A collects a shard over its own connection.
                remote_fault_simulate("c17", patterns,
                                      [f"{host}:{port}"], workers=1)
                seen.append(tenant_b.invoke("ids", "next_session_id",
                                            (), {}))
            finally:
                tenant_b.close()
        assert seen == [1, 2, 3]
        assert ids.current() is process_default
        assert next(process_default.session_ids) == before + 1
