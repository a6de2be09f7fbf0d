"""AsyncRMIServer: an asyncio multi-tenant front end for JavaCADServer.

The blocking TCP door in :mod:`repro.rmi.server` spawns one OS thread
per connection -- fine for a handful of integration sockets, hopeless
for a provider hosting many design sessions at once (the paper's
multi-client JavaCAD server).  This module keeps the *dispatch core*
exactly as it is (``JavaCADServer.dispatch`` / ``dispatch_batch``, with
its method whitelists, error replies and telemetry) and replaces only
the front end:

* an :mod:`asyncio` event loop owns every socket -- thousands of idle
  connections cost file descriptors, not threads;
* servant work leaves the loop through a selectable **dispatch tier**
  (``dispatch=``): ``thread`` runs on a bounded shared thread pool,
  one dispatch per connection at a time in arrival order and no lock
  across connections, and ``process`` ships frames to forked worker
  processes with sticky session routing so CPU-bound servant work
  escapes the GIL entirely;
* each connection gets an ordered three-stage pipeline (reader ->
  replier -> writer) with bounded queues, so a client that stops
  reading exerts backpressure instead of ballooning server memory;
* connections beyond ``max_connections`` are refused with a proper
  error frame, not an unexplained reset;
* an optional shared **bearer token** is enforced before any frame can
  reach dispatch, and optional **TLS** wraps the whole exchange;
* a per-connection :class:`~repro.core.ids.IdSpace`, bound around
  each of its dispatches, gives every tenant the ids of a fresh
  process, which is what makes a farmed fault report byte-identical to
  a serial run.

The server runs its event loop on a dedicated thread behind a
synchronous ``start()`` / ``stop()`` facade, so the CLI, tests and
benchmarks use it exactly like the blocking ``serve_tcp`` door.
"""

from __future__ import annotations

import asyncio
import hmac
import itertools
import ssl
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..core import ids
from ..core.errors import RemoteError
from ..rmi.protocol import (AuthRequest, BatchRequest, CallReply,
                            decode_request)
from ..rmi.server import (JavaCADServer, _encode_batch_reply,
                          _encode_reply)
from ..telemetry.runtime import TELEMETRY
from .dispatch import ProcessDispatcher
from .session import call_session_factory

DEFAULT_MAX_CONNECTIONS = 64
DEFAULT_DISPATCH_WORKERS = 4
DEFAULT_HANDSHAKE_TIMEOUT = 5.0
DEFAULT_DRAIN_TIMEOUT = 5.0
DEFAULT_QUEUE_DEPTH = 32

DISPATCH_TIERS = ("thread", "process")
"""Selectable dispatch tiers, cheapest-setup first.

``thread``: a shared pool of ``dispatch_workers`` threads; each
connection's dispatches run one at a time in arrival order, with the
connection's id space bound.  There is no lock across connections, so
a slow tenant holds one pool thread and stalls no one else while a
thread is free, though CPU-bound Python shares the GIL.  ``process``: frames ship to forked worker processes with
sticky session routing -- CPU-bound servant work runs truly in
parallel.  Both tiers keep each tenant byte-identical to a
fresh-process serial run."""


@dataclass
class ServerStats:
    """Aggregate counters for one :class:`AsyncRMIServer` lifetime."""

    connections_accepted: int = 0
    connections_refused: int = 0
    connections_open: int = 0
    connections_peak: int = 0
    sessions_started: int = 0
    auth_failures: int = 0
    auth_refreshes: int = 0
    calls_served: int = 0
    batches_served: int = 0
    protocol_errors: int = 0
    drained: bool = True
    """Whether the last shutdown flushed every pipeline before the
    drain deadline (False means in-flight work was cut off)."""

    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of the counters."""
        with self._lock:
            return {
                "connections_accepted": self.connections_accepted,
                "connections_refused": self.connections_refused,
                "connections_open": self.connections_open,
                "connections_peak": self.connections_peak,
                "sessions_started": self.sessions_started,
                "auth_failures": self.auth_failures,
                "auth_refreshes": self.auth_refreshes,
                "calls_served": self.calls_served,
                "batches_served": self.batches_served,
                "protocol_errors": self.protocol_errors,
                "drained": self.drained,
            }

    def summary_line(self) -> str:
        """One-line summary (the async faultworker prints it at exit)."""
        snap = self.snapshot()
        return ("server stats: "
                f"accepted={snap['connections_accepted']} "
                f"refused={snap['connections_refused']} "
                f"peak={snap['connections_peak']} "
                f"sessions={snap['sessions_started']} "
                f"auth_failures={snap['auth_failures']} "
                f"calls={snap['calls_served']} "
                f"batches={snap['batches_served']} "
                f"drained={snap['drained']}")


class _Connection:
    """Per-connection pipeline state (event-loop thread only)."""

    def __init__(self, server: "AsyncRMIServer",
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 session: Optional[JavaCADServer],
                 session_id: int):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.session = session
        self.session_id = session_id
        # Thread tier: the tenant's ids, and the lock that runs its
        # dispatches one at a time in arrival order (asyncio.Lock wakes
        # waiters first-in, first-out).
        self.space = ids.IdSpace()
        self.fifo = asyncio.Lock()
        self.pending: "asyncio.Queue[Optional[asyncio.Future[bytes]]]" = \
            asyncio.Queue(maxsize=server.max_pending)
        self.writes: "asyncio.Queue[Optional[bytes]]" = \
            asyncio.Queue(maxsize=server.max_write_queue)
        self.in_flight = 0
        self.broken = False
        self.task: Optional["asyncio.Task[None]"] = None

    @property
    def quiescent(self) -> bool:
        """No queued or in-flight work left to flush."""
        return (self.in_flight == 0 and self.pending.empty()
                and self.writes.empty())

    def abort(self) -> None:
        """Tear the transport down immediately (shutdown path)."""
        transport = self.writer.transport
        if transport is not None:
            transport.abort()


class AsyncRMIServer:
    """Asyncio front end multiplexing tenants onto a dispatch core.

    Exactly one of ``server`` (a shared :class:`JavaCADServer` every
    connection dispatches against) or ``session_factory`` (a callable
    returning a *fresh* ``JavaCADServer`` per connection, for servants
    that keep per-tenant state such as the fault farm) must be given.

    ``dispatch`` selects how servant work leaves the event loop (see
    :data:`DISPATCH_TIERS`): ``thread`` (default) is the shared pool
    of ``dispatch_workers`` threads, and ``process`` routes each
    session stickily to one of ``dispatch_workers`` forked worker
    processes (the session factory crosses by fork inheritance, so it
    need not be picklable).  Both tiers preserve per-tenant
    byte-identity with a fresh-process serial run.
    """

    def __init__(self, server: Optional[JavaCADServer] = None, *,
                 session_factory: Optional[
                     Callable[..., JavaCADServer]] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_connections: int = DEFAULT_MAX_CONNECTIONS,
                 auth_token: Optional[str] = None,
                 ssl_context: Optional[ssl.SSLContext] = None,
                 idle_timeout: Optional[float] = None,
                 handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
                 drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
                 dispatch_workers: int = DEFAULT_DISPATCH_WORKERS,
                 dispatch: str = "thread",
                 max_pending: int = DEFAULT_QUEUE_DEPTH,
                 max_write_queue: int = DEFAULT_QUEUE_DEPTH,
                 name: str = "async-rmi"):
        if (server is None) == (session_factory is None):
            raise ValueError(
                "exactly one of server / session_factory is required")
        if max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {max_connections}")
        if dispatch not in DISPATCH_TIERS:
            raise ValueError(
                f"unknown dispatch tier {dispatch!r}; expected one of "
                f"{DISPATCH_TIERS}")
        self._shared_server = server
        self._session_factory = session_factory
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.auth_token = auth_token
        self.ssl_context = ssl_context
        self.idle_timeout = idle_timeout
        self.handshake_timeout = handshake_timeout
        self.drain_timeout = drain_timeout
        self.dispatch_workers = dispatch_workers
        self.dispatch_tier = dispatch
        self.max_pending = max_pending
        self.max_write_queue = max_write_queue
        self.name = name
        self.stats = ServerStats()
        self.address: Optional[Tuple[str, int]] = None
        self._session_ids = itertools.count(1)
        self._dispatcher: Optional[ProcessDispatcher] = None
        self._connections: Set[_Connection] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._listener: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._finished = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._draining = False

    # ------------------------------------------------------------------
    # Synchronous facade
    # ------------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Run the event loop on a background thread; return address."""
        if self._thread is not None:
            raise RemoteError(f"{self.name} is already running")
        self._started.clear()
        self._finished.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name=f"{self.name}-loop", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            error = self._startup_error
            raise RemoteError(
                f"{self.name} failed to start: {error}") from error
        assert self.address is not None
        return self.address

    def stop(self, timeout: Optional[float] = None) -> None:
        """Drain and stop the server; join the loop thread."""
        thread = self._thread
        if thread is None:
            return
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "AsyncRMIServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Event loop body
    # ------------------------------------------------------------------

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - report to starter
            if not self._started.is_set():
                self._startup_error = exc
            else:
                raise
        finally:
            self._started.set()
            self._finished.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._draining = False
        try:
            if self.dispatch_tier == "process":
                factory = self._session_factory
                if factory is None:
                    # Shared-core mode: workers dispatch against their
                    # fork-inherited copy of the shared server (its
                    # servants must be per-call pure, the documented
                    # contract for sharing them at all).
                    shared = self._shared_server
                    factory = lambda: shared  # noqa: E731
                self._dispatcher = ProcessDispatcher(
                    factory, self.dispatch_workers)
                # Fork every worker before the first tenant arrives.
                await asyncio.gather(*[
                    asyncio.wrap_future(future)
                    for future in self._dispatcher.warm_futures()])
            # The dispatch thread pool comes up only after the process
            # tier has forked its workers: a forked child must never
            # inherit live dispatch threads (JCD016).
            self._executor = ThreadPoolExecutor(
                max_workers=self.dispatch_workers,
                thread_name_prefix=f"{self.name}-dispatch")
            self._listener = await asyncio.start_server(
                self._handle_connection, self.host, self.port,
                ssl=self.ssl_context)
            sockname = self._listener.sockets[0].getsockname()
            self.address = (sockname[0], sockname[1])
            if TELEMETRY.enabled:
                TELEMETRY.metrics.gauge(
                    "server.dispatch.workers",
                    labels={"server": self.name,
                            "tier": self.dispatch_tier}).set(
                        self.dispatch_workers)
            self._started.set()
            await self._stop_event.wait()
            await self._shutdown()
        finally:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
            if self._dispatcher is not None:
                self._dispatcher.shutdown()
                self._dispatcher = None
            self._listener = None
            self._loop = None
            self._stop_event = None

    async def _shutdown(self) -> None:
        """Stop accepting, drain pipelines, then close what remains."""
        self._draining = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        clean = True
        while any(not conn.quiescent
                  for conn in list(self._connections)):
            if loop.time() >= deadline:
                clean = False
                break
            await asyncio.sleep(0.01)
        with self.stats._lock:
            self.stats.drained = clean
        tasks = []
        for conn in list(self._connections):
            conn.abort()
            if conn.task is not None:
                conn.task.cancel()
                tasks.append(conn.task)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        with self.stats._lock:
            open_now = self.stats.connections_open
        if self._draining or open_now >= self.max_connections:
            await self._refuse(writer)
            return
        accounted = False
        conn: Optional[_Connection] = None
        try:
            self._count_open(+1)
            accounted = True
            self._bump("server.connections.accepted",
                       "connections_accepted")
            if not await self._authenticate(reader, writer):
                return
            # Session state is built only for authenticated tenants, so
            # a wrong token can never reach a session or the dispatch
            # core.
            session_id = next(self._session_ids)
            session: Optional[JavaCADServer] = None
            if self._dispatcher is None:
                session = (self._shared_server
                           if self._shared_server is not None
                           else call_session_factory(
                               self._session_factory,  # type: ignore[arg-type]
                               session_id))
            # Process tier: the session (and its id space) lives in the
            # sticky worker; the parent never builds one.
            conn = _Connection(self, reader, writer, session, session_id)
            conn.task = asyncio.current_task()
            self._connections.add(conn)
            self._bump("server.sessions", "sessions_started")
            await self._serve(conn)
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        finally:
            if conn is not None:
                self._connections.discard(conn)
                if self._dispatcher is not None:
                    self._dispatcher.forget(conn.session_id)
            if accounted:
                self._count_open(-1)
            transport = writer.transport
            if transport is not None:
                transport.abort()

    async def _refuse(self, writer: asyncio.StreamWriter) -> None:
        """Reply with a capacity error frame and close."""
        self._bump("server.connections.refused", "connections_refused")
        try:
            payload = CallReply(
                0, ok=False,
                error=(f"server at capacity "
                       f"({self.max_connections} connections); "
                       f"retry later")).encode()
            writer.write(struct.pack(">I", len(payload)) + payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    async def _authenticate(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> bool:
        """Enforce the shared bearer token before any dispatch.

        With a token configured, the *first* frame must be a matching
        AUTH frame; anything else (a call, a bad token, garbage) is
        counted as an auth failure and refused without ever touching
        the dispatch core.  Without a token, AUTH frames are accepted
        trivially so token-configured clients still interoperate.
        """
        if self.auth_token is None:
            return True
        try:
            frame = await asyncio.wait_for(
                self._read_frame(reader),
                timeout=self.handshake_timeout)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, OSError):
            self._auth_failure()
            return False
        try:
            request = decode_request(frame)
        except Exception:  # noqa: BLE001 - garbage is an auth failure
            self._auth_failure()
            return False
        if not isinstance(request, AuthRequest) or not hmac.compare_digest(
                request.token.encode("utf-8"),
                self.auth_token.encode("utf-8")):
            self._auth_failure()
            call_id = request.call_id \
                if isinstance(request, AuthRequest) else 0
            await self._send_frame(writer, CallReply(
                call_id, ok=False,
                error="authentication failed").encode())
            return False
        await self._send_frame(writer, CallReply(
            request.call_id, ok=True, result="ok").encode())
        return True

    async def _serve(self, conn: _Connection) -> None:
        """Reader stage: decode frames, submit dispatch, keep order."""
        assert self._loop is not None and self._executor is not None
        replier = asyncio.ensure_future(self._replier(conn))
        sender = asyncio.ensure_future(self._writer(conn))
        try:
            while not conn.broken:
                try:
                    if self.idle_timeout is not None:
                        frame = await asyncio.wait_for(
                            self._read_frame(conn.reader),
                            timeout=self.idle_timeout)
                    else:
                        frame = await self._read_frame(conn.reader)
                except (asyncio.TimeoutError,
                        asyncio.IncompleteReadError,
                        ConnectionError, OSError):
                    break
                future = self._submit(conn, frame)
                if future is None:
                    break
                conn.in_flight += 1
                await conn.pending.put(future)
        finally:
            # Cancellation (shutdown) can land on any of these awaits;
            # the inner finally guarantees the stage tasks never
            # outlive the handler either way.
            try:
                await conn.pending.put(None)
                await replier
                await sender
            finally:
                replier.cancel()
                sender.cancel()

    def _submit(self, conn: _Connection,
                frame: bytes) -> Optional["asyncio.Future[bytes]"]:
        """Turn one frame into a future producing encoded reply bytes."""
        assert self._loop is not None and self._executor is not None
        try:
            request = decode_request(frame)
        except Exception:  # noqa: BLE001 - protocol violation
            self._bump(None, "protocol_errors")
            return None
        if isinstance(request, AuthRequest):
            return self._refresh_auth(request)
        self._account_request(request)
        self._queue_depth(+1)
        if self._dispatcher is not None:
            return asyncio.ensure_future(
                self._execute_process(conn, frame))
        return asyncio.ensure_future(self._execute_thread(conn, request))

    def _refresh_auth(self, request: AuthRequest
                      ) -> "asyncio.Future[bytes]":
        """Mid-session AUTH: re-verify the token and count the frame.

        Refreshes are *excluded* from ``calls_served``/``server.calls``
        on purpose -- the client transport does not count its AUTH
        frames in ``rmi.calls`` either, so both sides keep agreeing on
        the call totals (pinned in tests/server/test_async_server.py).
        They are counted separately as ``auth_refreshes``; a refresh
        with a wrong token is an auth failure and an error reply, but
        the session itself stays authenticated from its handshake.
        """
        assert self._loop is not None
        resolved: "asyncio.Future[bytes]" = self._loop.create_future()
        if self.auth_token is not None and not hmac.compare_digest(
                request.token.encode("utf-8"),
                self.auth_token.encode("utf-8")):
            self._auth_failure()
            resolved.set_result(CallReply(
                request.call_id, ok=False,
                error="authentication failed").encode())
            return resolved
        self._bump("server.auth.refreshes", "auth_refreshes")
        resolved.set_result(CallReply(
            request.call_id, ok=True, result="ok").encode())
        return resolved

    def _account_request(self, request: Any) -> None:
        """Count one dispatched frame (parent-side, every tier)."""
        if isinstance(request, BatchRequest):
            self._bump("server.batches", "batches_served")
            with self.stats._lock:
                self.stats.calls_served += len(request.calls)
            if TELEMETRY.enabled:
                TELEMETRY.metrics.counter(
                    "server.calls",
                    labels={"server": self.name}).inc(len(request.calls))
        else:
            self._bump("server.calls", "calls_served")

    async def _execute_thread(self, conn: _Connection,
                              request: Any) -> bytes:
        """Thread tier: run on the pool after the connection's earlier
        frames, so its dispatches keep arrival order."""
        assert self._loop is not None
        try:
            async with conn.fifo:
                return await self._loop.run_in_executor(
                    self._executor, self._execute, conn, request)
        finally:
            self._queue_depth(-1)

    def _execute(self, conn: _Connection, request: Any) -> bytes:
        """Dispatch one request on an executor thread; encode there too."""
        start = time.perf_counter()
        try:
            with ids.use_space(conn.space):
                return self._dispatch(conn.session, request)
        finally:
            if TELEMETRY.enabled:
                TELEMETRY.metrics.histogram(
                    "server.dispatch.latency",
                    labels={"server": self.name}).observe(
                        time.perf_counter() - start)

    async def _execute_process(self, conn: _Connection,
                               frame: bytes) -> bytes:
        """Process tier: ship the frame to the session's sticky worker.

        The latency histogram here spans submit-to-reply (queue wait on
        the worker included), since the worker's own clock is out of
        reach.
        """
        assert self._dispatcher is not None
        start = time.perf_counter()
        try:
            return await asyncio.wrap_future(self._dispatcher.submit(
                conn.session_id, frame))
        finally:
            self._queue_depth(-1)
            if TELEMETRY.enabled:
                TELEMETRY.metrics.histogram(
                    "server.dispatch.latency",
                    labels={"server": self.name}).observe(
                        time.perf_counter() - start)

    def _dispatch(self, session: Optional[JavaCADServer],
                  request: Any) -> bytes:
        assert session is not None
        if isinstance(request, BatchRequest):
            return _encode_batch_reply(
                request, session.dispatch_batch(request))
        return _encode_reply(request, session.dispatch(request))

    async def _replier(self, conn: _Connection) -> None:
        """Middle stage: await dispatch futures in submission order."""
        while True:
            future = await conn.pending.get()
            if future is None:
                await conn.writes.put(None)
                return
            try:
                payload = await future
            except Exception:  # noqa: BLE001 - executor crash
                payload = CallReply(
                    0, ok=False, error="internal dispatch failure"
                ).encode()
            await conn.writes.put(payload)

    async def _writer(self, conn: _Connection) -> None:
        """Final stage: frame bytes onto the socket with backpressure."""
        while True:
            payload = await conn.writes.get()
            if payload is None:
                return
            if not conn.broken:
                try:
                    conn.writer.write(
                        struct.pack(">I", len(payload)) + payload)
                    await conn.writer.drain()
                except (ConnectionError, OSError):
                    conn.broken = True
            conn.in_flight -= 1

    # ------------------------------------------------------------------
    # Frame + accounting helpers
    # ------------------------------------------------------------------

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader) -> bytes:
        header = await reader.readexactly(4)
        (length,) = struct.unpack(">I", header)
        return await reader.readexactly(length)

    @staticmethod
    async def _send_frame(writer: asyncio.StreamWriter,
                          payload: bytes) -> None:
        try:
            writer.write(struct.pack(">I", len(payload)) + payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    def _auth_failure(self) -> None:
        self._bump("server.auth.failures", "auth_failures")

    def _bump(self, metric: Optional[str], stat: str) -> None:
        with self.stats._lock:
            setattr(self.stats, stat, getattr(self.stats, stat) + 1)
        if metric is not None and TELEMETRY.enabled:
            TELEMETRY.metrics.counter(
                metric, labels={"server": self.name}).inc()

    def _count_open(self, delta: int) -> None:
        with self.stats._lock:
            self.stats.connections_open += delta
            if self.stats.connections_open > self.stats.connections_peak:
                self.stats.connections_peak = self.stats.connections_open
            open_now = self.stats.connections_open
            peak = self.stats.connections_peak
        if TELEMETRY.enabled:
            labels = {"server": self.name}
            TELEMETRY.metrics.gauge(
                "server.connections.open", labels=labels).set(open_now)
            TELEMETRY.metrics.gauge(
                "server.connections.peak", labels=labels).set(peak)

    def _queue_depth(self, delta: int) -> None:
        if TELEMETRY.enabled:
            TELEMETRY.metrics.gauge(
                "server.dispatch.queue_depth",
                labels={"server": self.name}).inc(delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._thread is not None else "stopped"
        return (f"AsyncRMIServer({self.name!r}, {state}, "
                f"dispatch={self.dispatch_tier!r}, "
                f"max_connections={self.max_connections})")
