"""Process-tier dispatch: per-session servant work in forked workers.

The ``thread`` tier shares the GIL, so CPU-bound servant work -- a
fault-farm shard, an event-driven campaign -- scales past one core
only by leaving the process.  :class:`ProcessDispatcher` ships each
tenant's frames to a small farm of **forked worker processes** with
*sticky* session-to-worker routing: a session's slot is
``(session_id - 1) % workers``, so every frame of one session lands on
the same worker and the worker-resident
:class:`~repro.core.ids.IdSpace` plus servant graph carry that
session's ids and farm-task state forward exactly as a dedicated fresh
process would.  That stickiness is the whole byte-identity story: ids
continue across a session's calls, and
``begin_shard``/``add_patterns``/``collect_report`` sequences never
straddle two servant instances.

Forking is load-bearing twice.  First, the parent registers the
session factory in a module-level registry *before* any worker forks,
so the child inherits the (closure-carrying, unpicklable) factory by
memory -- the same trick :mod:`repro.parallel` uses for scenario
workers.  Second, every worker runs
:func:`repro.parallel.scenarios.reset_session_state` once at fork, so
ids and caches inherited from a busy parent never bleed into tenant
sessions.  Each worker then binds a session's id space around each of
its dispatches.
"""

from __future__ import annotations

import itertools
import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Dict, List, Tuple

from ..core import ids
from ..rmi.protocol import BatchRequest, decode_request
from ..rmi.server import (JavaCADServer, _encode_batch_reply,
                          _encode_reply)
from .session import call_session_factory

# Factories may optionally accept a session_id keyword (see
# call_session_factory), so the signature is deliberately loose.
SessionFactory = Callable[..., JavaCADServer]

# Dispatcher ids key the parent-side factory registry; they never
# leave the parent process or reach marshalled bytes.
_dispatcher_ids = itertools.count(1)  # lint: allow(JCD014)

# Parent-side registry, inherited by forked workers.  Keyed by
# dispatcher id so several process-tier servers can coexist in one
# parent; a worker only ever reads the entry of the dispatcher that
# created it, which was registered before that dispatcher's first
# fork.
_FACTORIES: Dict[int, SessionFactory] = {}

# Worker-side state: each forked worker mutates only its own copy.
_worker_sessions: Dict[Tuple[int, int],
                       Tuple[JavaCADServer, ids.IdSpace]] = {}


def _worker_init() -> None:
    """Per-worker fork hygiene: rewind inherited counters and caches."""
    from ..parallel.scenarios import reset_session_state

    reset_session_state()
    # Runs once per fork, before the worker serves anything; no other
    # thread exists in the child yet.
    _worker_sessions.clear()  # lint: allow(JCD017)


def _worker_ready() -> bool:
    """Warm-up probe: forces the fork and proves the worker answers."""
    return True


def _worker_session(dispatcher_id: int, session_id: int
                    ) -> Tuple[JavaCADServer, ids.IdSpace]:
    key = (dispatcher_id, session_id)
    entry = _worker_sessions.get(key)
    if entry is None:
        factory = _FACTORIES.get(dispatcher_id)
        if factory is None:  # pragma: no cover - registration bug
            raise RuntimeError(
                f"worker has no session factory for dispatcher "
                f"{dispatcher_id} (forked before registration?)")
        # The tenant's own session id names the session, so a worker
        # hosting several tenants (or a restarted worker) reproduces
        # the names a dedicated fresh process would choose.
        entry = (call_session_factory(factory, session_id),
                 ids.IdSpace())
        # Worker-local copy of the dict: a single-process pool runs
        # one dispatch at a time, so no second thread can be here.
        _worker_sessions[key] = entry  # lint: allow(JCD017)
    return entry


def _worker_dispatch(dispatcher_id: int, session_id: int,
                     frame: bytes) -> bytes:
    """Decode, dispatch and encode one frame inside the worker.

    The parent already decoded the frame once (AUTH screening and
    accounting happen there); decoding again here keeps the wire bytes
    -- not live request objects -- as the only thing crossing the
    process boundary.
    """
    session, space = _worker_session(dispatcher_id, session_id)
    with ids.use_space(space):
        return _dispatch_encoded(session, decode_request(frame))


def _dispatch_encoded(session: JavaCADServer, request: object) -> bytes:
    if isinstance(request, BatchRequest):
        return _encode_batch_reply(request,
                                   session.dispatch_batch(request))
    return _encode_reply(request, session.dispatch(request))


def _worker_forget(dispatcher_id: int, session_id: int) -> None:
    """Release a closed connection's worker-resident session."""
    # Same single-dispatch-at-a-time story as _worker_session.
    _worker_sessions.pop((dispatcher_id, session_id),  # lint: allow(JCD017)
                         None)


class ProcessDispatcher:
    """Sticky session-to-worker routing over single-process pools.

    ``workers`` separate one-process executors (rather than one pool
    of ``workers`` processes) because stickiness is the contract:
    ``ProcessPoolExecutor`` offers no per-task placement, but a
    dedicated executor per slot does, at identical process cost.
    """

    def __init__(self, session_factory: SessionFactory,
                 workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the process dispatch tier requires the fork start "
                "method (session factories reach workers by fork "
                "inheritance); this platform offers none")
        self.id = next(_dispatcher_ids)
        self.workers = workers
        # Registered before any executor forks, so every worker
        # inherits the factory through fork memory.  Parent-side only,
        # written before this dispatcher's first fork and read by
        # workers after it; the asyncio loop thread is the sole writer.
        _FACTORIES[self.id] = session_factory  # lint: allow(JCD017)
        context = multiprocessing.get_context("fork")
        self._pools: List[ProcessPoolExecutor] = [
            ProcessPoolExecutor(max_workers=1, mp_context=context,
                                initializer=_worker_init)
            for _ in range(workers)]

    def warm_futures(self) -> List["Future[bool]"]:
        """Fork every worker now; await these before serving traffic.

        Pre-forking at startup keeps the fork away from the busier
        mid-serve parent and surfaces worker spawn failures as startup
        errors instead of first-dispatch failures.
        """
        return [pool.submit(_worker_ready) for pool in self._pools]

    def pool_for(self, session_id: int) -> ProcessPoolExecutor:
        return self._pools[(session_id - 1) % self.workers]

    def submit(self, session_id: int, frame: bytes) -> "Future[bytes]":
        """Dispatch one frame on the session's sticky worker."""
        return self.pool_for(session_id).submit(
            _worker_dispatch, self.id, session_id, frame)

    def forget(self, session_id: int) -> None:
        """Drop the worker-resident session (connection closed)."""
        try:
            self.pool_for(session_id).submit(
                _worker_forget, self.id, session_id)
        except RuntimeError:  # pragma: no cover - pool already down
            pass

    def shutdown(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)
        # Single writer (the owning server's loop thread), and every
        # worker that could read the entry has already exited.
        _FACTORIES.pop(self.id, None)  # lint: allow(JCD017)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ProcessDispatcher(id={self.id}, "
                f"workers={self.workers})")
