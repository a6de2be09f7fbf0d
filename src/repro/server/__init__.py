"""repro.server: async multi-tenant front end for the RMI substrate."""

from .async_server import (DEFAULT_DISPATCH_WORKERS, DEFAULT_DRAIN_TIMEOUT,
                           DEFAULT_HANDSHAKE_TIMEOUT,
                           DEFAULT_MAX_CONNECTIONS, DISPATCH_TIERS,
                           AsyncRMIServer, ServerStats)
from .dispatch import ProcessDispatcher
from .session import call_session_factory

__all__ = [
    "AsyncRMIServer", "ServerStats", "ProcessDispatcher",
    "DEFAULT_MAX_CONNECTIONS", "DEFAULT_DISPATCH_WORKERS",
    "DEFAULT_HANDSHAKE_TIMEOUT", "DEFAULT_DRAIN_TIMEOUT",
    "DISPATCH_TIERS", "call_session_factory",
]
