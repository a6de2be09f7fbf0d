"""Per-connection session construction for the async server.

A session's ids come from its connection's
:class:`~repro.core.ids.IdSpace`, which the dispatch tier binds around
every dispatch; this module only builds the session itself.
"""

from __future__ import annotations

import inspect
from typing import Callable, TypeVar

_T = TypeVar("_T")


def call_session_factory(factory: Callable[..., _T],
                         session_id: int) -> _T:
    """Invoke a session factory, passing ``session_id`` if it takes one.

    Session-scoped resources -- above all the session's *name*, which
    is marshalled into farm task ids and error strings -- must derive
    from the tenant's own session id, not from factory-level counters
    shared across tenants (and duplicated across forked workers).
    Factories opt in by accepting a ``session_id`` parameter; plain
    zero-argument factories keep working unchanged.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins, odd callables
        return factory()
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD \
                or parameter.name == "session_id":
            return factory(session_id=session_id)
    return factory()
