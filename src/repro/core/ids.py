"""Session-scoped id spaces: the six ids that reach marshalled bytes.

Call/batch ids, component session names, negotiation ids, scheduler
ids, module ids and connector auto-names all end up inside marshalled
frames (directly, or through per-pattern session strings and error
messages), and frame sizes feed the virtual-clock network model.  A
run is therefore byte-identical to a fresh-process run only if it
draws these ids from a fresh sequence.

:class:`IdSpace` holds one counter per id.  The space in force is a
:mod:`contextvars` binding: :func:`use_space` binds one for the
duration of a block (a server dispatch, a farm shard), and code with
no binding -- CLI runs, threads the core starts itself -- draws from
the process-default space, one process-global sequence.
Because a binding belongs to the calling context only, concurrent
tenants on different threads never see each other's ids and need no
shared lock.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
from typing import Iterator, Optional


class IdSpace:
    """One fresh counter per marshalled id, each starting at 1.

    ``call_ids`` numbers RMI call, batch and auth frames,
    ``session_ids`` names client component sessions (``session3``),
    ``negotiation_ids`` provider negotiations (``neg2``) and
    ``connector_ids`` auto-named connectors (``n7``).
    """

    __slots__ = ("call_ids", "session_ids", "negotiation_ids",
                 "scheduler_ids", "module_ids", "connector_ids")

    def __init__(self) -> None:
        self.call_ids = itertools.count(1)
        self.session_ids = itertools.count(1)
        self.negotiation_ids = itertools.count(1)
        self.scheduler_ids = itertools.count(1)
        self.module_ids = itertools.count(1)
        self.connector_ids = itertools.count(1)


_process_default = IdSpace()
_bound: "contextvars.ContextVar[Optional[IdSpace]]" = \
    contextvars.ContextVar("repro_id_space", default=None)


def current() -> IdSpace:
    """The space bound in this context, else the process default."""
    space = _bound.get()
    return _process_default if space is None else space


@contextlib.contextmanager
def use_space(space: IdSpace) -> Iterator[IdSpace]:
    """Bind ``space`` for the calling context until the block exits."""
    token = _bound.set(space)
    try:
        yield space
    finally:
        _bound.reset(token)


def reset_process_default() -> None:
    """Install a fresh process-default space (fresh-process hygiene).

    Bindings made with :func:`use_space` are untouched, so a process
    serving bound sessions keeps their sequences.
    """
    global _process_default
    _process_default = IdSpace()


__all__ = ["IdSpace", "current", "use_space", "reset_process_default"]
