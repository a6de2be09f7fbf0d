"""Wire protocol messages for the RMI substrate.

Messages are plain value objects that marshal through the restricted
serializer; the same message types travel over the in-process transport
(with simulated network timing) and the real TCP transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..core import ids
from ..core.errors import MarshalError
from .marshal import marshal, unmarshal


@dataclass(frozen=True)
class CallRequest:
    """A remote method invocation request."""

    object_name: str
    method: str
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    call_id: int = field(default_factory=lambda: next(ids.current().call_ids))
    oneway: bool = False

    def to_wire(self) -> Dict[str, Any]:
        """The request as a marshallable dict (shared with BATCH frames)."""
        return {
            "kind": "call",
            "object": self.object_name,
            "method": self.method,
            "args": tuple(self.args),
            "kwargs": dict(self.kwargs),
            "id": self.call_id,
            "oneway": self.oneway,
        }

    def encode(self) -> bytes:
        """Marshal to wire bytes (rejects non-whitelisted arguments)."""
        return marshal(self.to_wire())

    @staticmethod
    def from_wire(wire: Any) -> "CallRequest":
        """Rebuild a request from its marshallable dict form."""
        if not isinstance(wire, dict) or wire.get("kind") != "call":
            raise MarshalError(f"not a call request: {wire!r}")
        return CallRequest(
            object_name=wire["object"],
            method=wire["method"],
            args=tuple(wire["args"]),
            kwargs=dict(wire["kwargs"]),
            call_id=wire["id"],
            oneway=wire["oneway"],
        )

    @staticmethod
    def decode(data: bytes) -> "CallRequest":
        """Rebuild a request from wire bytes."""
        return CallRequest.from_wire(unmarshal(data))


@dataclass(frozen=True)
class CallReply:
    """The reply to a :class:`CallRequest`."""

    call_id: int
    ok: bool
    result: Any = None
    error: Optional[str] = None

    def to_wire(self) -> Dict[str, Any]:
        """The reply as a marshallable dict (shared with BATCH frames)."""
        return {
            "kind": "reply",
            "id": self.call_id,
            "ok": self.ok,
            "result": self.result,
            "error": self.error,
        }

    def encode(self) -> bytes:
        """Marshal to wire bytes (rejects non-whitelisted results)."""
        return marshal(self.to_wire())

    @staticmethod
    def from_wire(wire: Any) -> "CallReply":
        """Rebuild a reply from its marshallable dict form."""
        if not isinstance(wire, dict) or wire.get("kind") != "reply":
            raise MarshalError(f"not a call reply: {wire!r}")
        return CallReply(call_id=wire["id"], ok=wire["ok"],
                         result=wire["result"], error=wire["error"])

    @staticmethod
    def decode(data: bytes) -> "CallReply":
        """Rebuild a reply from wire bytes."""
        return CallReply.from_wire(unmarshal(data))


@dataclass(frozen=True)
class BatchRequest:
    """A BATCH frame: several calls travelling as one round trip.

    The server dispatches the calls in order, in one pass, and answers
    with one :class:`BatchReply` carrying a positional reply per call
    (oneway calls included, so the reply list always lines up with the
    request list).  Batching changes *when* bytes move, never *what*
    they mean: each inner call is the same ``CallRequest`` that would
    have travelled alone.
    """

    calls: Tuple[CallRequest, ...]
    batch_id: int = field(default_factory=lambda: next(ids.current().call_ids))

    def encode(self) -> bytes:
        """Marshal to wire bytes (rejects non-whitelisted arguments)."""
        if not self.calls:
            raise MarshalError("a BATCH frame needs at least one call")
        return marshal({
            "kind": "batch",
            "id": self.batch_id,
            "calls": tuple(call.to_wire() for call in self.calls),
        })

    @staticmethod
    def decode(data: bytes) -> "BatchRequest":
        """Rebuild a batch from wire bytes."""
        wire = unmarshal(data)
        if not isinstance(wire, dict) or wire.get("kind") != "batch":
            raise MarshalError(f"not a batch request: {wire!r}")
        calls = tuple(CallRequest.from_wire(item)
                      for item in wire["calls"])
        if not calls:
            raise MarshalError("BATCH frame carries no calls")
        return BatchRequest(calls=calls, batch_id=wire["id"])


@dataclass(frozen=True)
class BatchReply:
    """The reply to a :class:`BatchRequest`: one reply per call, in order."""

    batch_id: int
    replies: Tuple[CallReply, ...]

    def encode(self) -> bytes:
        """Marshal to wire bytes (rejects non-whitelisted results)."""
        return marshal({
            "kind": "batch-reply",
            "id": self.batch_id,
            "replies": tuple(reply.to_wire() for reply in self.replies),
        })

    @staticmethod
    def decode(data: bytes) -> "BatchReply":
        """Rebuild a batch reply from wire bytes."""
        wire = unmarshal(data)
        if not isinstance(wire, dict) or wire.get("kind") != "batch-reply":
            raise MarshalError(f"not a batch reply: {wire!r}")
        return BatchReply(
            batch_id=wire["id"],
            replies=tuple(CallReply.from_wire(item)
                          for item in wire["replies"]))


@dataclass(frozen=True)
class AuthRequest:
    """An AUTH frame: the first frame on an authenticated connection.

    Carries a shared bearer token; the server answers with an ordinary
    :class:`CallReply` (``ok=True`` on acceptance) so clients reuse the
    reply decoding they already have.  Servers that require a token
    refuse every other frame kind until an AUTH frame has been
    accepted, which is what keeps unauthenticated traffic away from
    ``dispatch`` entirely.  Token comparison on the server side is
    constant-time (:func:`hmac.compare_digest`), so the handshake does
    not leak prefix-match timing.
    """

    token: str
    call_id: int = field(default_factory=lambda: next(ids.current().call_ids))

    def to_wire(self) -> Dict[str, Any]:
        """The AUTH frame as a marshallable dict."""
        return {
            "kind": "auth",
            "token": self.token,
            "id": self.call_id,
        }

    def encode(self) -> bytes:
        """Marshal to wire bytes."""
        return marshal(self.to_wire())

    @staticmethod
    def from_wire(wire: Any) -> "AuthRequest":
        """Rebuild an AUTH frame from its marshallable dict form."""
        if not isinstance(wire, dict) or wire.get("kind") != "auth":
            raise MarshalError(f"not an auth request: {wire!r}")
        return AuthRequest(token=str(wire["token"]), call_id=wire["id"])

    @staticmethod
    def decode(data: bytes) -> "AuthRequest":
        """Rebuild an AUTH frame from wire bytes."""
        return AuthRequest.from_wire(unmarshal(data))


def decode_request(data: bytes):
    """Decode an incoming request frame: a call, a batch, or AUTH.

    The TCP accept loops (blocking and async) use this so one socket
    carries every frame kind interchangeably.
    """
    wire = unmarshal(data)
    if isinstance(wire, dict) and wire.get("kind") == "batch":
        calls = tuple(CallRequest.from_wire(item)
                      for item in wire["calls"])
        if not calls:
            raise MarshalError("BATCH frame carries no calls")
        return BatchRequest(calls=calls, batch_id=wire["id"])
    if isinstance(wire, dict) and wire.get("kind") == "auth":
        return AuthRequest.from_wire(wire)
    return CallRequest.from_wire(wire)
