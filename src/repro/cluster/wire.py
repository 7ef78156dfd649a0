"""Length-prefixed JSON frames plus the paper's message accounting.

The transport is deliberately boring: every message is a 4-byte
big-endian length followed by a UTF-8 JSON object, over a local TCP
socket.  What makes it level-5 is the *accounting*: the coordinator logs
every frame it exchanges with a shard as a Section 9 ``Send``/``Receive``
event carrying an :class:`~repro.core.summary.ActionSummary`, so a
cluster run produces the same message-protocol telemetry as the
single-process simulator (`repro.distributed`).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from contextlib import ExitStack
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.events import Event, Receive, Send
from ..core.summary import ActionSummary

_HEADER = struct.Struct(">I")
#: Frames above this size indicate a protocol bug, not a big payload.
MAX_FRAME = 64 * 1024 * 1024


class WireClosed(ConnectionError):
    """The peer closed (or was SIGKILLed out from under) the connection."""


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise WireClosed("peer closed the connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(body)) + body)


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME:
        raise WireClosed("oversized frame (%d bytes)" % length)
    return json.loads(_recv_exact(sock, length).decode("utf-8"))


class Channel:
    """One request/response connection to a shard, with a send lock.

    A channel is used by exactly one logical client at a time (worker
    threads keep thread-local channels; the pump and admin paths have
    their own), but the lock keeps misuse from interleaving frames.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lock = threading.Lock()

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        (reply,) = exchange([(self, payload)])
        if isinstance(reply, WireClosed):
            raise reply
        return reply

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def exchange(
    requests: Sequence[Tuple[Channel, Dict[str, Any]]],
) -> List[Union[Dict[str, Any], WireClosed]]:
    """One frame to each channel at once: a reply (or the
    :class:`WireClosed` met instead) per request, in request order.

    Every frame is sent before any reply is read, so the peers work on
    their frames concurrently.  The channel locks are taken in request
    order (callers pass site order, so two fan-outs cannot deadlock),
    and every sent frame's reply is read before the locks are released:
    a dead peer costs its own slot, never leaves another channel holding
    an unread reply."""
    results: List[Any] = []
    with ExitStack() as held:
        for channel, _payload in requests:
            held.enter_context(channel._lock)
        for channel, payload in requests:
            try:
                send_frame(channel.sock, payload)
                results.append(None)  # sent: its reply is owed
            except (OSError, ValueError) as error:
                results.append(WireClosed(str(error)))
        for slot, (channel, _payload) in enumerate(requests):
            if results[slot] is not None:
                continue
            try:
                results[slot] = recv_frame(channel.sock)
            except (OSError, ValueError) as error:
                results[slot] = WireClosed(str(error))
    return results


class ProtocolLog:
    """Send/Receive accounting over the coordinator's frames.

    Node numbering follows the simulator: shards are nodes ``0..k-1``
    and the coordinator is node ``k``.  Each frame becomes a
    :class:`~repro.core.events.Send` (coordinator -> shard) or
    :class:`~repro.core.events.Receive` (reply delivered back), with the
    governing transaction's status as the :class:`ActionSummary`
    payload.  The full event list is capped; the counts are not.
    """

    def __init__(self, coordinator_node: int, keep: int = 2000) -> None:
        self.coordinator_node = coordinator_node
        self.keep = keep
        self.sent = 0
        self.received = 0
        self.summary_entries = 0
        # Round trips by shard — the per-site saturation axis: a skewed
        # routing table shows up here as one hot site doing all the work.
        self.per_site: Dict[int, int] = {}
        self._events: List[Event] = []
        self._lock = threading.Lock()

    def log_exchange(self, shard: int, summary: ActionSummary) -> None:
        """Account one request/reply round trip with ``shard``."""
        with self._lock:
            self.sent += 1
            self.received += 1
            self.summary_entries += 2 * len(summary)
            self.per_site[shard] = self.per_site.get(shard, 0) + 1
            if len(self._events) < self.keep:
                self._events.append(
                    Send(self.coordinator_node, shard, summary)
                )
                self._events.append(Receive(self.coordinator_node, summary))

    @property
    def events(self) -> List[Event]:
        with self._lock:
            return list(self._events)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return {
                "messages_sent": self.sent,
                "messages_received": self.received,
                "summary_entries": self.summary_entries,
            }

    def site_exchanges(self) -> Dict[int, int]:
        """Round trips per shard (a copy; keys are shard indexes)."""
        with self._lock:
            return dict(self.per_site)


def summary_for(name: Optional[Any], status: str) -> ActionSummary:
    """The ActionSummary payload for a lifecycle frame about ``name``."""
    if name is None:
        return ActionSummary.empty()
    return ActionSummary.single(name, status)
