"""Event sinks: where the :class:`~repro.obs.events.EventBus` delivers.

All sinks take only their own lock.  Three implementations ship:

* :class:`RingBufferSink` — last-N events in memory, for tests and
  post-mortem inspection (``sink.events``);
* :class:`JsonlFileSink` — one JSON object per line (UTF-8), the format
  CI uploads as an artifact;
* :class:`StderrPrettySink` — human-readable one-liners for interactive
  debugging.
"""

from __future__ import annotations

import io
import json
import sys
import threading
from collections import deque
from typing import IO, Any, List, Optional, Union

from .events import Event


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._lock = threading.Lock()
        self._buffer: deque = deque(maxlen=capacity)
        self.seen = 0

    def handle(self, event: Event) -> None:
        with self._lock:
            self._buffer.append(event)
            self.seen += 1

    @property
    def events(self) -> List[Event]:
        with self._lock:
            return list(self._buffer)

    def of_kind(self, kind: str) -> List[Event]:
        return [event for event in self.events if event.kind == kind]

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)


class JsonlFileSink:
    """Appends each event as one JSON line.

    Accepts a path (opened UTF-8, created/truncated) or an existing text
    stream.  ``close()`` closes only streams this sink opened.
    """

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        self._lock = threading.Lock()
        if isinstance(destination, str):
            self._fh: IO[str] = io.open(destination, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = destination
            self._owns = False
        self.written = 0

    def handle(self, event: Event) -> None:
        line = json.dumps(event.to_dict(), ensure_ascii=False)
        with self._lock:
            self._fh.write(line + "\n")
            self.written += 1

    def flush(self) -> None:
        with self._lock:
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._owns and not self._fh.closed:
                self._fh.close()
            elif not self._owns:
                try:
                    self._fh.flush()
                except ValueError:
                    pass  # caller already closed its stream


class StderrPrettySink:
    """One formatted line per event, to stderr by default."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self._lock = threading.Lock()
        self._stream = stream if stream is not None else sys.stderr

    def handle(self, event: Event) -> None:
        data = event.to_dict()
        kind = data.pop("kind")
        ts = data.pop("ts", None)
        detail = " ".join(
            "%s=%s" % (key, _compact(value)) for key, value in data.items()
        )
        stamp = "%.6f" % ts if ts is not None else "-"
        with self._lock:
            self._stream.write("[obs %s] %-17s %s\n" % (stamp, kind, detail))


def _compact(value: Any) -> str:
    if isinstance(value, list):
        return "[" + ",".join(_compact(v) for v in value) + "]"
    return str(value)
