"""Structured, component-attributed logging.

Each proclet captures its components' log records in a ring buffer; the
envelope drains the buffer and forwards records to the manager, which can
present one merged, time-ordered log for the whole deployment — a single
binary's worth of operational surface for an n-component application (§4.3,
Figure 3; this is one of the "it is hard to manage" C3 pains the paper
eliminates).
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass
from typing import Any, Iterable, Optional


@dataclass(frozen=True)
class LogRecord:
    """One structured record, cheap to serialize for the control plane."""

    timestamp: float
    level: str
    component: str
    replica_id: int
    message: str
    attributes: tuple[tuple[str, Any], ...] = ()


#: Records a ring keeps, per proclet and on the manager.
CAPACITY = 10_000


class LogBuffer:
    """Bounded ring buffer of structured records (per proclet; no lock:
    each process appends and drains on its one event loop)."""

    def __init__(self, capacity: int = CAPACITY) -> None:
        self._records: collections.deque[LogRecord] = collections.deque(maxlen=capacity)
        #: Oldest records overwritten by newer ones, never silently.
        self.dropped = 0

    def append(self, record: LogRecord) -> None:
        if len(self._records) == self._records.maxlen:
            self.dropped += 1
        self._records.append(record)

    def drain(self) -> list[LogRecord]:
        """Remove and return everything buffered (envelope poll)."""
        out = list(self._records)
        self._records.clear()
        return out

    def __len__(self) -> int:
        return len(self._records)


class ComponentLogger:
    """The logger handed to a component via its context."""

    def __init__(self, buffer: LogBuffer, component: str, replica_id: int) -> None:
        self._buffer = buffer
        self._component = component
        self._replica_id = replica_id

    def _log(self, level: str, message: str, attributes: dict[str, Any]) -> None:
        self._buffer.append(
            LogRecord(
                timestamp=time.time(),
                level=level,
                component=self._component,
                replica_id=self._replica_id,
                message=message,
                attributes=tuple(sorted(attributes.items())),
            )
        )

    def debug(self, message: str, **attributes: Any) -> None:
        self._log("debug", message, attributes)

    def info(self, message: str, **attributes: Any) -> None:
        self._log("info", message, attributes)

    def warning(self, message: str, **attributes: Any) -> None:
        self._log("warning", message, attributes)

    def error(self, message: str, **attributes: Any) -> None:
        self._log("error", message, attributes)


class LogAggregator(LogBuffer):
    """Manager-side merge of records from every proclet: a ring of the
    newest :data:`CAPACITY` records, the older ones counted in ``dropped``."""

    def ingest(self, records: Iterable[LogRecord]) -> None:
        for record in records:
            self.append(record)

    def merged(
        self, *, component: Optional[str] = None, level: Optional[str] = None
    ) -> list[LogRecord]:
        """Time-ordered records, optionally filtered."""
        records = list(self._records)
        if component is not None:
            records = [r for r in records if r.component == component]
        if level is not None:
            records = [r for r in records if r.level == level]
        records.sort(key=lambda r: r.timestamp)
        return records


def records_to_wire(records: list[LogRecord]) -> list[dict[str, Any]]:
    """JSON-able form for the envelope -> manager pipe."""
    return [
        {
            "timestamp": r.timestamp,
            "level": r.level,
            "component": r.component,
            "replica_id": r.replica_id,
            "message": r.message,
            "attributes": [list(kv) for kv in r.attributes],
        }
        for r in records
    ]


def records_from_wire(raw: list[dict[str, Any]]) -> list[LogRecord]:
    return [
        LogRecord(
            timestamp=e["timestamp"],
            level=e["level"],
            component=e["component"],
            replica_id=e["replica_id"],
            message=e["message"],
            attributes=tuple(tuple(kv) for kv in e.get("attributes", [])),
        )
        for e in raw
    ]
