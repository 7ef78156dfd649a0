"""Engine configuration: the constructor surface.

:class:`EngineConfig` gathers every :class:`~repro.engine.NestedTransactionDB`
policy knob into one frozen dataclass::

    db = NestedTransactionDB(initial, config=EngineConfig(
        record_trace=False, lock_timeout=2.0,
    ))

It is the only way to configure an engine: the constructor takes no loose
keyword arguments.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from .deadlock import BLOCKER


@dataclass(frozen=True)
class EngineConfig:
    """All engine construction knobs in one value.

    The fields mirror the axes documented on
    :class:`~repro.engine.NestedTransactionDB`: locking behaviour
    (``single_mode``, ``deadlock_policy``, ``detect_deadlocks``,
    ``lock_timeout``, ``lazy_lock_cleanup``), tracing and certification
    (``record_trace``, ``certify``), durability (a directory path or a
    ``DurabilityManager``), and injectable observability collaborators
    (``metrics``, ``events``).
    """

    single_mode: bool = False
    deadlock_policy: str = BLOCKER
    detect_deadlocks: bool = True
    lock_timeout: float = 10.0
    lazy_lock_cleanup: bool = False
    record_trace: bool = True
    metrics: Optional[Any] = None
    events: Optional[Any] = None
    durability: Optional[Any] = None
    certify: Optional[str] = None

    def __post_init__(self) -> None:
        if self.certify is not None:
            if self.certify != "streaming":
                raise ValueError(
                    'certify must be None or "streaming", got %r'
                    % (self.certify,)
                )
            if not self.record_trace:
                raise ValueError(
                    'certify="streaming" requires record_trace=True'
                )

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)
