"""The nested-transaction engine: Moss locking, versioned storage,
deadlock handling, failure injection, observability (see ``repro.obs``),
and oracle-ready trace recording.

The construction surface is ``NestedTransactionDB(initial,
config=EngineConfig(...))``."""

from ..obs import STATS_KEYS, EventBus, MetricsRegistry, ObservableStats
from .config import EngineConfig
from .database import NestedTransactionDB
from .deadlock import BLOCKER, REQUESTER, YOUNGEST, WaitsForGraph, choose_victim
from .errors import (
    DeadlockAbort,
    EngineError,
    InvalidTransactionState,
    LockTimeout,
    ReadOnlyViolation,
    TransactionAborted,
    UnknownObject,
)
from .locks import INCREMENT, READ, WRITE, LockMode, ObjectLocks
from .recovery import (
    FailureInjector,
    InjectedFailure,
    recovery_block,
    retry_subtransaction,
)
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .storage import VersionStack
from .trace import TraceBusBridge, TraceRecord, TraceRecorder
from .transaction import Outcome, Transaction

__all__ = [
    "BLOCKER",
    "DEFAULT_RETRY_POLICY",
    "DeadlockAbort",
    "EngineConfig",
    "EngineError",
    "EventBus",
    "FailureInjector",
    "INCREMENT",
    "InjectedFailure",
    "InvalidTransactionState",
    "LockMode",
    "LockTimeout",
    "MetricsRegistry",
    "NestedTransactionDB",
    "ObjectLocks",
    "ObservableStats",
    "Outcome",
    "READ",
    "REQUESTER",
    "ReadOnlyViolation",
    "RetryPolicy",
    "STATS_KEYS",
    "TraceBusBridge",
    "TraceRecord",
    "TraceRecorder",
    "Transaction",
    "TransactionAborted",
    "UnknownObject",
    "VersionStack",
    "WaitsForGraph",
    "WRITE",
    "YOUNGEST",
    "choose_victim",
    "recovery_block",
    "retry_subtransaction",
]
