"""The serving layer: escape the GIL on the session path.

Thread-per-session tops out around the E1/E4 numbers (~500–600
committed txn/s at 8 threads) because every client session burns an OS
thread and every operation crosses an engine latch alone.  This package
splits the problem the way a reactor splits I/O from CPU:

* :mod:`repro.serve.frontend` — an asyncio front-end multiplexing
  thousands of in-flight sessions onto a small CPU worker pool; workers
  land results in a per-loop outbox and wake the event loop once per
  burst of results, not once per awaited result;
* :mod:`repro.serve.batch` — the leader/follower submission queue in
  front of the engine: one latch crossing begins / performs /
  commits a whole batch (the WAL group-commit pattern generalized to
  lock acquisition and trace publication), with commit acks coalesced
  into group fsyncs.

Its speed is measured in one place: the ``served_durable`` workload and
the ``serve`` ledger line of ``benchmarks/spine``.

Every served trace is certifiable exactly like the sync paths: batch
ops reserve their trace seqs under the engine latch and publish after
release, so ``certify="streaming"`` engines verify serve traffic live.
"""

from .batch import BatchSubmitter
from .frontend import AsyncFrontend, Session

__all__ = ["AsyncFrontend", "BatchSubmitter", "Session"]
