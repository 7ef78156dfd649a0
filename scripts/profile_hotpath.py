#!/usr/bin/env python
"""cProfile harness for the engine's data-access hot path.

Runs a single-threaded batch of committed read/write transactions —
the same inner loop as ``benchmarks/bench_e10_hotpath.py`` — under
:mod:`cProfile` and prints the top functions by cumulative and internal
time.  Use it to answer "where does a transaction's latency actually
go?" before and after touching the hot path::

    PYTHONPATH=src python scripts/profile_hotpath.py
    PYTHONPATH=src python scripts/profile_hotpath.py --no-trace --sort tottime
    PYTHONPATH=src python scripts/profile_hotpath.py --certified

``--certified`` runs the measurement spine's nested program shape (four
sequential subtransactions of one read and two read-for-update + write
pairs: 30 trace records per transaction) with ``record_trace=True,
certify="streaming"``, and before the profile prints how many
``ActionName._of`` / interning-table ``setdefault`` calls one trace record
costs and how many of them were made on behalf of ``repro/checker/``.
Those are counts of a deterministic run, so they repeat exactly: "the
certifier interns no names" is checked as ``0``, not inferred from a
timing.

Findings are stable across runs because the workload is deterministic
(seeded RNG, fixed object pool).  After the hot-path overhaul the
remaining profile is dominated by the unavoidable skeleton — latch
acquire/release (``threading`` internals), the ``conflicts_with`` loop,
and version-stack reads — rather than by name re-validation, trace
dataclass construction, or ``time.monotonic`` calls, which previously
accounted for a large share of inclusive time.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import random
import sys


def run_workload(
    txns: int,
    ops: int,
    objects: int,
    trace: bool,
    nested: bool,
    seed: int = 42,
) -> None:
    from repro.engine import EngineConfig, NestedTransactionDB

    initial = {"x%d" % i: 0 for i in range(objects)}
    db = NestedTransactionDB(initial, config=EngineConfig(record_trace=trace))
    rng = random.Random(seed)
    names = list(initial)
    for _ in range(txns):
        txn = db.begin_transaction()
        if nested:
            for _ in range(2):
                child = txn.begin_subtransaction()
                for i in range(ops // 2):
                    obj = names[rng.randrange(len(names))]
                    if i % 2 == 0:
                        child.read(obj)
                    else:
                        child.write(obj, i)
                child.commit()
        else:
            for i in range(ops):
                obj = names[rng.randrange(len(names))]
                if i % 2 == 0:
                    txn.read(obj)
                else:
                    txn.write(obj, i)
        txn.commit()


def run_certified(txns: int, objects: int, seed: int = 42):
    """The spine's nested program shape under the streaming certifier;
    returns the engine (finished and certified)."""
    from repro.engine import EngineConfig, NestedTransactionDB

    initial = {"x%d" % i: 1000 for i in range(objects)}
    db = NestedTransactionDB(
        initial, config=EngineConfig(record_trace=True, certify="streaming")
    )
    rng = random.Random(seed)
    names = list(initial)
    for _ in range(txns):
        top = db.begin_transaction()
        for _ in range(4):
            read_obj, src, dst = rng.sample(names, 3)
            amount = rng.randint(1, 9)
            child = top.begin_subtransaction()
            child.read(read_obj)
            child.write(src, child.read_for_update(src) - amount)
            child.write(dst, child.read_for_update(dst) + amount)
            child.commit()
        top.commit()
    db.certifier.finish()
    db.assert_certified()
    return db


def count_interning(txns: int, objects: int) -> None:
    """Run the certified workload with counting shims on the two interning
    entry points and print calls per trace record, in total and with a
    ``repro/checker/`` frame on the stack."""
    from repro.core import naming

    checker_dir = os.sep + os.path.join("repro", "checker") + os.sep
    counts = {"_of": 0, "_of_checker": 0, "setdefault": 0, "setdefault_checker": 0}

    def from_checker() -> bool:
        frame = sys._getframe(2)
        while frame is not None:
            if checker_dir in frame.f_code.co_filename:
                return True
            frame = frame.f_back
        return False

    real_of = naming.ActionName._of.__func__
    real_setdefault = naming._INTERNED.setdefault

    def counting_of(cls, path):
        counts["_of"] += 1
        counts["_of_checker"] += from_checker()
        return real_of(cls, path)

    def counting_setdefault(key, default=None):
        counts["setdefault"] += 1
        counts["setdefault_checker"] += from_checker()
        return real_setdefault(key, default)

    naming.ActionName._of = classmethod(counting_of)
    naming._INTERNED.setdefault = counting_setdefault
    try:
        db = run_certified(txns, objects)
    finally:
        naming.ActionName._of = classmethod(real_of)
        del naming._INTERNED.setdefault
    records = len(db.trace)
    print(
        "interning on the certified path: %d txns, %d trace records (%.1f/txn)"
        % (txns, records, records / txns)
    )
    for label, key in (
        ("ActionName._of", "_of"),
        ("_INTERNED.setdefault", "setdefault"),
    ):
        print(
            "  %-22s %8d calls (%.3f/record), %d from repro/checker/ (%.3f/record)"
            % (
                label,
                counts[key],
                counts[key] / records,
                counts[key + "_checker"],
                counts[key + "_checker"] / records,
            )
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--txns", type=int, default=2000)
    parser.add_argument("--ops", type=int, default=16, help="ops per txn")
    parser.add_argument("--objects", type=int, default=64)
    parser.add_argument(
        "--no-trace", action="store_true", help="disable trace recording"
    )
    parser.add_argument(
        "--nested",
        action="store_true",
        help="run ops inside two subtransactions per txn",
    )
    parser.add_argument(
        "--certified",
        action="store_true",
        help="profile the spine's nested shape under the streaming "
        "certifier and count interning calls per record "
        "(ignores --ops/--no-trace/--nested)",
    )
    parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime"),
        default="cumulative",
    )
    parser.add_argument("--lines", type=int, default=30)
    parser.add_argument(
        "--out", default=None, help="also save raw stats to this file"
    )
    args = parser.parse_args(argv)

    import repro.engine  # noqa: F401 - import cost outside the profile

    if args.certified:
        # Counted in its own run: the shims would distort the profile.
        count_interning(args.txns, args.objects)

    profiler = cProfile.Profile()
    profiler.enable()
    if args.certified:
        run_certified(args.txns, args.objects)
    else:
        run_workload(
            args.txns,
            args.ops,
            args.objects,
            not args.no_trace,
            args.nested,
        )
    profiler.disable()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort)
    if args.certified:
        print(
            "certified hot path profile: %d nested txns, %d objects"
            % (args.txns, args.objects)
        )
    else:
        print(
            "hot path profile: %d txns x %d ops, trace=%s nested=%s"
            % (
                args.txns,
                args.ops,
                not args.no_trace,
                args.nested,
            )
        )
    stats.print_stats(args.lines)
    if args.out:
        stats.dump_stats(args.out)
        print("raw stats written to %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
