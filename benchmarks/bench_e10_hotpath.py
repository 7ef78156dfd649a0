#!/usr/bin/env python
"""E10 — hot-path microbenchmarks for the engine's per-operation cost.

Unlike E1-E9 (workload-level experiments), E10 measures the primitives
every lock grant, conflict check, and version-stack operation is built
from, plus end-to-end transaction latency with everything else stripped
away:

* **name ops** — ``ActionName`` hash / equality / ``parent()`` /
  ``is_ancestor_of`` / ``lca`` rates (the trace, the checkers and the
  waits-for graph run on names; the engine's own tables are keyed by
  path tuples and never call them);
* **conflict checks** — ``ObjectLocks.conflicts_with`` rates on path-tuple
  keys for the common shapes (empty table, sole holder = requester,
  sole holder = ancestor, one genuine conflict);
* **single-thread txn latency** — committed-transaction throughput and
  per-txn latency with one thread (no contention: pure bookkeeping
  cost), trace on / off, for a flat and a nested transaction shape;
* **8-thread throughput** — committed txn/s with 8 threads over a
  low-skew object population.

The committed artifact ``benchmarks/results/BENCH_e10_hotpath.json``
holds a ``baseline`` section (the parent commit of the last hot-path
change, measured on the same host in the same session) and an
``optimized`` section, plus down-scaled E1/E4 cells.

Regression gate (used by the CI ``perf-smoke`` job)::

    python benchmarks/bench_e10_hotpath.py --quick \
        --baseline benchmarks/results/BENCH_e10_hotpath.json \
        --max-regression 0.25

Raw latencies are machine-dependent, so the gate compares the
*calibrated* single-thread txn latency — raw latency divided by the
machine's measured cost of a trivial Python calibration loop — which is
stable across runner generations (see docs/performance.md).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.naming import ActionName, U
from repro.engine import EngineConfig, NestedTransactionDB
from repro.engine.locks import WRITE, ObjectLocks
from repro.workload import initial_values

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
DEFAULT_OUT = os.path.join(RESULTS_DIR, "BENCH_e10_hotpath.json")

#: The metric the CI regression gate compares (see --max-regression).
GATE_METRIC = ("txn_single_thread", "trace_on", "flat")


# -- timing helpers ----------------------------------------------------------


def _best_rate(fn: Callable[[int], None], n: int, repeats: int = 5) -> float:
    """Best-of-``repeats`` ops/sec for ``fn(n)`` performing n operations."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn(n)
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return n / best if best > 0 else 0.0


def calibration_loop_ns() -> float:
    """Nanoseconds per iteration of a trivial Python loop on this
    machine — the unit the regression gate normalizes latencies by, so a
    slower CI runner does not read as an engine regression."""
    counter = list(range(256))

    def spin(n: int) -> None:
        total = 0
        for _ in range(n // 256):
            for value in counter:
                total += value

    rate = _best_rate(spin, 1 << 18)
    return 1e9 / rate if rate else 0.0


# -- name-op microbenchmarks -------------------------------------------------


def bench_name_ops(n: int) -> Dict[str, float]:
    pool = []
    for top in range(8):
        name = U.child(top)
        pool.append(name)
        for mid in range(4):
            child = name.child(mid)
            pool.append(child)
            pool.append(child.child("r0"))
    pairs = [(pool[i], pool[(i * 7 + 3) % len(pool)]) for i in range(len(pool))]

    def run_hash(count: int) -> None:
        h = hash
        for _ in range(count // len(pool)):
            for name in pool:
                h(name)

    def run_eq(count: int) -> None:
        for _ in range(count // len(pairs)):
            for a, b in pairs:
                a == b  # noqa: B015 - the comparison is the benchmark

    def run_parent(count: int) -> None:
        for _ in range(count // len(pool)):
            for name in pool:
                name.parent()

    def run_ancestor(count: int) -> None:
        for _ in range(count // len(pairs)):
            for a, b in pairs:
                a.is_ancestor_of(b)

    def run_lca(count: int) -> None:
        for _ in range(count // len(pairs)):
            for a, b in pairs:
                a.lca(b)

    def run_dict(count: int) -> None:
        table = {name: i for i, name in enumerate(pool)}
        get = table.get
        for _ in range(count // len(pool)):
            for name in pool:
                get(name)

    return {
        "hash_ops_per_sec": round(_best_rate(run_hash, n)),
        "eq_ops_per_sec": round(_best_rate(run_eq, n)),
        "parent_ops_per_sec": round(_best_rate(run_parent, n)),
        "is_ancestor_of_ops_per_sec": round(_best_rate(run_ancestor, n)),
        "lca_ops_per_sec": round(_best_rate(run_lca, n)),
        "dict_lookup_ops_per_sec": round(_best_rate(run_dict, n)),
    }


# -- conflict-check microbenchmarks ------------------------------------------


def bench_conflict_checks(n: int) -> Dict[str, float]:
    requester = (1, 0)  # lock holders are path tuples (Transaction.key)
    ancestor = (1,)
    stranger = (2,)

    empty = ObjectLocks()

    own = ObjectLocks()
    own.grant(requester, WRITE)

    inherited = ObjectLocks()
    inherited.grant(ancestor, WRITE)

    contended = ObjectLocks()
    contended.grant(stranger, WRITE)

    def run(table: ObjectLocks) -> Callable[[int], None]:
        def loop(count: int) -> None:
            check = table.conflicts_with
            for _ in range(count):
                check(requester, WRITE)

        return loop

    return {
        "empty_ops_per_sec": round(_best_rate(run(empty), n)),
        "sole_holder_self_ops_per_sec": round(_best_rate(run(own), n)),
        "sole_holder_ancestor_ops_per_sec": round(_best_rate(run(inherited), n)),
        "one_conflict_ops_per_sec": round(_best_rate(run(contended), n)),
    }


# -- end-to-end transaction benchmarks ---------------------------------------


def _run_txns(
    db: NestedTransactionDB,
    txns: int,
    ops: int,
    seed: int,
    nested: bool,
) -> List[float]:
    """Run ``txns`` committed transactions on the calling thread; each
    does ``ops`` alternating read/write operations (split across two
    subtransactions when ``nested``).  Returns per-txn latencies."""
    objects = db.objects
    rng = random.Random(seed)
    choices = [objects[rng.randrange(len(objects))] for _ in range(ops * 4)]
    n_choices = len(choices)
    latencies = []
    cursor = 0
    perf = time.perf_counter
    for _ in range(txns):
        started = perf()
        txn = db.begin_transaction()
        scopes = (txn,) if not nested else (
            txn.begin_subtransaction(),
            txn.begin_subtransaction(),
        )
        per_scope = ops // len(scopes)
        for scope in scopes:
            for j in range(per_scope):
                obj = choices[cursor]
                cursor = (cursor + 1) % n_choices
                if j % 2:
                    scope.write(obj, j)
                else:
                    scope.read(obj)
            if scope is not txn:
                scope.commit()
        txn.commit()
        latencies.append(perf() - started)
    return latencies


def bench_single_thread(
    txns: int, ops: int, objects: int, loop_ns: float
) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for trace_on in (True, False):
        cell: Dict[str, Any] = {}
        for shape in ("flat", "nested"):
            db = NestedTransactionDB(
                initial_values(objects), config=EngineConfig(record_trace=trace_on)
            )
            # Warm up interpreter/caches, then measure.
            _run_txns(db, max(txns // 10, 5), ops, seed=99, nested=shape == "nested")
            latencies = _run_txns(db, txns, ops, seed=7, nested=shape == "nested")
            # Re-measure the calibration loop next to each cell: CPU
            # throttling mid-suite would otherwise skew calibrated
            # latencies against a stale loop cost.
            loop_ns = calibration_loop_ns() or loop_ns
            mean = statistics.fmean(latencies)
            cell[shape] = {
                "txns": txns,
                "ops_per_txn": ops,
                "txns_per_sec": round(1.0 / mean, 1),
                "latency_us_mean": round(mean * 1e6, 3),
                "latency_us_p95": round(
                    sorted(latencies)[int(0.95 * (len(latencies) - 1))] * 1e6, 3
                ),
                "latency_calibrated": round(mean * 1e9 / loop_ns, 2)
                if loop_ns
                else None,
            }
        out["trace_on" if trace_on else "trace_off"] = cell
    return out


def bench_threads8(txns: int, ops: int, objects: int) -> Dict[str, Any]:
    db = NestedTransactionDB(
        initial_values(objects), config=EngineConfig(record_trace=False)
    )
    committed = [0] * 8
    per_thread = max(txns // 8, 10)

    def worker(index: int) -> None:
        rng = random.Random(1000 + index)
        names = db.objects
        done = 0
        while done < per_thread:
            def body(txn, rng=rng, names=names):
                for j in range(ops):
                    obj = names[rng.randrange(len(names))]
                    if j % 2:
                        txn.write(obj, j)
                    else:
                        txn.read(obj)

            db.run_transaction(body, sleep_fn=lambda _d: None)
            done += 1
        committed[index] = done

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True) for i in range(8)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    stats = db.stats.snapshot()
    return {
        "threads": 8,
        "committed": sum(committed),
        "txns_per_sec": round(sum(committed) / elapsed, 1),
        "lock_waits": stats["lock_waits"],
        "deadlocks": stats["deadlocks"],
    }


# -- E1/E4 trajectory cells --------------------------------------------------


def trajectory_cells(programs: int) -> Dict[str, Any]:
    """Down-scaled E1 (throughput) and E4 (contention) cells: the perf
    trajectory entries this artifact contributes to the repo history."""
    from repro.bench import run_cell

    cells: Dict[str, Any] = {}
    for label, system, threads, theta in (
        ("e1_moss_rw_1t", "moss-rw", 1, 0.5),
        ("e1_moss_rw_8t", "moss-rw", 8, 0.5),
        ("e4_moss_rw_hot", "moss-rw", 8, 0.9),
    ):
        report = run_cell(
            system,
            threads=threads,
            objects=64,
            theta=theta,
            shape="bushy",
            groups=4,
            ops_per_transaction=8,
            programs=programs,
            seed=17,
        )
        cells[label] = {
            "system": system,
            "threads": threads,
            "theta": theta,
            "committed": report.committed_programs,
            "throughput": round(report.throughput, 1),
            "goodput": round(report.goodput, 1),
            "p95_ms": round(report.latency_percentile(0.95) * 1000, 2),
            "retries": report.retries,
            "deadlocks": report.db_stats.get("deadlocks", 0),
        }
    return cells


# -- driver ------------------------------------------------------------------


def run_suite(quick: bool, trajectory: bool, label: str) -> Dict[str, Any]:
    scale = 1 if quick else 4
    loop_ns = calibration_loop_ns()
    result: Dict[str, Any] = {
        "label": label,
        "quick": quick,
        "python": sys.version.split()[0],
        "calibration_loop_ns": round(loop_ns, 3),
        "name_ops": bench_name_ops(100_000 * scale),
        "conflict_check": bench_conflict_checks(50_000 * scale),
        "txn_single_thread": bench_single_thread(
            txns=250 * scale, ops=16, objects=32, loop_ns=loop_ns
        ),
        "threads_8": bench_threads8(txns=200 * scale, ops=8, objects=64),
    }
    if trajectory:
        result["trajectory"] = trajectory_cells(programs=24 if quick else 48)
    return result


def _gate_value(section: Dict[str, Any]) -> Optional[float]:
    node: Any = section
    for key in GATE_METRIC:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node.get("latency_calibrated") or None


def check_regression(
    current: Dict[str, Any], baseline_doc: Dict[str, Any], max_regression: float
) -> Optional[str]:
    """Returns an error message when the calibrated single-thread txn
    latency regressed more than ``max_regression`` vs. the baseline's
    ``optimized`` section (falling back to the document root)."""
    reference = baseline_doc.get("optimized", baseline_doc)
    base = _gate_value(reference)
    now = _gate_value(current)
    if base is None or now is None:
        return "baseline or current run lacks the calibrated gate metric"
    ratio = now / base
    if ratio > 1.0 + max_regression:
        return (
            "single-thread txn latency regressed %.1f%% (calibrated %.2f -> %.2f, "
            "gate %.0f%%)" % ((ratio - 1) * 100, base, now, max_regression * 100)
        )
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--out", default=None, help="write the JSON summary here")
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON to compare the regression-gate metric against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="fail when calibrated single-thread latency regresses more "
        "than this fraction vs. --baseline (default 0.25)",
    )
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="skip the E1/E4 workload trajectory cells",
    )
    parser.add_argument("--label", default="run", help="label stored in the JSON")
    args = parser.parse_args(argv)

    result = run_suite(
        quick=args.quick,
        trajectory=not args.no_trajectory and not args.quick,
        label=args.label,
    )
    flat = result["txn_single_thread"]["trace_on"]["flat"]
    print(
        "single-thread (trace on): %.1f txn/s, %.1f us mean"
        % (flat["txns_per_sec"], flat["latency_us_mean"])
    )
    print(
        "8-thread: %.1f txn/s  |  name hash: %.0f ops/s"
        % (
            result["threads_8"]["txns_per_sec"],
            result["name_ops"]["hash_ops_per_sec"],
        )
    )
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
        print("wrote %s" % args.out)
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline_doc = json.load(fh)
        error = check_regression(result, baseline_doc, args.max_regression)
        if error:
            print("PERF REGRESSION: %s" % error, file=sys.stderr)
            return 1
        print("regression gate passed (<= %.0f%%)" % (args.max_regression * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
