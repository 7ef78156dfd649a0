#!/usr/bin/env python3
"""The spine benchmark: five workloads, end to end and layer by layer.

Two ways to run it, both from the root of the repository.

One workload, one process (what the benchmark driver calls)::

    python3 benchmarks/spine/run.py --workload nested_uniform --seed 11 \\
        --seconds 15 --trace 0

runs cells of that workload (see ``cells.py``) until ``--seconds`` of
timed phases have been measured, checks every cell's outputs, and prints
as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
with tracing and the ``obs`` registry off; ``--trace 1`` reports the
per-layer metrics from traced cells and the cost ledger, and writes the
spans to ``benchmarks/spine/out/trace_<workload>.jsonl``.

Everything (what a person calls)::

    python3 benchmarks/spine/run.py --seed 11 [--trace] [--repeats 5] \\
        [--out A.json]

runs every workload of ``BENCHMARK.json`` in a fresh subprocess each and
prints every metric by name with its unit and sample count; ``--out``
saves the result set for ``agree.py``.

A failed correctness check exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 11
HOLD_OUT_SEED = 23
#: Share of ``--seconds`` a traced run spends in traced cells; the rest of
#: its time goes to the untraced reference cell and the ledger.
TRACED_SHARE = 0.4


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    """The commit ``HEAD`` names, read from ``.git`` without starting a
    process: a waited child would be counted into ``peak_rss_mb``.  The
    benchmark driver's checkout is not a repository: ``unknown`` there."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), "r", encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git_dir, ref)
        if os.path.exists(loose):
            with open(loose, "r", encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), "r",
                  encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(seed: int) -> Dict[str, Any]:
    """The host and code a result was taken on."""
    gil_probe = getattr(sys, "_is_gil_enabled", None)
    cores = os.cpu_count() or 1
    load = os.getloadavg()
    return {
        "cpu_count": cores,
        "python": platform.python_version(),
        "gil_enabled": bool(gil_probe()) if gil_probe is not None else True,
        "load_average_start": list(load),
        "git_commit": git_commit(),
        "seed": seed,
        # A busy host measures its other tenants: such a set is kept but
        # must not be compared against another.
        "comparable": load[0] <= cores,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited
    child, in MB.  The only children a workload process starts are the
    shard processes of ``cluster_transfer``: elsewhere the second term
    is 0."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- one workload in this process ----------------------------------------------


def measure(workload: str, seed: int, seconds: float, traced: bool,
            scale: float, tamper: bool) -> Dict[str, Any]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cells
    from spans import Tracer

    spec = load_spec()
    run_cell = cells.WORKLOADS[workload]
    scratch = os.path.join(OUT_DIR, "run-%d" % os.getpid())
    os.makedirs(scratch)

    def one_cell(index: int, tracer: Optional[Tracer] = None,
                 threads: Optional[int] = None) -> Any:
        cell_dir = os.path.join(scratch, "cell")
        os.makedirs(cell_dir)
        try:
            return run_cell(cells.CellContext(
                seed=seed, cell=index, scale=scale, scratch=cell_dir,
                tracer=tracer, tamper=tamper, threads=threads,
            ))
        finally:
            shutil.rmtree(cell_dir)
            gc.collect()

    def rate(cell: Any) -> float:
        return cell.committed / cell.wall_s

    try:
        if not traced:
            done: List[Any] = []
            while sum(cell.wall_s for cell in done) < seconds:
                done.append(one_cell(len(done)))
            metrics = {
                "setup_s": statistics.median(c.setup_s for c in done),
                "committed_txn_s": statistics.median(rate(c) for c in done),
                "txn_p50_ms": statistics.median(
                    cells.quantile(c.latencies_s, 0.50) * 1e3 for c in done),
                "txn_p95_ms": statistics.median(
                    cells.quantile(c.latencies_s, 0.95) * 1e3 for c in done),
                "peak_rss_mb": peak_rss_mb(),
            }
            names = spec["end_to_end"]
        else:
            import ledger

            reference = one_cell(0)
            done = []
            while True:
                tracer = Tracer()
                done.append(one_cell(len(done), tracer))
                if sum(c.wall_s for c in done) >= seconds * TRACED_SHARE:
                    break
            # The spans of the last traced cell are the ones kept on disk.
            tracer.write_jsonl(
                os.path.join(OUT_DIR, "trace_%s.jsonl" % workload),
                min(span[4] for span in tracer.spans),
            )
            metrics = dict.fromkeys(
                (entry["name"] for entry in spec["per_layer"]), 0.0
            )
            for key in done[0].layer:
                metrics[key] = statistics.median(c.layer[key] for c in done)
            traced_rate = statistics.median(rate(c) for c in done)
            metrics["trace.overhead_share"] = 1.0 - traced_rate / rate(reference)
            metrics["failed_share"] = (
                sum(c.failed for c in done) / sum(c.attempted for c in done)
            )
            metrics["txn_p99_ms"] = (
                cells.quantile(reference.latencies_s, 0.99) * 1e3
            )
            metrics.update(ledger.run_ledger(seed, scale, scratch))
            done.append(reference)
            if cells.CLIENT_THREADS.get(workload) == 1:
                # The gated numbers of the uniform engine workloads come
                # from one client; the reference cell again on two shows
                # the latch convoy.  It sets in somewhere in the first
                # such cell of a process and holds from then on, so the
                # second is the one measured.  Last, so that nothing else
                # in the run is taken on the heap these cells leave.
                pairs = [one_cell(0, threads=2) for _ in range(2)]
                metrics["engine.two_client_ratio"] = (
                    rate(pairs[-1]) / rate(reference)
                )
                done.extend(pairs)
            names = spec["per_layer"]
    finally:
        shutil.rmtree(scratch)

    units = {entry["name"]: entry["unit"] for entry in names}
    missing = set(units) - set(metrics)
    extra = set(metrics) - set(units)
    if missing or extra:
        raise SystemExit(
            "metrics out of step with BENCHMARK.json: missing %s, extra %s"
            % (sorted(missing), sorted(extra))
        )
    return {
        "correct": True,
        "attempted": sum(c.attempted for c in done),
        "failed": sum(c.failed for c in done),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
        "cells": len(done),
    }


def run_one_workload(args: argparse.Namespace) -> int:
    mark = fingerprint(args.seed)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.scale, args.tamper)
    except Exception as error:  # noqa: BLE001 - reported, then exit code 1
        # CheckFailed, a certifier violation, a leaked lock, or any error
        # escaping a client: no result line, non-zero exit.
        import traceback
        traceback.print_exc()
        print("FAILED %s: %s" % (args.workload, error), file=sys.stderr)
        return 1
    mark["load_average_end"] = list(os.getloadavg())
    cell_count = result.pop("cells")
    print(json.dumps({"fingerprint": mark, "workload": args.workload,
                      "cells": cell_count,
                      "latency_samples": result["attempted"]}))
    print(json.dumps(result))
    return 0


# -- every workload, a subprocess each -----------------------------------------


def summarize(values: List[float]) -> Dict[str, Any]:
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            # Distance between the quartiles as a share of the median.
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def run_suite(args: argparse.Namespace) -> int:
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    mark = fingerprint(args.seed)
    if not mark["comparable"]:
        print("load average %.2f exceeds %d cores: this set is not comparable"
              % (mark["load_average_start"][0], mark["cpu_count"]))
    results: Dict[str, Any] = {}
    failures = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        row: Dict[str, Any] = {"attempted": 0, "failed": 0, "correct": True,
                               "end_to_end": {}, "per_layer": {}}
        for trace in ([0, 1] if args.trace else [0]):
            kind = "per_layer" if trace else "end_to_end"
            samples: Dict[str, List[float]] = {}
            for _repeat in range(args.repeats):
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", repr(seconds), "--trace", str(trace),
                    "--scale", repr(args.scale),
                ] + (["--tamper"] if args.tamper else [])
                done = subprocess.run(command, capture_output=True, text=True,
                                      cwd=ROOT, check=False)
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    row["correct"] = False
                    failures += 1
                    break
                result = json.loads(done.stdout.strip().splitlines()[-1])
                if not trace:
                    row["attempted"] += result["attempted"]
                    row["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    samples.setdefault(name, []).append(metric["value"])
                    row[kind].setdefault(name, {})["unit"] = metric["unit"]
            for name, values in samples.items():
                row[kind][name].update(summarize(values))
        results[workload] = row
        print("== %s  (%d programs attempted, %d failed, checks %s)"
              % (workload, row["attempted"], row["failed"],
                 "passed" if row["correct"] else "FAILED"))
        for kind in ("end_to_end", "per_layer"):
            for name, metric in row[kind].items():
                if "median" not in metric:
                    continue
                # A bound can tell a change from noise only when the
                # spread of same-code runs is well inside it.
                wide = metric["spread"] > bounds.get(name, float("inf")) / 3
                print("  %-36s %14.4f %-7s [q1 %.4f, q3 %.4f, spread %.1f%%, "
                      "n=%d]%s"
                      % (name, metric["median"], metric["unit"],
                         metric["q1"], metric["q3"], metric["spread"] * 100,
                         len(metric["values"]),
                         "  WIDE: over a third of its bound" if wide else ""))
    mark["load_average_end"] = list(os.getloadavg())
    summary = {"fingerprint": mark, "seconds": seconds, "scale": args.scale,
               "repeats": args.repeats, "results": results, "claim": None}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    print(json.dumps({"fingerprint": mark, "workloads": len(results),
                      "failures": failures, "claim": None}))
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="reaches the program generator only "
                             "(default %d, hold-out %d)"
                             % (DEFAULT_SEED, HOLD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="1: traced cells, per-layer metrics and ledger")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload; medians and quartiles")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every frozen program count "
                             "(smoke tests use 0.02)")
    parser.add_argument("--out", help="write the result set here (for agree.py)")
    parser.add_argument("--tamper", action="store_true",
                        help="test hook: corrupt the final snapshot, so the "
                             "conservation check must fail the run")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return run_one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
