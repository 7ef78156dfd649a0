#!/usr/bin/env python
"""CI crash-recovery smoke: kill durable workers, recover, write a report.

Runs the kill-and-recover harness (``repro.durability.crashtest``) over a
small matrix: the counter workload under each sync and checkpoint
policy, plus the bank scenario.  It collects each run's
:class:`CrashReport` and writes the whole batch as JSON (default
``crash_recovery_report.json``, override with ``--out``) so CI can upload
it as an artifact.  Exits nonzero when any run violates the durability
contract — the JSON then names the failed verdicts.

Usage:
    PYTHONPATH=src python scripts/crash_recovery_smoke.py [--out PATH]
"""

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from repro.durability.crashtest import run_crash  # noqa: E402

MATRIX = [
    {"workload": "counters", "sync": "commit", "seed": 11},
    {"workload": "counters", "sync": "group", "seed": 13},
    {"workload": "counters", "sync": "commit", "seed": 14,
     "checkpoint_interval": 20, "min_acks": 60},
    {"workload": "bank", "sync": "commit", "seed": 15},
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="crash_recovery_report.json")
    parser.add_argument("--min-acks", type=int, default=30)
    parser.add_argument(
        "--certify",
        choices=("streaming",),
        default=None,
        help="subscribe the incremental certifier to each run's "
        "post-recovery trace; its verdict must be clean",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="archive each run's post-recovery trace (JSONL plus "
        "<name>.initial.json) here for offline re-certification via "
        "scripts/certify_stream.py",
    )
    args = parser.parse_args(argv)

    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)

    results = []
    failed = 0
    for index, run in enumerate(MATRIX):
        params = dict(run)
        params.setdefault("min_acks", args.min_acks)
        params.setdefault("certify", args.certify)
        if args.trace_dir:
            params.setdefault(
                "trace_dump",
                os.path.join(
                    args.trace_dir,
                    "run%d_%s_%s.trace.jsonl"
                    % (index, run["workload"], run["sync"]),
                ),
            )
        with tempfile.TemporaryDirectory(prefix="crash-smoke-") as directory:
            start = time.monotonic()
            try:
                entry = run_crash(directory, **params).as_dict()
            except RuntimeError as error:  # harness problem, not a verdict
                entry = {"ok": False, "failures": ["harness: %s" % error]}
                entry.update(workload=run["workload"], sync=run["sync"])
            entry["run"] = run
            entry["seconds"] = round(time.monotonic() - start, 3)
        results.append(entry)
        status = "ok" if entry["ok"] else "FAIL"
        print(
            "[%s] %-8s sync=%-6s acked=%s units=%s/%s replayed=%s "
            "ckpt=%s (%.1fs)"
            % (
                status,
                entry.get("workload"),
                entry.get("sync"),
                entry.get("acked_programs", "?"),
                entry.get("recovered_units", "?"),
                entry.get("acked_units", "?"),
                entry.get("commits_replayed", "?"),
                entry.get("checkpoint_seq", "?"),
                entry["seconds"],
            )
        )
        if not entry["ok"]:
            failed += 1
            for failure in entry["failures"]:
                print("    - %s" % failure)

    batch = {"ok": failed == 0, "runs": results}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(batch, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("report: %s (%d/%d runs passed)"
          % (args.out, len(results) - failed, len(results)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
