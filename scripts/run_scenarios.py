#!/usr/bin/env python
"""Run the chaos-certified scenario fleet and write a JSON report.

Each selected scenario (bank / marketplace / social) is compiled to
nested-transaction programs, executed on the engine with the streaming
Theorem-9 certifier subscribed, and judged three ways: certifier verdict,
the scenario's conservation invariant, and failure containment.  The
optional chaos stages layer on fsync-error poisoning (``--fsync-poison``)
and a SIGKILL crash-and-recover cycle (``--crash``).

Exit codes follow the fleet convention (docs/scenarios.md): 0 every
verdict passed, 1 a verdict failed (the JSON report names the
violation), 2 bad invocation.

Usage:
    PYTHONPATH=src python scripts/run_scenarios.py [--scenario NAME]...
        [--programs N] [--users N] [--threads N] [--seed N]
        [--chaos none|steady|burst|ramp|storm] [--fsync-poison] [--crash]
        [--out PATH]
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

from repro.cli import EXIT_OK, EXIT_VERDICT_FAIL  # noqa: E402
from repro.durability.crashtest import run_crash  # noqa: E402
from repro.scenarios import (  # noqa: E402
    SCENARIOS,
    ChaosSchedule,
    run_fsync_poison_scenario,
    run_scenario,
)


def make_schedule(kind, seed):
    if kind == "none":
        return None
    if kind == "steady":
        return ChaosSchedule.steady(0.3, seed=seed)
    if kind == "burst":
        return ChaosSchedule.burst(0.05, window=(0.4, 0.6), prob=0.8, seed=seed)
    if kind == "ramp":
        return ChaosSchedule.ramp(0.0, 0.5, seed=seed)
    if kind == "storm":
        return ChaosSchedule.storm(hot_prob=0.9, background=0.05, seed=seed)
    raise ValueError(kind)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="run only these scenarios (default: the whole fleet)",
    )
    parser.add_argument("--programs", type=int, default=120)
    parser.add_argument("--users", type=int, default=None,
                        help="logical population (default: each scenario's "
                        "full scale — millions)")
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--chaos", default="burst",
                        choices=("none", "steady", "burst", "ramp", "storm"))
    parser.add_argument("--fsync-poison", action="store_true",
                        help="also run the scheduled-fsync-failure stage "
                        "per scenario")
    parser.add_argument("--crash", action="store_true",
                        help="also run the SIGKILL crash-and-recover stage "
                        "per scenario")
    parser.add_argument("--out", default="scenario_report.json")
    args = parser.parse_args(argv)

    names = args.scenario or sorted(SCENARIOS)
    results = []
    failed = 0
    for name in names:
        start = time.monotonic()
        result = run_scenario(
            name,
            programs=args.programs,
            users=args.users,
            threads=args.threads,
            seed=args.seed,
            chaos=make_schedule(args.chaos, args.seed),
            certify="streaming",
        )
        entry = result.as_dict()
        entry["seconds"] = round(time.monotonic() - start, 3)
        print(
            "[%s] %-12s users=%-9d committed=%d/%d injected=%d "
            "containment=%.2f goodput=%.0f p95=%.2fms certified=%s"
            % (
                "ok" if result.ok else "FAIL",
                name,
                result.users,
                result.committed,
                result.programs,
                result.injected,
                result.containment,
                result.goodput,
                result.p95_ms,
                result.certified,
            )
        )
        if not result.ok:
            failed += 1
            if result.invariant_violation:
                print("    - %s" % result.invariant_violation)

        if args.fsync_poison:
            with tempfile.TemporaryDirectory(prefix="scn-fsync-") as directory:
                outcome = run_fsync_poison_scenario(
                    name,
                    directory,
                    programs=min(args.programs, 40),
                    users=args.users or 100_000,
                    seed=args.seed,
                )
            entry["fsync_poison"] = outcome
            poison_ok = outcome["poisoned"] and outcome["invariant_ok"]
            print(
                "[%s] %-12s fsync-poison: surfaced=%s invariant=%s "
                "replayed=%s"
                % (
                    "ok" if poison_ok else "FAIL",
                    name,
                    outcome["poisoned"],
                    outcome["invariant_ok"],
                    outcome["committed_before_poison"],
                )
            )
            if not poison_ok:
                failed += 1

        if args.crash:
            with tempfile.TemporaryDirectory(prefix="scn-crash-") as directory:
                try:
                    crash = run_crash(
                        directory,
                        name,
                        programs=min(args.programs, 40),
                        users=args.users or 50_000,
                        seed=args.seed,
                        min_acks=10,
                    )
                    entry["crash"] = crash.as_dict()
                    crash_ok = crash.ok
                    detail = "; ".join(crash.failures)
                except RuntimeError as error:  # harness problem
                    entry["crash"] = {"ok": False, "failures": [str(error)]}
                    crash_ok, detail = False, str(error)
            print(
                "[%s] %-12s crash: acked=%s units=%s/%s deterministic=%s%s"
                % (
                    "ok" if crash_ok else "FAIL",
                    name,
                    entry["crash"].get("acked_programs", "?"),
                    entry["crash"].get("recovered_units", "?"),
                    entry["crash"].get("acked_units", "?"),
                    entry["crash"].get("deterministic", "?"),
                    (" (%s)" % detail) if detail else "",
                )
            )
            if not crash_ok:
                failed += 1

        results.append(entry)

    batch = {"ok": failed == 0, "chaos": args.chaos, "scenarios": results}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(batch, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    print("report: %s (%d checks failed)" % (args.out, failed))
    return EXIT_VERDICT_FAIL if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
