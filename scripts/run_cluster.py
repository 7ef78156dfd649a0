#!/usr/bin/env python
"""Run a scenario on the sharded multi-process cluster and judge it.

Each shard is a real OS process running the full engine stack (engine +
per-shard WAL); the coordinator drives cross-shard 2PC,
replicates the scenario's ledger counters with available-copies
semantics, and (unless ``--uncertified``) merges every shard's trace
stream and certifies it with both the streaming certifier and the
offline oracle.  ``--kill-site`` SIGKILLs a shard mid-run and revives it
through WAL recovery + replica resync.

Exit codes follow the fleet convention (docs/scenarios.md): 0 every
verdict passed, 1 a verdict failed (the JSON report names it), 2 bad
invocation.

Usage:
    PYTHONPATH=src python scripts/run_cluster.py [--scenario NAME]
        [--shards N] [--programs N] [--users N] [--threads N] [--seed N]
        [--kill-site I] [--kill-at F] [--revive-at F]
        [--no-durability] [--uncertified] [--out PATH]
"""

import argparse
import json
import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from repro.cli import EXIT_OK, EXIT_VERDICT_FAIL  # noqa: E402
from repro.cluster import run_cluster_scenario  # noqa: E402
from repro.scenarios import SCENARIOS  # noqa: E402
from repro.scenarios.chaos import SiteSchedule  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="bank",
                        choices=sorted(SCENARIOS))
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--programs", type=int, default=40)
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--threads", type=int, default=6)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--kill-site", type=int, default=None,
                        help="SIGKILL this shard mid-run and revive it")
    parser.add_argument("--kill-at", type=float, default=0.3,
                        help="run fraction at which the kill fires")
    parser.add_argument("--revive-at", type=float, default=0.6,
                        help="run fraction at which the revival fires")
    parser.add_argument("--no-durability", action="store_true",
                        help="run the shards without their per-site WAL")
    parser.add_argument("--uncertified", action="store_true",
                        help="skip trace merging and certification")
    parser.add_argument("--out", default="cluster_report.json")
    args = parser.parse_args(argv)

    if args.shards < 1:
        parser.error("--shards must be >= 1")
    sites = None
    if args.kill_site is not None:
        if not 0 <= args.kill_site < args.shards:
            parser.error("--kill-site must name one of the %d shards"
                         % args.shards)
        if args.no_durability and args.kill_site is not None:
            # A killed site without a WAL loses its committed copies; the
            # run would (correctly) fail its coherence verdict.
            parser.error("--kill-site requires durability")
        if not 0 <= args.kill_at < args.revive_at <= 1:
            parser.error("need 0 <= --kill-at < --revive-at <= 1")
        sites = SiteSchedule.kill_revive(
            site=args.kill_site, kill_at=args.kill_at,
            revive_at=args.revive_at,
        )

    result = run_cluster_scenario(
        args.scenario,
        shards=args.shards,
        programs=args.programs,
        users=args.users,
        threads=args.threads,
        seed=args.seed,
        sites=sites,
        durability=not args.no_durability,
        certified=not args.uncertified,
    )
    row = result.as_dict()
    print(
        "[%s] %-12s shards=%d committed=%d/%d in_doubt=%d killed=%d "
        "revived=%d msgs=%d certified=%s/%s coherent=%s ledger=%s"
        % (
            "ok" if result.ok else "FAIL",
            result.scenario,
            result.shards,
            result.committed,
            result.programs,
            result.in_doubt,
            result.sites_killed,
            result.sites_revived,
            result.messages,
            result.certified_streaming,
            result.certified_oracle,
            result.replicas_coherent,
            result.ledger_ok,
        )
    )
    for label in ("invariant_violation", "ledger_violation"):
        if row.get(label):
            print("    - %s" % row[label])
    for mismatch in result.coherence_mismatches:
        print("    - replica mismatch: %s" % mismatch)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(row, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    print("report: %s" % args.out)
    return EXIT_OK if result.ok else EXIT_VERDICT_FAIL


if __name__ == "__main__":
    sys.exit(main())
