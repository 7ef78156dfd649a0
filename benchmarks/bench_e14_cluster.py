"""E14 — the sharded multi-process cluster (level 5 for real).

Two cells over ``repro.cluster`` — real OS processes per shard, 2PC
over the wire, available-copies replication.  Neither is a speed: what
the cluster costs per transaction is measured by ``benchmarks/spine``
(workload ``cluster_transfer``, ledger lines ``wire`` / ``twopc``).

* **E14c certified chaos** — the acceptance run: 4 shards, replicated
  ledger, one site SIGKILLed mid-run and revived; merged cross-site
  trace certified by the streaming certifier *and* the offline oracle,
  conservation invariant + replica coherence + progress ledger all
  checked.
* **Message bill** — messages per committed transaction for the same
  bank program list at 1 / 2 / 4 shards.  A count, not a timing:
  Section 9's cost model says spanning more sites costs more messages
  (extra prepare / commit rounds, one ledger write per copy), so the
  bill must grow monotonically with the shard count.
"""

from __future__ import annotations

import json
import os

from repro.bench import Table, emit, scale
from repro.bench.reporting import RESULTS_DIR
from repro.cluster import run_cluster_scenario
from repro.scenarios.chaos import SiteSchedule

PROGRAMS = scale(120)
USERS = scale(80)
THREADS = 6
SHARD_SWEEP = (1, 2, 4)


def _message_bill():
    rows = []
    for shards in SHARD_SWEEP:
        result = run_cluster_scenario(
            "bank",
            shards=shards,
            programs=PROGRAMS,
            users=USERS,
            threads=THREADS,
            seed=14,
            durability=False,
            certified=False,
        )
        rows.append({
            "shards": shards,
            "committed": result.committed,
            "failed": result.failed,
            "retries": result.retries,
            "messages": result.messages,
            "msgs_per_txn": round(result.messages / result.committed, 2),
            "invariant_ok": result.invariant_ok,
            "ledger_ok": result.ledger_ok,
        })
    return rows


def _chaos_cell():
    result = run_cluster_scenario(
        "bank",
        shards=4,
        programs=scale(60),
        users=scale(40),
        threads=6,
        seed=14,
        sites=SiteSchedule.kill_revive(site=1, kill_at=0.3, revive_at=0.6),
        durability=True,
        certified=True,
    )
    return result.as_dict()


def test_e14_cluster(benchmark):
    def _run():
        return {"bill": _message_bill(), "chaos": _chaos_cell()}

    cells = benchmark.pedantic(_run, rounds=1, iterations=1)

    bill = cells["bill"]
    table = Table(
        ["shards", "committed", "failed", "retries", "messages",
         "msgs_per_txn"]
    )
    for row in bill:
        table.add_row(*[row[c] for c in table.columns])
    emit(
        "E14: message bill — messages per committed txn vs shard count",
        table,
        notes="one shard = one OS process; cross-shard commits use 2PC and "
        "the bank ledger has one copy per site (available copies). A "
        "count, not a timing: txn/s and latency for the cluster come from "
        "benchmarks/spine (cluster_transfer).",
    )

    chaos = cells["chaos"]
    chaos_table = Table(
        ["committed", "in_doubt", "killed", "revived", "synthesized",
         "certified_stream", "certified_oracle", "coherent", "ledger_ok"]
    )
    chaos_table.add_row(
        chaos["committed"], chaos["in_doubt"], chaos["sites_killed"],
        chaos["sites_revived"], chaos["merge"].get("synthesized", 0),
        chaos["certified_streaming"], chaos["certified_oracle"],
        chaos["replicas_coherent"], chaos["ledger_ok"],
    )
    emit(
        "E14c: certified chaos cell — 4 shards, site 1 SIGKILL + revive",
        chaos_table,
        notes="merged cross-site trace certified streaming + oracle; "
        "conservation invariant and progress ledger checked.",
    )

    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_e14_cluster.json")
    with open(out, "w") as fh:
        json.dump(
            {
                "experiment": "e14-cluster",
                "programs": PROGRAMS,
                "users": USERS,
                "threads": THREADS,
                "message_bill": bill,
                "chaos": chaos,
            },
            fh,
            indent=2,
        )

    # --- gates (no timing) ------------------------------------------------
    for row in bill:
        # Every cell drains its whole program list; nothing is lost.
        assert row["committed"] == PROGRAMS, row
        assert row["failed"] == 0, row
        assert row["invariant_ok"] and row["ledger_ok"], row
    # Section 9 cost model: spanning more sites costs more messages per
    # committed transaction (extra prepare/commit rounds, one ledger
    # write per copy), monotonically.
    msgs = [row["msgs_per_txn"] for row in bill]
    assert msgs == sorted(msgs), msgs
    assert msgs[-1] > msgs[0], msgs

    # The acceptance cell: kill+revive survived, everything certified.
    assert chaos["sites_killed"] >= 1, chaos
    assert chaos["sites_revived"] >= 1, chaos
    assert chaos["certified_streaming"] is True, chaos
    assert chaos["certified_oracle"] is True, chaos
    assert chaos["merge"].get("unresolved", 0) == 0, chaos
    assert chaos["invariant_ok"], chaos
    assert chaos["replicas_coherent"], chaos
    assert chaos["ledger_ok"], chaos
    assert chaos["committed"] > 0, chaos
