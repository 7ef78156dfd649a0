"""Smoke test of the spine benchmark (not part of the tier-1 suite):

    python -m pytest benchmarks/spine -q

Runs every workload at ``--scale 0.02``, untraced and traced, through the
same command line the benchmark driver uses.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
AGREE = os.path.join(HERE, "agree.py")
SMOKE = ["--seed", "11", "--seconds", "0.2", "--scale", "0.02"]

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

#: Counts that one seed must reproduce bit for bit: the ledger runs one
#: client, so nothing about them depends on thread timing.
EXACT = [
    "ledger.records_per_txn",
    "ledger.wal_bytes_per_commit",
    "ledger.loop_crossings_per_txn",
    "ledger.msgs_per_txn",
]
#: Exact as long as no program was retried (a retry repeats records and
#: front-end crossings; at smoke scale there is almost never one).
EXACT_WITHOUT_RETRIES = [
    "checker.records_per_txn",
    "serve.loop_crossings_per_txn",
]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True,
        cwd=ROOT, check=False, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice() -> dict:
    return {
        workload: [
            result_of(run("--workload", workload, "--trace", "1", *SMOKE))
            for _ in range(2)
        ]
        for workload in WORKLOADS
    }


def assert_metrics(result: dict, expected: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {entry["name"] for entry in expected}
    for entry in expected:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"]), entry["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(workload: str) -> None:
    result = result_of(run("--workload", workload, "--trace", "0", *SMOKE))
    assert_metrics(result, SPEC["end_to_end"])
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_present(workload: str, traced_twice: dict) -> None:
    for result in traced_twice[workload]:
        assert_metrics(result, SPEC["per_layer"])
    assert os.path.getsize(
        os.path.join(HERE, "out", "trace_%s.jsonl" % workload)
    ) > 0


def test_ledger_is_a_stack(traced_twice: dict) -> None:
    """``ledger.py`` itself fails the run on a rung that is not a positive
    time; here, what its lines must say about the stack whatever the
    host: the bare engine costs something, everything on costs more, and
    a process boundary is dearer than none."""
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from ledger import PATH_LINES

    for result in traced_twice["nested_uniform"]:
        line = {
            name: result["metrics"]["ledger.%s_us_per_txn" % name]["value"]
            for name in PATH_LINES + ("residual", "top")
        }
        assert line["engine_base"] > 0
        assert line["top"] > line["engine_base"]
        assert line["wire"] > 0
        # The residual is named for what it is: the top rung less its path.
        assert sum(line[name] for name in PATH_LINES) + line["residual"] \
            == pytest.approx(line["top"])


def test_two_client_ratio_where_one_client_is_gated(traced_twice: dict) -> None:
    for workload, results in traced_twice.items():
        ratio = results[0]["metrics"]["engine.two_client_ratio"]["value"]
        if workload in ("nested_uniform", "certified_nested"):
            assert ratio > 0
        else:
            assert ratio == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload: str, traced_twice: dict) -> None:
    first, second = (r["metrics"] for r in traced_twice[workload])
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
    retried = any(
        m[key]["value"] for m in (first, second)
        for key in ("engine.retries_per_txn", "cluster.retries_per_txn")
    )
    if not retried:
        for name in EXACT_WITHOUT_RETRIES:
            assert first[name]["value"] == second[name]["value"], name
    # Commit frames carry the transaction's name, whose number depends on
    # which worker began its batch first: a few bytes either way.
    assert first["wal.bytes_per_commit"]["value"] == pytest.approx(
        second["wal.bytes_per_commit"]["value"], rel=0.01
    )


@pytest.mark.parametrize("workload", ["nested_uniform", "cluster_transfer"])
def test_broken_conservation_fails_the_run(workload: str) -> None:
    done = run("--workload", workload, "--trace", "0", "--tamper", *SMOKE)
    assert done.returncode != 0
    assert "conservation" in done.stderr
    assert '"correct"' not in done.stdout


def test_broken_conservation_fails_the_suite() -> None:
    done = run("--tamper", *SMOKE)
    assert done.returncode != 0
    assert "conservation" in done.stderr
    assert '"failures": %d' % len(WORKLOADS) in done.stdout


def test_agree_accepts_same_and_rejects_scaled(tmp_path) -> None:
    path_a = str(tmp_path / "A.json")
    done = run("--out", path_a, *SMOKE)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith('"claim": null}')
    with open(path_a, "r", encoding="utf-8") as fh:
        base = json.load(fh)
    assert base["claim"] is None
    for key in ("cpu_count", "python", "gil_enabled", "load_average_start",
                "load_average_end", "git_commit", "seed", "comparable"):
        assert key in base["fingerprint"]
    # The host may be busy while the tests run; that is not under test.
    base["fingerprint"]["comparable"] = True
    # Half the throughput is outside any bound the contract allows (25 %).
    slower = copy.deepcopy(base)
    for row in slower["results"].values():
        row["end_to_end"]["committed_txn_s"]["median"] *= 0.5
    path_b = str(tmp_path / "B.json")
    for path, data in ((path_a, base), (path_b, slower)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def agree(first: str, second: str) -> int:
        return subprocess.run(
            [sys.executable, AGREE, first, second], capture_output=True,
            text=True, cwd=ROOT, check=False,
        ).returncode

    assert agree(path_a, path_a) == 0
    assert agree(path_a, path_b) == 1
    assert agree(path_b, path_a) == 0
    # A set from a busy host resolves nothing, whatever its numbers.
    base["fingerprint"]["comparable"] = False
    with open(path_b, "w", encoding="utf-8") as fh:
        json.dump(base, fh)
    assert agree(path_a, path_b) == 2
