"""The benchmark harness: table rendering, result emission, and system
builders."""

from __future__ import annotations

import os

import pytest

from repro.baselines import FlatLockingDB, GlobalLockDB, MVTODatabase
from repro.bench import SYSTEMS, Cell, Table, emit, make_system, run_cell
from repro.bench.reporting import _fmt
from repro.engine import NestedTransactionDB
from repro.workload import WorkloadConfig


class TestTable:
    def test_render_alignment(self):
        table = Table(["name", "value"])
        table.add_row("x", 1)
        table.add_row("longer-name", 123456)
        text = table.render()
        lines = text.split("\n")
        assert len(lines) == 4  # header, rule, two rows
        assert len(set(len(line) for line in lines)) == 1  # aligned widths

    def test_add_row_arity_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_add_dict(self):
        table = Table(["a", "b"])
        table.add_dict({"a": 1, "c": "ignored"})
        assert table.rows[0] == ["1", ""]

    def test_empty_table_renders_header(self):
        table = Table(["only"])
        assert "only" in table.render()

    def test_fmt(self):
        assert _fmt(0.0) == "0"
        assert _fmt(1234.5) == "1234"
        assert _fmt(3.14159) == "3.14"
        assert _fmt(0.001234) == "0.0012"
        assert _fmt("text") == "text"
        assert _fmt(7) == "7"


class TestEmit:
    def test_emit_writes_results_file(self, tmp_path, monkeypatch):
        import repro.bench.reporting as reporting

        monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
        table = Table(["k"])
        table.add_row("v")
        emit("Test Emission 123", table, notes="a note")
        files = os.listdir(tmp_path)
        assert len(files) == 1
        content = open(os.path.join(str(tmp_path), files[0])).read()
        assert "Test Emission 123" in content
        assert "a note" in content


class TestSystems:
    def test_all_registered_systems_build(self):
        expected_types = {
            "moss-rw": NestedTransactionDB,
            "moss-single": NestedTransactionDB,
            "moss-lazy": NestedTransactionDB,
            "moss-victim-requester": NestedTransactionDB,
            "moss-victim-youngest": NestedTransactionDB,
            "flat-2pl": FlatLockingDB,
            "global-lock": GlobalLockDB,
            "mvto": MVTODatabase,
        }
        assert set(SYSTEMS) == set(expected_types)
        for name, expected in expected_types.items():
            db = make_system(name, objects=4)
            assert isinstance(db, expected)
            assert len(db.initial_values) == 4

    def test_system_flags(self):
        assert make_system("moss-single", 2).single_mode
        assert make_system("moss-lazy", 2).lazy_lock_cleanup
        assert make_system("moss-victim-youngest", 2).deadlock_policy == "youngest"
        assert not make_system("moss-rw", 2).single_mode

    def test_unknown_system(self):
        with pytest.raises(KeyError):
            make_system("quantum-db", 4)


class TestCells:
    def test_run_cell_end_to_end(self):
        report = run_cell(
            "moss-rw", threads=2, objects=8, programs=5, seed=1
        )
        assert report.committed_programs == 5
        assert report.duration > 0

    def test_cell_dataclass(self):
        cell = Cell("global-lock", WorkloadConfig(objects=4, programs=3, seed=2))
        report = cell.run()
        assert report.committed_programs == 3
