"""The observability subsystem: metrics registry exactness under
threads, event bus + sinks, stats parity across submission paths, engine
wiring, and the deprecated 1.0 surfaces."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.engine import (
    EngineConfig,
    FailureInjector,
    NestedTransactionDB,
    STATS_KEYS,
    TransactionAborted,
)
from repro.engine.retry import RetryPolicy
from repro.obs import (
    EVENT_KINDS,
    EventBus,
    JsonlFileSink,
    LockWaited,
    MetricsRegistry,
    ObservableStats,
    RingBufferSink,
    StderrPrettySink,
    TxnCommitted,
)


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        gauge = registry.gauge("depth")
        gauge.set(3.5)
        assert gauge.value == 3.5
        live = registry.gauge("live", callback=lambda: 42)
        assert live.value == 42
        hist = registry.histogram("latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.05, 0.5, 2.0):
            hist.observe(v)
        assert hist.count == 4
        assert hist.sum == pytest.approx(2.6)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["max"] == pytest.approx(2.0)
        assert snap["buckets"]["+Inf"] == 1

    def test_constructors_are_idempotent_keyed_by_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("c", labels={"stripe": "00"})
        b = registry.counter("c", labels={"stripe": "00"})
        c = registry.counter("c", labels={"stripe": "01"})
        plain = registry.counter("c")
        assert a is b
        assert a is not c and a is not plain
        a.inc()
        assert b.value == 1 and c.value == 0

    def test_percentiles_interpolate_within_bucket(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            hist.observe(1.5)  # all land in the (1, 2] bucket
        # Interpolation stays inside the bucket that holds the rank.
        assert 1.0 <= hist.percentile(0.5) <= 2.0
        assert 1.0 <= hist.percentile(0.99) <= 2.0
        assert hist.percentile(0.0) == 0.0 or hist.percentile(0.0) <= 2.0
        with pytest.raises(ValueError):
            hist.percentile(1.5)
        assert MetricsRegistry().histogram("empty").percentile(0.95) == 0.0

    def test_disabled_timed_is_noop_and_shared(self):
        registry = MetricsRegistry(enabled=False)
        t1 = registry.timed("x")
        t2 = registry.timed("y")
        assert t1 is t2  # one shared no-op object, nothing allocated
        with t1:
            pass
        assert registry.snapshot()["histograms"] == {}
        registry.enable()
        with registry.timed("x"):
            pass
        assert registry.histogram("x").count == 1

    def test_render_text_prometheus_shape(self):
        registry = MetricsRegistry()
        registry.counter("commits_total").inc(3)
        registry.gauge("active").set(2)
        hist = registry.histogram("wait_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = registry.render_text()
        assert "# TYPE commits_total counter" in text
        assert "commits_total 3" in text
        assert "# TYPE active gauge" in text
        assert "# TYPE wait_seconds histogram" in text
        # Cumulative buckets, +Inf last, plus _sum/_count.
        assert 'wait_seconds_bucket{le="+Inf"} 2' in text
        assert "wait_seconds_count 2" in text
        assert "wait_seconds_sum" in text

    def test_eight_thread_hammer_totals_are_exact(self):
        """Satellite 4: 8 threads hammer one registry; counter totals and
        histogram count must equal the number of operations exactly."""
        registry = MetricsRegistry()
        counter = registry.counter("hammered_total")
        hist = registry.histogram("hammered_seconds")
        per_thread = 5000
        threads_n = 8
        start = threading.Barrier(threads_n)

        def worker(seed: int) -> None:
            start.wait()
            for i in range(per_thread):
                counter.inc()
                hist.observe((seed + i % 7) * 1e-4)

        workers = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads_n)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert counter.value == threads_n * per_thread
        assert hist.count == threads_n * per_thread
        snap = hist.snapshot()
        assert sum(snap["buckets"].values()) == threads_n * per_thread


class TestEventBusAndSinks:
    def test_bus_disabled_until_sink_attached(self):
        bus = EventBus()
        assert not bus.enabled
        sink = bus.attach(RingBufferSink())
        assert bus.enabled
        bus.detach(sink)
        assert not bus.enabled

    def test_emit_stamps_ts_and_fans_out(self):
        bus = EventBus()
        ring = bus.attach(RingBufferSink(capacity=4))
        for i in range(6):
            bus.emit(TxnCommitted(txn="T%d" % i, objects=i))
        assert bus.emitted == 6
        assert ring.seen == 6
        assert len(ring) == 4  # ring keeps only the most recent
        assert all(e.ts is not None for e in ring.events)
        assert [e.objects for e in ring.of_kind("txn_committed")] == [2, 3, 4, 5]

    def test_sink_errors_are_contained_and_counted(self):
        class Exploding:
            def handle(self, event):
                raise RuntimeError("sink bug")

        bus = EventBus()
        ring = bus.attach(RingBufferSink())
        bus.attach(Exploding())
        bus.emit(TxnCommitted(txn="T1"))  # must not raise
        assert bus.sink_errors == 1
        assert isinstance(bus.last_sink_error, RuntimeError)
        assert ring.seen == 1  # the healthy sink still got the event

    def test_jsonl_sink_roundtrip_non_ascii(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlFileSink(path)
        sink.handle(LockWaited(txn="T1", obj="café", mode="write", seconds=0.01))
        sink.close()
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        assert "café" in raw  # ensure_ascii off: stays readable
        record = json.loads(raw)
        assert record["kind"] == "lock_waited"
        assert record["obj"] == "café"

    def test_jsonl_sink_borrowed_stream_not_closed(self):
        buffer = io.StringIO()
        sink = JsonlFileSink(buffer)
        sink.handle(TxnCommitted(txn="T1"))
        sink.close()
        assert not buffer.closed
        assert sink.written == 1

    def test_stderr_pretty_sink_formats_one_line(self):
        buffer = io.StringIO()
        sink = StderrPrettySink(stream=buffer)
        event = TxnCommitted(txn="T1", objects=2)
        event.ts = 12.5
        sink.handle(event)
        line = buffer.getvalue()
        assert line.count("\n") == 1
        assert "txn_committed" in line and "objects=2" in line

    def test_event_taxonomy_is_complete(self):
        assert len(EVENT_KINDS) == len(set(EVENT_KINDS)) == 14
        assert "trace_record" in EVENT_KINDS


class TestStatsParity:
    @pytest.mark.usefixtures("retired_latch_axis")
    def test_snapshot_schema_matches_stats_keys(self):
        db = NestedTransactionDB({"a": 0, "b": 0})
        with db.transaction() as t:
            t.write("a", t.read("b") + 1)
        snap = db.stats.snapshot()
        assert tuple(snap) == STATS_KEYS
        assert snap["begun"] == snap["committed"] == 1
        assert snap["reads"] >= 1 and snap["writes"] >= 1

    def test_parity_across_modes_on_identical_workload(self):
        """The two submission modes — blocking per-op calls and the
        batch entry points — count an identical workload identically."""

        def blocking(db):
            for _ in range(5):
                db.run_transaction(lambda t: t.write("x", t.read("x") + 1))

        def batched(db):
            for _ in range(5):
                (txn,) = db.begin_transaction_batch(1)
                ((_, seen),) = db.try_perform_batch([(txn, "read", "x", None)])
                db.try_perform_batch([(txn, "write", "x", seen + 1)])
                db.commit_batch([txn])

        snapshots = []
        for drive in (blocking, batched):
            db = NestedTransactionDB({"x": 0})
            drive(db)
            assert db.read_committed("x") == 5
            snapshots.append(db.stats.snapshot())
        a, b = snapshots
        assert set(a) == set(b) == set(STATS_KEYS)
        # Single-threaded deterministic workload: lifecycle and data-path
        # counters agree exactly, not just structurally.
        assert a == b

    def test_counters_are_plain_attributes(self):
        stats = ObservableStats()
        stats.reads = 5
        stats.begun = 3
        snap = stats.snapshot()
        assert snap["reads"] == 5 and snap["begun"] == 3
        with pytest.raises(AttributeError):
            stats.raeds = 1  # a typo must not mint a counter

    def test_bind_mirrors_counters_as_gauges(self):
        registry = MetricsRegistry()
        stats = ObservableStats()
        stats.bind(registry)
        stats.committed = 7
        snap = registry.snapshot()
        assert snap["gauges"]["engine_stats_committed"] == 7
        assert "engine_stats_committed 7" in registry.render_text()


class TestRemovedAliases:
    def test_deprecated_stats_aliases_are_gone(self):
        """The PR-1 compatibility aliases completed their deprecation
        cycle; ObservableStats is the only stats surface."""
        import repro.engine as engine
        import repro.obs as obs

        for module in (engine, obs):
            assert not hasattr(module, "EngineStats")
            assert not hasattr(module, "StripedEngineStats")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_delay_and_retryable(self):
        policy = RetryPolicy(max_retries=3, backoff=0.01, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.01)
        assert policy.delay(3) == pytest.approx(0.03)
        assert policy.is_retryable(TransactionAborted(None, "x"))
        assert not policy.is_retryable(KeyError("x"))
        jittery = RetryPolicy(backoff=0.01, jitter=0.005)
        d = jittery.delay(2)
        assert 0.02 <= d <= 0.025


class TestEngineWiring:
    @pytest.mark.usefixtures("retired_latch_axis")
    def test_commit_and_wait_metrics_populate(self):
        db = NestedTransactionDB({"a": 0, "b": 0}, config=EngineConfig(lock_timeout=5.0))
        db.metrics.enable()
        ring = db.events.attach(RingBufferSink(capacity=4096))
        db.run_transaction(lambda t: t.write("a", 1))

        # Force a real lock wait: a holder parks a second transaction.
        holder = db.begin_transaction()
        holder.write("b", 1)
        released = threading.Event()

        def waiter():
            db.run_transaction(lambda t: t.write("b", 2))
            released.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        assert not released.wait(0.1)
        holder.commit()
        assert released.wait(5)
        thread.join(5)

        snap = db.metrics.snapshot()
        assert snap["histograms"]["engine_commit_seconds"]["count"] >= 3
        assert snap["histograms"]["engine_lock_wait_seconds"]["count"] >= 1
        kinds = {e.kind for e in ring.events}
        assert {"txn_begun", "txn_committed", "lock_waited"} <= kinds
        assert db.events.sink_errors == 0
        db.assert_quiescent()

    def test_aborts_emit_events(self):
        db = NestedTransactionDB({"a": 0})
        ring = db.events.attach(RingBufferSink())
        with pytest.raises(TransactionAborted):
            db.run_transaction(
                lambda t: (_ for _ in ()).throw(
                    TransactionAborted(t.name, "synthetic")
                ),
                policy=RetryPolicy(max_retries=1, backoff=0),
            )
        assert len(ring.of_kind("txn_aborted")) == 2

    def test_failure_injector_counts_and_emits(self):
        registry = MetricsRegistry()
        bus = EventBus()
        ring = bus.attach(RingBufferSink())
        injector = FailureInjector(
            failure_prob=1.0, seed=1, metrics=registry, events=bus
        )
        from repro.engine import InjectedFailure

        with pytest.raises(InjectedFailure):
            injector.point("notify")
        assert registry.counter("injected_failures_total").value == 1
        assert ring.of_kind("failure_injected")[0].label == "notify"

    def test_disabled_registry_records_nothing(self):
        db = NestedTransactionDB({"a": 0})  # metrics disabled by default
        db.run_transaction(lambda t: t.write("a", 1))
        snap = db.metrics.snapshot()
        assert all(h["count"] == 0 for h in snap["histograms"].values())
        assert db.events.emitted == 0
