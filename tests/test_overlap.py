"""Tests for the overlapped shipping protocol and the columnar batch storage.

Covers the two layers of the columnar/overlap refactor:

* :class:`~repro.relational.tuples.RowBatch` columnar semantics — lazy row
  materialisation, column-wise project/filter/slice, and the size-plan based
  ``size_bytes``;
* the shared :class:`~repro.core.execution.overlap.InFlightWindow` protocol —
  a window of 1 reproduces the synchronous wire trace, the in-flight count
  never exceeds the window (or the semi-join's concurrency factor),
  overlapped shipping beats synchronous shipping on a high-latency link, and
  the adaptive overlap controller moves the window mid-query.
"""

from __future__ import annotations

import math

import pytest

from repro.adaptive import OverlapWindowController
from repro.core.execution.overlap import InFlightWindow
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.message import MESSAGE_OVERHEAD_BYTES
from repro.network.simulator import Simulator
from repro.network.topology import NetworkConfig
from repro.relational.schema import Column, Schema
from repro.relational.tuples import Row, RowBatch, row_size
from repro.relational.types import DataObject, DATA_OBJECT, INTEGER, STRING
from repro.workloads.experiments import run_workload_point
from repro.workloads.synthetic import SyntheticWorkload

HIGH_LATENCY = NetworkConfig.symmetric(1_000_000.0, latency=0.2, name="overlap-highlat")
FAST = NetworkConfig.symmetric(2_000_000.0, latency=0.0005, name="overlap-fast")


def make_workload(row_count=60, distinct_fraction=1.0, selectivity=0.5):
    return SyntheticWorkload(
        row_count=row_count,
        input_record_bytes=200,
        argument_fraction=0.5,
        result_bytes=50,
        selectivity=selectivity,
        distinct_fraction=distinct_fraction,
        udf_cost_seconds=0.0005,
    )


def config_for(strategy, batch_size=4, overlap_window=None):
    if strategy is ExecutionStrategy.NAIVE:
        return StrategyConfig.naive(batch_size=batch_size, overlap_window=overlap_window)
    if strategy is ExecutionStrategy.SEMI_JOIN:
        # Pin a roomy row window so the batch window is the binding knob.
        return StrategyConfig.semi_join(
            batch_size=batch_size, concurrency_factor=64, overlap_window=overlap_window
        )
    return StrategyConfig.client_site_join(
        batch_size=batch_size, overlap_window=overlap_window
    )


# ---------------------------------------------------------------------------
# Columnar RowBatch
# ---------------------------------------------------------------------------


class TestColumnarRowBatch:
    def test_from_columns_and_lazy_rows(self):
        batch = RowBatch.from_columns([[1, 2, 3], ["a", "b", "c"]])
        assert len(batch) == 3
        assert batch.column(1) == ["a", "b", "c"]
        # Rows materialise lazily, as Row objects, aligned with the columns.
        assert batch.rows == [Row((1, "a")), Row((2, "b")), Row((3, "c"))]
        assert batch[1] == Row((2, "b"))

    def test_rows_construction_transposes_lazily(self):
        batch = RowBatch([Row((1, 10)), Row((2, 20))])
        assert batch.columns == [[1, 2], [10, 20]]

    def test_project_is_column_wise_and_shares_columns(self):
        batch = RowBatch.from_columns([[1, 2], [3, 4], [5, 6]])
        projected = batch.project((2, 0))
        # The projection selects column references — no copy, no row objects.
        assert projected.columns[0] is batch.columns[2]
        assert projected.rows == [Row((5, 1)), Row((6, 2))]

    def test_filter_on_columnar_batch(self):
        batch = RowBatch.from_columns([[1, 2, 3, 4]])
        kept = batch.filter(lambda values: values[0] % 2 == 0)
        assert [row[0] for row in kept] == [2, 4]
        # A filter that keeps everything returns the batch itself.
        assert batch.filter(lambda values: True) is batch

    def test_slice_matches_row_semantics(self):
        batch = RowBatch.from_columns([[0, 1, 2, 3, 4]])
        assert [row[0] for row in batch.slice(1, 3)] == [1, 2]
        assert len(batch.slice(4, 99)) == 1

    def test_getitem_supports_slices_on_both_representations(self):
        columnar = RowBatch.from_columns([[1, 2, 3], [4, 5, 6]])
        rowwise = RowBatch([Row((1, 4)), Row((2, 5)), Row((3, 6))])
        assert columnar[0:2] == rowwise[0:2] == [Row((1, 4)), Row((2, 5))]
        assert columnar[-1] == rowwise[-1] == Row((3, 6))

    def test_take_and_key_tuples(self):
        batch = RowBatch.from_columns([[1, 2, 3], ["a", "b", "c"]])
        assert batch.key_tuples() == [(1, "a"), (2, "b"), (3, "c")]
        assert batch.key_tuples((1,)) == [("a",), ("b",), ("c",)]
        taken = batch.take([2, 0])
        assert taken.rows == [Row((3, "c")), Row((1, "a"))]
        # Taking every row returns the batch itself.
        assert batch.take([0, 1, 2]) is batch

    def test_empty_batch_operations(self):
        batch = RowBatch([])
        assert not batch
        assert len(batch.project((0,))) == 0
        assert len(batch.filter(lambda values: True)) == 0
        assert batch.size_bytes(Schema.of(("v", INTEGER))) == 0

    def test_size_bytes_uses_fixed_width_plan(self):
        schema = Schema.of(("k", INTEGER), ("s", STRING), ("o", DATA_OBJECT))
        rows = [
            Row((1, "ab", DataObject(100, seed=1))),
            Row((None, None, DataObject(50, seed=2))),
        ]
        batch = RowBatch(rows)
        expected = sum(row_size(row, schema) for row in rows)
        assert batch.size_bytes(schema) == expected
        # The plan itself: fixed columns priced arithmetically, variable walked.
        fixed, variable = schema.size_plan()
        assert fixed == ((0, 4),)
        assert variable == (1, 2)

    def test_size_bytes_counts_nulls_in_fixed_columns(self):
        schema = Schema.of(("k", INTEGER))
        batch = RowBatch.from_columns([[7, None, None]])
        # 4 bytes for the value, 1 byte per NULL.
        assert batch.size_bytes(schema) == 4 + 1 + 1


# ---------------------------------------------------------------------------
# InFlightWindow semantics
# ---------------------------------------------------------------------------


class TestInFlightWindow:
    def test_blocks_at_capacity_and_releases(self):
        simulator = Simulator()
        window = InFlightWindow(simulator, capacity=2)
        granted = []

        def sender():
            for index in range(4):
                yield window.acquire()
                granted.append(index)

        def releaser():
            yield simulator.timeout(1.0)
            window.release()
            yield simulator.timeout(1.0)
            window.release()

        simulator.process(sender())
        simulator.process(releaser())
        simulator.run()
        assert granted == [0, 1, 2, 3]
        assert window.peak_in_flight == 2
        # The third and fourth acquisitions each waited one second.
        assert window.stall_seconds == pytest.approx(2.0)

    def test_weighted_acquire_waits_until_enough_units_are_released(self):
        simulator = Simulator()
        window = InFlightWindow(simulator, capacity=4)
        granted = []

        def sender():
            yield window.acquire(3)
            granted.append(("three", simulator.now))
            yield window.acquire(3)
            granted.append(("three more", simulator.now))

        def releaser():
            yield simulator.timeout(1.0)
            window.release(1)  # 2 in flight: three more still do not fit
            yield simulator.timeout(1.0)
            window.release(2)

        simulator.process(sender())
        simulator.process(releaser())
        simulator.run()
        assert granted == [("three", 0.0), ("three more", 2.0)]
        assert window.in_flight == 3
        assert window.peak_in_flight == 3
        assert window.stall_seconds == pytest.approx(2.0)

    def test_try_acquire_schedules_nothing_and_respects_waiters(self):
        simulator = Simulator()
        window = InFlightWindow(simulator, capacity=2)
        assert window.try_acquire() is True
        assert window.try_acquire() is True
        assert simulator.pending_events == 0
        assert window.try_acquire() is False
        waiter = window.acquire()
        window.release()
        # The queued waiter took the freed unit; a later try must not jump it.
        assert waiter.triggered
        assert window.try_acquire() is False
        window.release(2)
        assert window.in_flight == 0
        assert window.try_acquire(2) is True
        assert window.peak_in_flight == 2

    def test_resize_grows_and_shrinks(self):
        simulator = Simulator()
        window = InFlightWindow(simulator, capacity=1)
        order = []

        def sender():
            yield window.acquire()
            order.append("first")
            window.resize(3)
            yield window.acquire()
            order.append("second")
            yield window.acquire()
            order.append("third")

        simulator.process(sender())
        simulator.run()
        assert order == ["first", "second", "third"]
        assert window.peak_in_flight == 3
        window.resize(1)
        assert window.capacity == 1
        assert window.capacity_or_none == 1
        assert InFlightWindow(Simulator()).capacity_or_none is None


# ---------------------------------------------------------------------------
# Window = 1 reproduces the synchronous wire trace
# ---------------------------------------------------------------------------


class TestSynchronousTraceEquivalence:
    def test_naive_window_one_matches_synchronous_trace(self):
        """Window 1 must carry exactly the pre-refactor synchronous trace:
        one argument batch per ceil(rows / batch) downlink data message, one
        reply each, plus the end-of-stream exchange — same counts, same
        bytes."""
        workload = make_workload(row_count=60)
        batch_size = 4
        point = run_workload_point(
            workload, FAST, StrategyConfig.naive(batch_size=batch_size, overlap_window=1)
        )
        batches = math.ceil(workload.row_count / batch_size)
        # Downlink: one message per argument batch plus the end-of-stream.
        assert point.downlink_messages == batches + 1
        # Uplink: one result batch per argument batch plus the EOS ack.
        assert point.uplink_messages == batches + 1
        argument_bytes = workload.row_count * (4 + workload.argument_size)
        assert point.downlink_bytes == (
            argument_bytes + point.downlink_messages * MESSAGE_OVERHEAD_BYTES
        )
        # Replies are sized from the UDF's declared result size, one result
        # per shipped argument tuple.
        result_bytes = workload.row_count * workload.result_bytes
        assert point.uplink_bytes == (
            result_bytes + point.uplink_messages * MESSAGE_OVERHEAD_BYTES
        )

    @pytest.mark.parametrize("strategy", list(ExecutionStrategy))
    def test_wire_trace_is_window_invariant(self, strategy):
        """The window changes *when* messages leave, never what is sent:
        message counts and bytes are identical at windows 1, 4, and
        unbounded, and the default config matches both."""
        workload = make_workload(row_count=40, distinct_fraction=0.5)
        traces = []
        for window in (1, 4, None):
            point = run_workload_point(
                workload, FAST, config_for(strategy, overlap_window=window)
            )
            traces.append(
                (
                    point.downlink_messages,
                    point.uplink_messages,
                    point.downlink_bytes,
                    point.uplink_bytes,
                    point.result_rows,
                )
            )
        assert traces[0] == traces[1] == traces[2]


# ---------------------------------------------------------------------------
# The window bound is respected
# ---------------------------------------------------------------------------


class TestWindowBound:
    @pytest.mark.parametrize("strategy", list(ExecutionStrategy))
    @pytest.mark.parametrize("window", [1, 3])
    def test_in_flight_never_exceeds_window(self, strategy, window):
        workload = make_workload(row_count=48)
        table = workload.build_table()
        registry = workload.build_registry()
        from repro.client.runtime import ClientRuntime
        from repro.core.execution.context import RemoteExecutionContext
        from repro.core.execution.rewrite import build_operator
        from repro.relational.operators.scan import TableScan

        context = RemoteExecutionContext.create(
            HIGH_LATENCY, client=ClientRuntime(registry=registry)
        )
        operator = build_operator(
            child=TableScan(table),
            udf=registry.get(workload.udf_name),
            argument_columns=[f"{workload.relation_name}.Argument"],
            context=context,
            config=config_for(strategy, overlap_window=window),
        )
        remote = operator
        while not hasattr(remote, "peak_in_flight_batches"):
            remote = remote.children[0]
        remote.run()
        assert 1 <= remote.peak_in_flight_batches <= window
        assert remote.overlap_window_used == window

    def test_semi_join_window_never_exceeds_pipeline_capacity(self):
        """The batch window is layered over the semi-join's row window:
        argument rows awaiting results stay bounded by the concurrency
        factor whatever the batch window admits."""
        workload = make_workload(row_count=48)
        table = workload.build_table()
        registry = workload.build_registry()
        from repro.client.runtime import ClientRuntime
        from repro.core.execution.context import RemoteExecutionContext
        from repro.core.execution.semijoin import SemiJoinUdfOperator
        from repro.relational.operators.scan import TableScan

        context = RemoteExecutionContext.create(
            HIGH_LATENCY, client=ClientRuntime(registry=registry)
        )
        factor = 12
        operator = SemiJoinUdfOperator(
            TableScan(table),
            registry.get(workload.udf_name),
            [f"{workload.relation_name}.Argument"],
            context,
            config=StrategyConfig.semi_join(
                batch_size=4, concurrency_factor=factor, overlap_window=8
            ),
        )
        operator.run()
        assert operator.peak_pipeline_occupancy <= factor
        # 12 rows hold at most 3 four-row batches: the batch window never
        # outruns the row window.
        assert operator.peak_in_flight_batches <= math.ceil(factor / 4)


# ---------------------------------------------------------------------------
# Overlap beats synchronous shipping
# ---------------------------------------------------------------------------


class TestOverlapSpeedup:
    @pytest.mark.parametrize("strategy", list(ExecutionStrategy))
    def test_window_four_beats_synchronous_on_high_latency_link(self, strategy):
        workload = make_workload(row_count=60)
        synchronous = run_workload_point(
            workload, HIGH_LATENCY, config_for(strategy, overlap_window=1)
        )
        overlapped = run_workload_point(
            workload, HIGH_LATENCY, config_for(strategy, overlap_window=4)
        )
        assert overlapped.result_rows == synchronous.result_rows
        assert overlapped.elapsed_seconds * 1.5 <= synchronous.elapsed_seconds


# ---------------------------------------------------------------------------
# Adaptive window control and metrics surface
# ---------------------------------------------------------------------------


class TestAdaptiveOverlap:
    def make_db(self, network=HIGH_LATENCY):
        from repro.server.engine import Database

        db = Database(network=network)
        db.create_table(
            "T", [("K", INTEGER), ("V", INTEGER)], rows=[[i, i] for i in range(120)]
        )
        db.register_client_udf("Score", lambda v: float(v), selectivity=0.5)
        return db

    def test_overlap_controller_widens_the_naive_window(self):
        db = self.make_db()
        sql = "SELECT T.K FROM T WHERE Score(T.V) > 10"
        static = db.execute(sql, config=StrategyConfig.naive(batch_size=4))
        adaptive = db.execute(
            sql, config=StrategyConfig.naive(batch_size=4), adaptive=True
        )
        assert adaptive.row_set() == static.row_set()
        # The controller starts double-buffered and climbs: the run must
        # actually overlap, where the static naive run never does.
        assert static.metrics.peak_in_flight_batches == 1
        assert adaptive.metrics.peak_in_flight_batches >= 2
        assert adaptive.metrics.elapsed_seconds < static.metrics.elapsed_seconds

    def test_explicit_window_pins_against_the_controller(self):
        config = StrategyConfig.naive(overlap_window=3).with_overlap_controller(
            OverlapWindowController(initial_window=16)
        )
        assert config.next_overlap_window() == 3
        assert config.overlap_controller_for() is None

    def test_metrics_surface_overlap_instrumentation(self):
        db = self.make_db()
        result = db.execute(
            "SELECT T.K FROM T WHERE Score(T.V) > 10",
            config=StrategyConfig.naive(batch_size=8),
            overlap_window=4,
        )
        assert result.metrics.overlap_window == 4
        assert 2 <= result.metrics.peak_in_flight_batches <= 4
        assert result.metrics.send_stall_seconds >= 0.0
        assert "overlap peak" in result.metrics.summary()

    def test_overlap_window_controller_is_a_window_ladder(self):
        controller = OverlapWindowController(initial_window=2, max_window=8)
        assert controller.current() == 2
        # Feed monotone improving throughput; the climber probes upward.
        now = 0.0
        controller.observe_rows(8, now)
        for _ in range(40):
            size = controller.current()
            now += 8.0 / (size * 10.0)  # throughput grows with the window
            controller.observe_rows(8, now)
        assert controller.current() > 2
