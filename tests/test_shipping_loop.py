"""The one shipping loop every strategy runs through, and the semi-join's row window.

* Simulator work scales with messages, not input rows: the semi-join no
  longer moves every record through simulator stores, so at batch 64 it costs
  about as many simulator events as the naive strategy on the same input.
* Characterisation: the simulated elapsed time and the wire trace of
  semi-joins whose concurrency factor F is not a multiple of the batch size
  (with a short final batch), and of adaptive runs at batch 4, are pinned to
  the values the earlier record-store pipeline produced.  The adaptive cases
  are the ones where admitting a batch's rows only when it ships (instead of
  row by row) would change the timing, because the batch controller can move
  its target while the sender waits partway through a batch.
"""

from __future__ import annotations

import pytest

from repro.client.runtime import ClientRuntime
from repro.core.execution.context import RemoteExecutionContext
from repro.core.execution.rewrite import build_operator
from repro.core.execution.semijoin import SemiJoinUdfOperator
from repro.core.strategies import StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.operators.scan import TableScan
from repro.relational.types import FLOAT, INTEGER
from repro.server.engine import Database
from repro.workloads.synthetic import SyntheticWorkload

ASYMMETRIC = NetworkConfig.paper_asymmetric(asymmetry=100.0)


def run_point(row_count, distinct_fraction, config):
    """Run one UDF over a synthetic input; return (operator, context)."""
    workload = SyntheticWorkload(
        row_count=row_count,
        input_record_bytes=200,
        argument_fraction=0.5,
        result_bytes=50,
        selectivity=0.5,
        distinct_fraction=distinct_fraction,
        udf_cost_seconds=0.0005,
    )
    registry = workload.build_registry()
    context = RemoteExecutionContext.create(
        ASYMMETRIC, client=ClientRuntime(registry=registry)
    )
    operator = build_operator(
        child=TableScan(workload.build_table()),
        udf=registry.get(workload.udf_name),
        argument_columns=[f"{workload.relation_name}.Argument"],
        context=context,
        config=config,
    )
    operator.run()
    return operator, context


def wire_trace(context):
    stats = context.channel_stats
    return (
        repr(context.elapsed_seconds),
        stats.downlink.message_count,
        stats.downlink.total_bytes,
        stats.uplink.message_count,
        stats.uplink.total_bytes,
    )


class TestSimulatorWork:
    def test_semi_join_events_scale_with_messages_not_rows(self):
        """On 2,000 rows at batch 64 both strategies send 9 messages each
        way; the semi-join must not pay simulator events per input row."""
        _, semi_join = run_point(2000, 0.25, StrategyConfig.semi_join(batch_size=64))
        _, naive = run_point(2000, 0.25, StrategyConfig.naive(batch_size=64))
        assert semi_join.channel_stats.downlink.message_count == 9
        assert naive.channel_stats.downlink.message_count == 9
        assert (
            semi_join.simulator.events_processed
            <= 2 * naive.simulator.events_processed
        )


class TestSemiJoinCharacterisation:
    @pytest.mark.parametrize(
        "rows, batch_size, factor, expected",
        [
            # 61 distinct arguments: fifteen 4-row batches and one of 1.
            (61, 4, 22, ("1.0618695999999999", 17, 6616, 17, 3322)),
            # 200 distinct arguments: three 64-row batches and one of 8.
            (200, 64, 150, ("3.0410816", 5, 20880, 5, 10080)),
        ],
    )
    def test_explicit_factor_not_a_multiple_of_the_batch(
        self, rows, batch_size, factor, expected
    ):
        operator, context = run_point(
            rows,
            1.0,
            StrategyConfig.semi_join(batch_size=batch_size, concurrency_factor=factor),
        )
        assert wire_trace(context) == expected
        assert isinstance(operator, SemiJoinUdfOperator)
        assert operator.concurrency_factor_used == factor
        assert operator.peak_pipeline_occupancy == factor

    @pytest.mark.parametrize(
        "factor, expected",
        [
            (None, ("0.7168128000000002", 12, 580, 12, 968)),
            (22, ("0.7427328000000003", 11, 564, 11, 952)),
        ],
    )
    def test_adaptive_at_batch_four(self, factor, expected):
        db = Database(network=ASYMMETRIC)
        db.create_table(
            "T",
            [("Id", INTEGER), ("V", INTEGER)],
            rows=[[index, index % 97] for index in range(600)],
        )
        db.register_client_udf(
            "Score",
            lambda value: value * 2.0,
            result_dtype=FLOAT,
            result_size_bytes=8,
            cost_per_call_seconds=0.001,
        )
        result = db.execute(
            "SELECT T.Id, Score(T.V) FROM T",
            config=StrategyConfig.semi_join(batch_size=4, concurrency_factor=factor),
            adaptive=True,
        )
        metrics = result.metrics
        assert (
            repr(metrics.elapsed_seconds),
            metrics.downlink_messages,
            metrics.downlink_bytes,
            metrics.uplink_messages,
            metrics.uplink_bytes,
        ) == expected
        assert metrics.batch_size_trace == (4, 8, 16, 32, 64)
        assert metrics.concurrency_factor == 64
        assert sorted(row[1] for row in result.rows) == sorted(
            (index % 97) * 2.0 for index in range(600)
        )
