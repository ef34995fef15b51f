"""Execution operators for client-site UDFs.

The three strategies of Section 2/3 are implemented as relational operators
that drive the network simulator:

* :class:`~repro.core.execution.naive.NaiveUdfOperator` — one synchronous
  round trip per batch;
* :class:`~repro.core.execution.semijoin.SemiJoinUdfOperator` — duplicate
  elimination, at most F argument rows awaiting results, results joined back
  onto the buffered records;
* :class:`~repro.core.execution.clientjoin.ClientSiteJoinOperator` — whole
  records shipped to the client, pushable predicates and projections applied
  there.

All three ship through one sender/receiver loop,
:meth:`~repro.core.execution.base.RemoteUdfOperator.ship`, over the
in-flight window of :mod:`repro.core.execution.overlap`.

A fourth, adaptive executor —
:class:`~repro.core.execution.adaptive.AdaptiveStrategyOperator` — runs the
input in segments and may hand the unprocessed tail to a *different* strategy
mid-query when observed selectivity or bandwidth contradicts the plan; its
generalisation, :class:`~repro.core.execution.adaptive.PlanMigrationOperator`,
owns the whole client-site UDF chain and may migrate the committed plan
*shape* (UDF application order and per-UDF strategies) at segment boundaries
when the re-entered optimizer prefers a different one.

All of them share :class:`~repro.core.execution.context.RemoteExecutionContext`,
which bundles the simulator, the channel, and the client runtime.
"""

from repro.core.execution.context import RemoteExecutionContext
from repro.core.execution.base import RemoteUdfOperator
from repro.core.execution.naive import NaiveUdfOperator
from repro.core.execution.semijoin import SemiJoinUdfOperator
from repro.core.execution.clientjoin import ClientSiteJoinOperator
from repro.core.execution.adaptive import (
    AdaptiveStrategyOperator,
    MigrationPredicate,
    MigrationStage,
    PlanMigrationOperator,
)
from repro.core.execution.rewrite import replace_udf_calls_with_columns, build_operator
from repro.core.execution.scatter import ScatterGatherOperator, ShardResult
from repro.core.execution.access import IndexNestedLoopJoinOperator, IndexScanOperator

__all__ = [
    "IndexNestedLoopJoinOperator",
    "IndexScanOperator",
    "RemoteExecutionContext",
    "RemoteUdfOperator",
    "NaiveUdfOperator",
    "SemiJoinUdfOperator",
    "ClientSiteJoinOperator",
    "AdaptiveStrategyOperator",
    "MigrationPredicate",
    "MigrationStage",
    "PlanMigrationOperator",
    "replace_udf_calls_with_columns",
    "build_operator",
    "ScatterGatherOperator",
    "ShardResult",
]
