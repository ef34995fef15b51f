"""Mid-query adaptive execution: strategy switching and plan-shape migration.

Two adaptive executors live here, both running the input in *segments*
(geometrically growing row slices) built from the ordinary strategy
operators:

* :class:`AdaptiveStrategyOperator` — per-UDF *strategy* switching within
  the committed plan shape (PR 3);
* :class:`PlanMigrationOperator` — its generalisation: one operator owns the
  whole client-site UDF chain, and a
  :class:`~repro.adaptive.reoptimizer.ReOptimizer` re-enters the System-R
  enumerator at segment boundaries, migrating the unprocessed tail to a
  structurally different plan (reordered UDF applications, different
  per-UDF strategies) when the observed statistics demand it.

The three committed strategies process their whole input under the plan's
choice.  The :class:`AdaptiveStrategyOperator` instead runs the input in
*segments*: each segment executes under
the currently-best strategy via the ordinary strategy operators, and at every
segment boundary the operator hands the
:class:`~repro.adaptive.switcher.StrategySwitcher` what the run observed —
the cumulative surviving fraction of the pushable predicate, the effective
bandwidth each link actually delivered, the measured per-call UDF cost — plus
the exact byte shape of the unprocessed tail.  The switcher re-costs the
remaining rows under every strategy
(:func:`~repro.core.optimizer.cost.remaining_strategy_cost`) and, with
hysteresis, may hand the tail to a different strategy executor.

Partial results are merged trivially (each segment produces its own
post-predicate, projected output rows, and all strategies produce identical
rows for identical inputs), and client-side state carries over naturally:
the segments share one :class:`~repro.core.execution.context.RemoteExecutionContext`,
so the client runtime's result cache keeps answering duplicate arguments
across segments — and across a switch — without re-invoking the UDF.

Because every segment applies the pushable predicate (at the client under
the client-site join, on the server under naive/semi-join), the operator's
output is always the *filtered* relation; its output schema and rows are
identical to a committed client-site join with the same predicate and
projection, whatever sequence of strategies actually ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.adaptive.reoptimizer import (
    MigrationObservation,
    PlanShape,
    PredicateSpec,
    ReOptimizer,
    assign_predicates_to_stages,
)
from repro.adaptive.store import canonical_predicate_key
from repro.adaptive.switcher import SegmentObservation, StrategySwitcher, SwitchPolicy
from repro.client.udf import UdfDefinition
from repro.core.execution.base import RemoteUdfOperator
from repro.core.execution.clientjoin import ClientSiteJoinOperator
from repro.core.execution.context import RemoteExecutionContext
from repro.core.strategies import StrategyConfig
from repro.relational.expressions import Expression, conjoin
from repro.relational.operators.base import CollectingOperator, Operator
from repro.relational.tuples import RowBatch, concat_batches


class AdaptiveStrategyOperator(ClientSiteJoinOperator):
    """Runs a client-site UDF in segments, switching strategies mid-query.

    Construction mirrors :class:`ClientSiteJoinOperator` (the operator owns
    the pushable predicate and projection whatever strategy executes them);
    ``config.strategy`` is the *initial* strategy and ``config.switch_policy``
    parameterises the switcher.  After execution, :attr:`switcher` holds the
    full decision trace and :attr:`segments` the ``(strategy, rows)`` slices
    that actually ran.
    """

    def __init__(
        self,
        child: Operator,
        udf: UdfDefinition,
        argument_columns: Sequence[str],
        context: RemoteExecutionContext,
        config: Optional[StrategyConfig] = None,
        pushable_predicate: Optional[Expression] = None,
        output_columns: Optional[Sequence[str]] = None,
        result_column_name: Optional[str] = None,
    ) -> None:
        super().__init__(
            child,
            udf,
            argument_columns,
            context,
            config=config,
            pushable_predicate=pushable_predicate,
            output_columns=output_columns,
            result_column_name=result_column_name,
        )
        policy = self.config.switch_policy
        self.policy = policy if policy is not None else SwitchPolicy()
        # A statistics store attached to the config supplies the measured
        # prior for this (UDF, predicate): a repeat query starts from what
        # an earlier run observed instead of the declared value, and does
        # not re-earn the evidence floor before its first switch.
        prior = None
        if self.config.statistics is not None and pushable_predicate is not None:
            prior = self.config.statistics.selectivity_prior(
                udf.name, str(pushable_predicate)
            )
        self.switcher = StrategySwitcher(
            policy=self.policy,
            initial_strategy=self.config.strategy,
            declared_selectivity=udf.selectivity,
            prior_selectivity=prior,
        )
        #: ``(strategy, input_rows)`` per executed segment, in order.
        self.segments: List[Tuple[object, int]] = []
        #: The ``{arguments: result}`` cache every segment shares, so a later
        #: segment never re-ships arguments an earlier one already resolved
        #: (wire-row counts match an unsegmented run).
        self._semi_join_state: Dict[Tuple[Any, ...], Any] = {}

    # -- execution ---------------------------------------------------------------------

    def _execute_batches(self, batch_size):
        from repro.core.execution.rewrite import build_operator

        batch = concat_batches(
            list(self.child().execute_batches(batch_size)),
            column_count=len(self.child_schema),
        )
        self.input_row_count = len(batch)
        self._precompute_suffixes(batch)
        self.distinct_argument_count = self._suffix_distinct[0] if len(batch) else 0

        outputs: List[RowBatch] = []
        position = 0
        index = 0
        total = len(batch)
        while position < total:
            strategy = self.switcher.current_strategy
            segment = batch.slice(
                position, position + self.switcher.next_segment_rows(index)
            )
            position += len(segment)

            # One plain (non-switching) strategy operator per segment, over
            # the materialised slice, sharing this operator's context — and
            # therefore its simulator clock, link stats, adaptive batch
            # controller, and client result cache.
            segment_config = (
                self.config.with_strategy(strategy)
                .with_switch_policy(None)
                .with_reoptimizer(None)
            )
            operator = build_operator(
                child=CollectingOperator(self.child_schema, segment),
                udf=self.udf,
                argument_columns=self.argument_columns,
                context=self.context,
                config=segment_config,
                pushable_predicate=self.pushable_predicate,
                output_columns=self.output_columns,
                result_column_name=self.result_column.name,
                semi_join_state=self._semi_join_state,
            )
            before = self._snapshot()
            segment_output = concat_batches(
                list(operator.execute_batches(batch_size)),
                column_count=len(self.schema),
            )
            outputs.append(segment_output)
            self.segments.append((strategy, len(segment)))
            self._carry_instrumentation(operator)

            if position < total:
                self.switcher.observe_segment(
                    self._segment_observation(
                        len(segment), len(segment_output), position, before
                    )
                )
            index += 1

        output = concat_batches(outputs, column_count=len(self.schema))
        self.output_row_count = len(output)
        for start in range(0, len(output), batch_size):
            yield output.slice(start, start + batch_size)

    def _precompute_suffixes(self, batch: RowBatch) -> None:
        """Per-suffix aggregates of the input, computed in one backward pass.

        Segment boundaries need the byte shape and duplicate structure of the
        unprocessed tail; precomputing suffix sums keeps each boundary O(1)
        instead of rescanning the tail (which would make long adaptive runs
        quadratic in the input size).  The per-row sizes come off the column
        buffers in bulk (constant-folded for NULL-free typed columns).
        """
        if self._projection_positions is not None:
            child_positions: Tuple[int, ...] = tuple(
                position
                for position in self._projection_positions
                if position < len(self.child_schema)
            )
        else:
            child_positions = tuple(range(len(self.child_schema)))

        count = len(batch)
        record_sizes = batch.row_sizes(self.child_schema)
        argument_sizes = batch.value_sizes(self._argument_positions)
        projected_sizes = batch.value_sizes(child_positions)
        argument_tuples = self.argument_tuples(batch)

        self._suffix_record_bytes = [0.0] * (count + 1)
        self._suffix_argument_bytes = [0.0] * (count + 1)
        self._suffix_projected_bytes = [0.0] * (count + 1)
        self._suffix_distinct = [0] * (count + 1)
        seen: set = set()
        for position in range(count - 1, -1, -1):
            seen.add(argument_tuples[position])
            self._suffix_record_bytes[position] = (
                self._suffix_record_bytes[position + 1] + record_sizes[position]
            )
            self._suffix_argument_bytes[position] = (
                self._suffix_argument_bytes[position + 1] + argument_sizes[position]
            )
            self._suffix_projected_bytes[position] = (
                self._suffix_projected_bytes[position + 1] + projected_sizes[position]
            )
            self._suffix_distinct[position] = len(seen)

    # -- observation plumbing ----------------------------------------------------------

    def _snapshot(self) -> Tuple[float, float, float, float, float, int]:
        """Link and client counters before a segment, for delta measurement."""
        stats = self.context.channel_stats
        client = self.context.client
        return (
            stats.downlink.total_bytes,
            stats.downlink.busy_seconds,
            stats.uplink.total_bytes,
            stats.uplink.busy_seconds,
            client.compute_seconds_of(self.udf.name),
            client.invocations_of(self.udf.name),
        )

    def _segment_observation(
        self,
        processed: int,
        surviving: int,
        position: int,
        before: Tuple[float, float, float, float, float, int],
    ) -> SegmentObservation:
        stats = self.context.channel_stats
        network = self.context.network

        down_bytes = stats.downlink.total_bytes - before[0]
        down_busy = stats.downlink.busy_seconds - before[1]
        up_bytes = stats.uplink.total_bytes - before[2]
        up_busy = stats.uplink.busy_seconds - before[3]
        downlink = self._bandwidth(
            down_bytes, down_busy, network.downlink_bandwidth if network else None
        )
        uplink = self._bandwidth(
            up_bytes, up_busy, network.uplink_bandwidth if network else None
        )

        compute = self.context.client.compute_seconds_of(self.udf.name) - before[4]
        invocations = self.context.client.invocations_of(self.udf.name) - before[5]
        per_call = (
            compute / invocations if invocations > 0 else self.udf.cost_per_call_seconds
        )

        remaining = self.input_row_count - position
        record_bytes = self._suffix_record_bytes[position] / remaining
        argument_bytes = self._suffix_argument_bytes[position] / remaining
        # Distinct tuples of the suffix bound the remaining distinct work (a
        # duplicate of an already-processed argument is free at the client
        # anyway, via the shared result cache).
        distinct_fraction = self._suffix_distinct[position] / remaining
        result_bytes = float(
            self.udf.result_size_bytes if self.udf.result_size_bytes is not None else 8
        )
        returned_row_bytes = self._suffix_projected_bytes[position] / remaining + result_bytes

        configured_window = self.config.next_overlap_window(self.udf.name)
        return SegmentObservation(
            rows_processed=processed,
            rows_surviving=surviving,
            remaining_rows=remaining,
            remaining_record_bytes=record_bytes,
            remaining_argument_bytes=argument_bytes,
            remaining_distinct_fraction=distinct_fraction,
            returned_row_bytes=returned_row_bytes,
            result_bytes=result_bytes,
            udf_seconds_per_call=per_call,
            downlink_bandwidth=downlink,
            uplink_bandwidth=uplink,
            latency=network.latency if network is not None else 0.0,
            batch_size=float(self.next_batch_size()),
            overlap_window=(
                float(configured_window) if configured_window is not None else None
            ),
            has_predicate=self.pushable_predicate is not None,
        )

    @staticmethod
    def _bandwidth(
        delta_bytes: float, delta_busy: float, configured: Optional[float]
    ) -> float:
        """Observed effective bandwidth over a segment, else the configured one."""
        if delta_busy > 1e-9 and delta_bytes > 0:
            return delta_bytes / delta_busy
        if configured is not None:
            return configured
        return 1e9  # no network model at all: transfers are effectively free

    def _carry_instrumentation(self, operator: Operator) -> None:
        """Propagate the inner remote operator's simulation bookkeeping."""
        inner = _find_remote(operator)
        if inner is None:
            return
        factor = getattr(inner, "concurrency_factor_used", None)
        if factor is not None:
            self.concurrency_factor_used = factor
        occupancy = getattr(inner, "peak_pipeline_occupancy", None)
        if occupancy is not None:
            self.peak_pipeline_occupancy = occupancy
        self.peak_in_flight_batches = max(
            self.peak_in_flight_batches, getattr(inner, "peak_in_flight_batches", 0)
        )
        self.send_stall_seconds += getattr(inner, "send_stall_seconds", 0.0)
        window = getattr(inner, "overlap_window_used", None)
        if window is not None:
            self.overlap_window_used = window

    def describe(self) -> str:
        used = "/".join(strategy.value for strategy in self.switcher.strategies_used)
        return (
            f"{type(self).__name__}({self.udf.name} on "
            f"{', '.join(self.argument_columns)}, strategies {used})"
        )


def _find_remote(operator: Operator) -> Optional[RemoteUdfOperator]:
    """The remote UDF operator inside a (possibly Filter/Project-wrapped) tree."""
    if isinstance(operator, RemoteUdfOperator):
        return operator
    for child in operator.children:
        found = _find_remote(child)
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# Plan-shape migration (mid-query re-optimization)
# ---------------------------------------------------------------------------


@dataclass
class MigrationStage:
    """One client-site UDF application owned by a :class:`PlanMigrationOperator`."""

    udf: UdfDefinition
    argument_columns: Tuple[str, ...]
    result_column_name: str
    strategy: "ExecutionStrategy"


@dataclass
class MigrationPredicate:
    """A UDF-referencing predicate the migration operator assigns dynamically.

    ``expression`` is the predicate in rewritten (result column) form over
    the operator's canonical extended schema; ``udf_names`` the lower-cased
    UDFs whose results it references.  Under each plan shape the predicate is
    pushed at the earliest stage where every referenced UDF has been applied
    — which is why observations of it are keyed by the shape-independent
    ``key`` (:func:`~repro.adaptive.store.canonical_predicate_key`).
    """

    expression: Expression
    udf_names: frozenset
    declared_selectivity: float = 1.0

    @property
    def key(self) -> str:
        return canonical_predicate_key(self.expression)

    def spec(self) -> PredicateSpec:
        return PredicateSpec(
            key=self.key,
            udf_names=self.udf_names,
            declared_selectivity=self.declared_selectivity,
        )


class _StageView:
    """Per-(stage, predicate) observation proxy for the runtime observer.

    Duck-types the counters :class:`~repro.adaptive.observer.RuntimeObserver`
    reads off a remote UDF operator, so migrated executions feed the same
    observe → calibrate loop committed executions do.  ``pushable_predicate``
    is the canonical predicate identity string — already the key the
    statistics store files selectivities under.
    """

    def __init__(
        self,
        udf: UdfDefinition,
        input_row_count: int,
        output_row_count: int,
        distinct_argument_count: int,
        pushable_predicate: Optional[str],
    ) -> None:
        self.udf = udf
        self.input_row_count = input_row_count
        self.output_row_count = output_row_count
        self.distinct_argument_count = distinct_argument_count
        self.pushable_predicate = pushable_predicate


class PlanMigrationOperator(Operator):
    """Runs a whole client-site UDF chain in segments, migrating plan shape.

    The generalisation of :class:`AdaptiveStrategyOperator` from "switch one
    UDF's shipping strategy" to "migrate the committed plan shape": each
    segment of the input runs through a freshly built pipeline of plain
    strategy operators in the *current* UDF application order, and at every
    segment boundary the :class:`~repro.adaptive.reoptimizer.ReOptimizer`
    re-enters the optimizer with everything observed so far.  When it
    migrates, the unprocessed tail runs under the new shape — different UDF
    order, different per-UDF strategies, predicates pushed at different
    operators.

    Result equivalence across every migration path holds because

    * segments are *drained*: each segment's pipeline runs to completion
      (all in-flight batches acknowledged) before the boundary, so no row is
      split across shapes;
    * every shape applies the same predicate set (each predicate at the
      earliest stage where its referenced UDF results exist) and extends rows
      with the same result columns, merely in a different column order — the
      operator re-orders every segment's output into one canonical schema
      before merging;
    * client-side state survives migration: all segments share one execution
      context (one client result cache), and each UDF carries one
      ``{arguments: result}`` server cache across segments, so duplicate
      arguments are never re-shipped, whatever shapes ran.
    """

    def __init__(
        self,
        child: Operator,
        stages: Sequence[MigrationStage],
        context: RemoteExecutionContext,
        config: Optional[StrategyConfig] = None,
        predicates: Sequence[MigrationPredicate] = (),
        output_columns: Optional[Sequence[str]] = None,
        reoptimizer: Optional[ReOptimizer] = None,
    ) -> None:
        super().__init__([child])
        if not stages:
            raise ValueError("PlanMigrationOperator needs at least one UDF stage")
        self.context = context
        self.config = config if config is not None else StrategyConfig()
        self.stages = list(stages)
        self.predicates = list(predicates)
        self.reoptimizer = (
            reoptimizer
            if reoptimizer is not None
            else (self.config.reoptimizer or ReOptimizer())
        )

        self.child_schema = child.output_schema()
        self._stage_by_name: Dict[str, MigrationStage] = {
            stage.udf.name.lower(): stage for stage in self.stages
        }
        #: Canonical column order: child columns, then result columns in the
        #: *declared* stage order.  Every segment's output is re-ordered into
        #: this shape before merging, whatever order its pipeline ran in.
        self._declared_order: Tuple[str, ...] = tuple(
            stage.udf.name.lower() for stage in self.stages
        )
        from repro.relational.schema import Column

        extended = self.child_schema
        for stage in self.stages:
            extended = extended.append(Column(stage.result_column_name, stage.udf.result_dtype))
        self.extended_schema = extended
        self.output_columns = list(output_columns) if output_columns is not None else None
        if self.output_columns is not None:
            self._projection_positions: Optional[Tuple[int, ...]] = tuple(
                self.extended_schema.index_of(name) for name in self.output_columns
            )
            self.schema = self.extended_schema.select_positions(self._projection_positions)
        else:
            self._projection_positions = None
            self.schema = self.extended_schema

        initial_shape = PlanShape.of(
            [stage.udf.name for stage in self.stages],
            {stage.udf.name: stage.strategy for stage in self.stages},
        )
        self.reoptimizer.bind(
            initial_shape, [predicate.spec() for predicate in self.predicates]
        )

        # Instrumentation the executor and observer read.
        self.input_row_count = 0
        self.output_row_count = 0
        self.peak_in_flight_batches = 0
        self.send_stall_seconds = 0.0
        self.overlap_window_used: Optional[int] = None
        #: ``(shape, input_rows)`` per executed segment, in order.
        self.segments: List[Tuple[PlanShape, int]] = []
        # Cumulative per-canonical-predicate (survived, processed) counts and
        # per-UDF unit row counts, across all segments and shapes.
        self._predicate_counts: Dict[str, Tuple[int, int]] = {}
        self._udf_unit_counts: Dict[str, Tuple[int, int, int]] = {}
        # One carried semi-join / naive ``{arguments: result}`` cache per UDF.
        self._states: Dict[str, Dict[Tuple[Any, ...], Any]] = {
            name: {} for name in self._declared_order
        }

    # -- execution ---------------------------------------------------------------------

    def _execute_batches(self, batch_size):
        batch = concat_batches(
            list(self.child().execute_batches(batch_size)),
            column_count=len(self.child_schema),
        )
        self.input_row_count = len(batch)
        self._precompute_suffixes(batch)

        policy = self.reoptimizer.policy
        outputs: List[RowBatch] = []
        position = 0
        index = 0
        total = len(batch)
        while position < total:
            shape = self.reoptimizer.current_shape
            # Once the controller settles — re-plan budget spent, or enough
            # consecutive boundaries confirmed the incumbent shape — no
            # boundary can change the plan any more: segment boundaries
            # would be pure overhead (extra messages, pipeline fills), so
            # the whole tail drains as one final segment.
            exhausted = self.reoptimizer.settled
            take = total - position if exhausted else policy.next_segment_rows(index)
            segment = batch.slice(position, position + take)
            position += len(segment)

            units, stage_keys = self._build_pipeline(shape, segment)
            segment_output = concat_batches(
                list(units[-1].execute_batches(batch_size)),
                column_count=len(self.schema),
            )
            self._account_segment(shape, units, stage_keys, len(segment))
            if self.output_columns is None:
                # Without a pushable projection each shape extends rows with
                # the same result columns in its own order; re-order into the
                # canonical schema before merging.  (With one, the pipeline's
                # last stage already projects to the final output shape,
                # identically under every plan shape.)
                segment_output = self._canonicalise(shape, segment_output)
            outputs.append(segment_output)
            self.segments.append((shape, len(segment)))

            if position < total and not exhausted:
                self.reoptimizer.consider(self._observation(position))
            index += 1

        output = concat_batches(outputs, column_count=len(self.schema))
        self.output_row_count = len(output)
        for start in range(0, len(output), batch_size):
            yield output.slice(start, start + batch_size)

    def _build_pipeline(
        self, shape: PlanShape, segment: RowBatch
    ) -> Tuple[List[Operator], List[Optional[str]]]:
        """The per-segment operator chain under ``shape``.

        Returns the stage units (one per UDF, possibly Filter-wrapped by
        ``build_operator``) and, per stage, the canonical key of the
        predicate conjunction pushed there (None when the stage filters
        nothing).
        """
        from repro.core.execution.rewrite import build_operator

        operator: Operator = CollectingOperator(self.child_schema, segment)
        units: List[Operator] = []
        stage_keys: List[Optional[str]] = []
        assignment = assign_predicates_to_stages(shape.udf_order, self.predicates)
        stage_projections = self._stage_projections(shape, assignment)
        for name, indexes, projection in zip(shape.udf_order, assignment, stage_projections):
            stage = self._stage_by_name[name]
            conjunction = conjoin([self.predicates[i].expression for i in indexes])
            stage_config = (
                self.config.with_strategy(shape.strategy_of(name))
                .with_switch_policy(None)
                .with_reoptimizer(None)
            )
            operator = build_operator(
                child=operator,
                udf=stage.udf,
                argument_columns=list(stage.argument_columns),
                context=self.context,
                config=stage_config,
                pushable_predicate=conjunction,
                output_columns=projection,
                result_column_name=stage.result_column_name,
                semi_join_state=self._states[name],
            )
            units.append(operator)
            stage_keys.append(
                canonical_predicate_key(conjunction) if conjunction is not None else None
            )
        return units, stage_keys

    def _stage_projections(
        self, shape: PlanShape, assignment: List[List[int]]
    ) -> List[Optional[List[str]]]:
        """Per-stage pushable projections under ``shape``.

        Without an operator-level projection every stage keeps every column
        (``None`` throughout — the legacy behaviour).  With one, each
        mid-chain stage keeps only the columns still needed *downstream* —
        the final output columns, argument columns of later stages, and
        columns of predicates assigned to later stages — and the last stage
        projects to the final output columns themselves.  Client-site join
        stages push the pruned projection to the client, so mid-chain CSJ
        uplinks stop carrying columns nothing later reads; the last stage's
        projection is shape-independent, which is what keeps every migration
        path's output identical.
        """
        order = shape.udf_order
        if self.output_columns is None:
            return [None] * len(order)

        def bare(name: str) -> str:
            return name.partition(".")[2] if "." in name else name

        # needed_after[i]: names needed by anything after stage i.
        running = set(self.output_columns) | {bare(name) for name in self.output_columns}
        needed_after: List[set] = [set()] * len(order)
        for position in range(len(order) - 1, -1, -1):
            needed_after[position] = set(running)
            stage = self._stage_by_name[order[position]]
            for column in stage.argument_columns:
                running.add(column)
                running.add(bare(column))
            for index in assignment[position]:
                for column in self.predicates[index].expression.columns():
                    running.add(column)
                    running.add(bare(column))

        projections: List[Optional[List[str]]] = []
        current = [column.qualified_name for column in self.child_schema.columns]
        for position, name in enumerate(order):
            current = current + [self._stage_by_name[name].result_column_name]
            if position == len(order) - 1:
                kept = list(self.output_columns)
            else:
                needed = needed_after[position]
                kept = [
                    column
                    for column in current
                    if column in needed or bare(column) in needed
                ]
            projections.append(kept)
            current = kept
        return projections

    def _account_segment(
        self,
        shape: PlanShape,
        units: List[Operator],
        stage_keys: List[Optional[str]],
        segment_rows: int,
    ) -> None:
        rows_in = segment_rows
        for name, unit, key in zip(shape.udf_order, units, stage_keys):
            rows_out = unit.rows_produced
            if key is not None:
                survived, processed = self._predicate_counts.get(key, (0, 0))
                self._predicate_counts[key] = (survived + rows_out, processed + rows_in)
            remote = _find_remote(unit)
            if remote is not None:
                self.peak_in_flight_batches = max(
                    self.peak_in_flight_batches, remote.peak_in_flight_batches
                )
                self.send_stall_seconds += remote.send_stall_seconds
                if remote.overlap_window_used is not None:
                    self.overlap_window_used = remote.overlap_window_used
            distinct = remote.distinct_argument_count if remote is not None else rows_in
            previous = self._udf_unit_counts.get(name, (0, 0, 0))
            self._udf_unit_counts[name] = (
                previous[0] + rows_in,
                previous[1] + rows_out,
                previous[2] + distinct,
            )
            rows_in = rows_out

    def _canonicalise(self, shape: PlanShape, batch: RowBatch) -> RowBatch:
        """Re-order a segment's output columns into the canonical schema."""
        if shape.udf_order == self._declared_order:
            return batch
        child_count = len(self.child_schema)
        positions = list(range(child_count)) + [
            child_count + shape.udf_order.index(name) for name in self._declared_order
        ]
        return batch.project(positions)

    # -- observation plumbing ----------------------------------------------------------

    def _precompute_suffixes(self, batch: RowBatch) -> None:
        """Suffix aggregates of the input (byte shape and per-stage distincts)."""
        count = len(batch)
        self._suffix_record_bytes = [0.0] * (count + 1)
        self._suffix_argument_bytes: Dict[str, List[float]] = {
            name: [0.0] * (count + 1) for name in self._declared_order
        }
        self._suffix_distinct: Dict[str, List[int]] = {
            name: [0] * (count + 1) for name in self._declared_order
        }
        stage_positions = {
            name: tuple(
                self.child_schema.index_of(column)
                for column in self._stage_by_name[name].argument_columns
            )
            for name in self._declared_order
        }
        record_sizes = batch.row_sizes(self.child_schema)
        stage_sizes = {
            name: batch.value_sizes(stage_positions[name])
            for name in self._declared_order
        }
        stage_tuples = {
            name: batch.key_tuples(stage_positions[name])
            for name in self._declared_order
        }
        seen: Dict[str, set] = {name: set() for name in self._declared_order}
        for position in range(count - 1, -1, -1):
            self._suffix_record_bytes[position] = (
                self._suffix_record_bytes[position + 1] + record_sizes[position]
            )
            for name in self._declared_order:
                seen[name].add(stage_tuples[name][position])
                self._suffix_argument_bytes[name][position] = (
                    self._suffix_argument_bytes[name][position + 1]
                    + stage_sizes[name][position]
                )
                self._suffix_distinct[name][position] = len(seen[name])

    def _observation(self, position: int) -> MigrationObservation:
        stats = self.context.channel_stats
        network = self.context.network
        client = self.context.client
        remaining = self.input_row_count - position

        downlink = AdaptiveStrategyOperator._bandwidth(
            stats.downlink.total_bytes,
            stats.downlink.busy_seconds,
            network.downlink_bandwidth if network else None,
        )
        uplink = AdaptiveStrategyOperator._bandwidth(
            stats.uplink.total_bytes,
            stats.uplink.busy_seconds,
            network.uplink_bandwidth if network else None,
        )

        seconds_per_call: Dict[str, float] = {}
        argument_bytes: Dict[str, float] = {}
        result_bytes: Dict[str, float] = {}
        distinct_fraction: Dict[str, float] = {}
        for name in self._declared_order:
            stage = self._stage_by_name[name]
            invocations = client.invocations_of(stage.udf.name)
            seconds_per_call[name] = (
                client.compute_seconds_of(stage.udf.name) / invocations
                if invocations > 0
                else stage.udf.cost_per_call_seconds
            )
            argument_bytes[name] = self._suffix_argument_bytes[name][position] / remaining
            result_bytes[name] = float(
                stage.udf.result_size_bytes
                if stage.udf.result_size_bytes is not None
                else 8
            )
            distinct_fraction[name] = self._suffix_distinct[name][position] / remaining

        return MigrationObservation(
            rows_processed=position,
            remaining_rows=remaining,
            remaining_record_bytes=self._suffix_record_bytes[position] / remaining,
            predicate_counts=dict(self._predicate_counts),
            stage_argument_bytes=argument_bytes,
            stage_result_bytes=result_bytes,
            stage_distinct_fraction=distinct_fraction,
            stage_seconds_per_call=seconds_per_call,
            downlink_bandwidth=downlink,
            uplink_bandwidth=uplink,
            latency=network.latency if network is not None else 0.0,
            batch_size=float(self.config.next_batch_size()),
        )

    # -- observer integration ----------------------------------------------------------

    @property
    def stage_views(self) -> List[_StageView]:
        """Per-stage observation proxies for the runtime observer."""
        views: List[_StageView] = []
        final_shape = self.reoptimizer.current_shape
        assignment = assign_predicates_to_stages(final_shape.udf_order, self.predicates)
        for name, indexes in zip(final_shape.udf_order, assignment):
            stage = self._stage_by_name[name]
            keys = [self.predicates[i].key for i in indexes]
            rows_in, rows_out, distinct = self._udf_unit_counts.get(name, (0, 0, 0))
            predicate_key: Optional[str] = None
            if len(keys) == 1:
                predicate_key = keys[0]
            elif keys:
                predicate_key = canonical_predicate_key(
                    "(" + " AND ".join(sorted(keys)) + ")"
                )
            if predicate_key:
                survived, processed = self._predicate_counts.get(
                    predicate_key, (rows_out, rows_in)
                )
                rows_in, rows_out = processed, survived
            views.append(
                _StageView(
                    udf=stage.udf,
                    input_row_count=rows_in,
                    output_row_count=rows_out,
                    distinct_argument_count=min(distinct, rows_in) if rows_in else distinct,
                    pushable_predicate=predicate_key,
                )
            )
        return views

    def describe(self) -> str:
        shapes = self.reoptimizer.shapes_used
        described = " => ".join(shape.describe() for shape in shapes) or "unbound"
        return f"{type(self).__name__}({described})"
