"""Semi-join execution of a client-site UDF (Sections 2.3.1 and 3.1.1).

Architecture (paper Figure 3): the server's sender and receiver run
concurrently through the shared shipping loop
(:meth:`~repro.core.execution.base.RemoteUdfOperator.ship`).

* The sender walks the input (optionally sorted and grouped on the argument
  columns), eliminates argument duplicates, and ships only the argument
  columns of new argument tuples on the downlink, in batches.
* The client evaluates the UDF on each received argument tuple and ships the
  bare results back on the uplink, one result batch per argument batch.
* Each input row maps to a slot in one reply — the batch that carries its
  arguments and the offset there — or, for an argument shipped by an earlier
  plan segment, to the carried result cache.  Once every reply is in, the
  results are joined back onto the (possibly argument-sorted) input.

The paper's pipeline concurrency factor F bounds the argument rows awaiting
results: a second :class:`~repro.core.execution.overlap.InFlightWindow`,
counted in rows, admits a new argument tuple only while fewer than F rows —
including the ones pending in the unsent batch — are unanswered, and each
reply frees its batch's rows.  A factor of 1 degenerates to tuple-at-a-time
execution, exactly as in the paper.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.concurrency import recommended_batched_concurrency_factor
from repro.core.execution.base import RemoteUdfOperator
from repro.core.execution.overlap import InFlightWindow
from repro.relational.tuples import Row, RowBatch


class SemiJoinUdfOperator(RemoteUdfOperator):
    """Pipelined semi-join between the input relation and the virtual UDF table.

    ``carry_state`` (the ``{arguments: result}`` dict the segments of one
    adaptive execution share) plugs in externally owned duplicate-elimination
    state, so segmented executions do not re-ship arguments an earlier
    segment already resolved; ``None`` keeps the operator self-contained.
    """

    def __init__(
        self, *args, carry_state: Optional[Dict[Tuple[Any, ...], Any]] = None, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        self.carry_state = carry_state

    def effective_concurrency_factor(self, sample_row: Optional[Row] = None) -> int:
        """The configured pipeline concurrency factor, or the analytic B·T choice.

        The analysis is batch-aware: with ``batch_size`` rows per message the
        per-tuple overhead share shrinks (raising throughput) but a tuple's
        traversal time includes its whole batch's serialisation, so the
        window must span at least two batches to keep the bottleneck busy.
        """
        if self.config.concurrency_factor is not None:
            return self.config.concurrency_factor
        if self.context.network is None or sample_row is None:
            return max(8, 2 * self.config.batch_size)  # safe default without a network
        arguments = self.argument_tuple(sample_row)
        request_bytes = self.argument_bytes(arguments)
        response_bytes = (
            self.udf.result_size_bytes
            if self.udf.result_size_bytes is not None
            else max(8, request_bytes)
        )
        return recommended_batched_concurrency_factor(
            self.context.network,
            request_payload_bytes=request_bytes,
            response_payload_bytes=response_bytes,
            client_seconds_per_tuple=self.udf.cost_per_call_seconds,
            batch_size=self.config.batch_size,
        )

    def _drive(self, batch: RowBatch):
        if self.config.sort_by_arguments:
            batch, arguments_list = self.sorted_batch_by_arguments(batch)
        else:
            arguments_list = self.argument_tuples(batch)
        sizer = self.argument_sizer(batch)

        factor = self.effective_concurrency_factor(batch[0] if len(batch) else None)
        # A batch only leaves the sender once it is full, so the row window
        # must admit at least one whole batch or the sender would wait for a
        # row while holding an unsent batch (deadlock).  An explicitly pinned
        # concurrency factor is otherwise respected as configured; the
        # analytic path already double-buffers (two batches) on its own.
        # Under adaptive control the window instead *tracks* the controller:
        # it starts double-buffered at the current batch size and grows with
        # it (see the sender), so a run converged at batch 8 is not simulated
        # with the buffering of the controller's maximum.
        adaptive = self.config.controller_for(self.udf.name) is not None
        if adaptive:
            factor = max(factor, 2 * self.next_batch_size())
        else:
            factor = max(factor, self.config.batch_size_for(self.udf.name))
        rows = InFlightWindow(
            self.context.simulator, capacity=factor, name="semijoin.rows"
        )

        cache: Optional[Dict[Tuple[Any, ...], Any]] = None
        if self.config.eliminate_duplicates:
            cache = self.carry_state if self.carry_state is not None else {}
        # How each input row resolves, in input order (see ``resolve``).
        resolution: List[Tuple[Tuple[Any, ...], Optional[int], int]] = []

        def requests():
            pending: List[Tuple[Any, ...]] = []
            shipped: Dict[Tuple[Any, ...], Tuple[int, int]] = {}
            sent = 0
            for arguments in arguments_list:
                if cache is not None:
                    if arguments in cache:
                        resolution.append((arguments, None, 0))
                        continue
                    slot = shipped.get(arguments)
                    if slot is not None:
                        resolution.append((arguments,) + slot)
                        continue
                    shipped[arguments] = (sent, len(pending))
                # Read the target before admitting the row: an adaptive
                # controller may have changed it since the last flush, and
                # the row window must stay double-buffered at the current
                # target before the row waits, or a grown batch could wait
                # for a row while holding an unsent batch (deadlock).
                target = self.next_batch_size()
                if adaptive and 2 * target > rows.capacity:
                    rows.resize(2 * target)
                if not rows.try_acquire():
                    yield rows.acquire()
                resolution.append((arguments, sent, len(pending)))
                pending.append(arguments)
                if len(pending) >= target:
                    yield self.argument_message(pending, sizer, "semijoin"), len(pending)
                    sent += 1
                    pending = []
            if pending:
                yield self.argument_message(pending, sizer, "semijoin"), len(pending)

        # Historically the semi-join sender streams any batch the row window
        # admits, so the batch window defaults to unbounded; an explicit
        # overlap_window (or its controller) bounds the argument batches
        # outstanding on the wire directly.
        replies = yield from self.ship(requests(), rows=rows)
        self.peak_pipeline_occupancy = rows.peak_in_flight
        # The window may have grown with the controller; report what it ended at.
        self.concurrency_factor_used = int(rows.capacity)
        self.distinct_argument_count = len(set(arguments_list))
        # Results come back in the (possibly argument-sorted) input order, so
        # the output is the input batch plus one column.
        return self.extended_batch(batch, self.resolve(resolution, replies, cache))
