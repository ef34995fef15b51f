"""Common machinery for the remote UDF execution operators."""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.client.protocol import ArgumentBatch, RemoteCall
from repro.client.udf import UdfDefinition
from repro.core.execution.context import RemoteExecutionContext
from repro.core.execution.overlap import InFlightWindow
from repro.core.strategies import StrategyConfig
from repro.network.events import Event
from repro.network.message import (
    Message,
    MessageKind,
    batch_message,
    end_of_stream,
    is_end_of_stream,
)
from repro.relational.columns import TypedColumn, build_typed_column
from repro.relational.operators.base import Operator
from repro.relational.operators.sort import _NullsFirstKey
from repro.relational.schema import Column, Schema
from repro.relational.tuples import (
    Row,
    RowBatch,
    concat_batches,
    row_size,
    rows_size,
    values_size,
)


class RemoteUdfOperator(Operator):
    """Base class for operators that apply a client-site UDF to their input.

    The child's batches are materialised into one columnar input batch, the
    strategy-specific coordination coroutine (``_drive``) is run on the
    shared simulator via the execution context, and the resulting batch is
    re-chunked to the parent.  The output schema is the child schema
    extended with one result column named after the UDF (``<name>_result``),
    unless a subclass projects it differently.
    """

    def __init__(
        self,
        child: Operator,
        udf: UdfDefinition,
        argument_columns: Sequence[str],
        context: RemoteExecutionContext,
        config: Optional[StrategyConfig] = None,
        result_column_name: Optional[str] = None,
    ) -> None:
        super().__init__([child])
        if not argument_columns:
            raise ExecutionError(f"UDF {udf.name!r} needs at least one argument column")
        self.udf = udf
        self.argument_columns = list(argument_columns)
        self.context = context
        self.config = config if config is not None else StrategyConfig()

        self.child_schema = child.output_schema()
        self._argument_positions: Tuple[int, ...] = tuple(
            self.child_schema.index_of(name) for name in self.argument_columns
        )
        self.result_column = Column(
            result_column_name or udf.result_column_name, udf.result_dtype
        )
        #: Child schema plus the UDF result column; the client sees this shape
        #: when predicates/projections are pushed to it.
        self.extended_schema: Schema = self.child_schema.append(self.result_column)
        self.schema = self.extended_schema

        # Instrumentation filled in by _drive implementations.
        self.input_row_count = 0
        self.output_row_count = 0
        self.distinct_argument_count = 0
        # Overlap instrumentation (the shared shipping protocol's window).
        self.peak_in_flight_batches = 0
        self.send_stall_seconds = 0.0
        self.overlap_window_used: Optional[int] = None

    # -- operator protocol ------------------------------------------------------------

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        batch = concat_batches(
            list(self.child().execute_batches(batch_size)),
            column_count=len(self.child_schema),
        )
        self.input_row_count = len(batch)
        controller = self.config.controller_for(self.udf.name)
        if controller is not None:
            # Start the controller's inter-arrival clock at this operator's
            # first simulated instant, so idle time between remote operators
            # is not charged to the first batch.
            controller.begin_operation(self.context.simulator.now)
        output: RowBatch = self.context.run_remote(
            self._drive(batch), name=self.describe()
        )
        self.output_row_count = len(output)
        for start in range(0, len(output), batch_size):
            yield output.slice(start, start + batch_size)

    def _drive(self, batch: RowBatch):
        """Strategy-specific coordination coroutine (a simulation process)."""
        raise NotImplementedError

    # -- adaptive batch sizing ---------------------------------------------------------

    def next_batch_size(self) -> int:
        """Rows the next network message should carry (adaptive-aware)."""
        return self.config.next_batch_size(self.udf.name)

    def observe_batch(self, rows: int) -> None:
        """Report ``rows`` acknowledged input rows to this UDF's controllers.

        Both adaptive knobs — the batch size and the in-flight window — feed
        on the same rows/second signal; each hill-climbs its own ladder.
        """
        now = self.context.simulator.now
        controller = self.config.controller_for(self.udf.name)
        if controller is not None:
            controller.observe_rows(rows, now)
        window_controller = self.config.overlap_controller_for(self.udf.name)
        if window_controller is not None:
            window_controller.observe_rows(rows, now)

    # -- overlapped shipping -----------------------------------------------------------

    def ship(
        self,
        requests: Iterator[Any],
        default_window: Optional[int] = None,
        rows: Optional[InFlightWindow] = None,
    ):
        """The one sender/receiver loop every strategy ships through.

        A coroutine for ``_drive`` to ``yield from``; it returns the reply
        payloads in request order.  The sender pulls ``requests`` lazily, the
        next item only once the previous batch is on the wire, so adaptive
        targets are re-read at the same simulated instants as the batches
        leave.  An item is either an :class:`~repro.network.events.Event`
        the sender waits on (the strategy's own flow control) or a
        ``(message, acknowledged_rows)`` request: the sender acquires a slot
        of the in-flight batch window, ships the message and queues the row
        count.  The receiver reads replies until end-of-stream; per reply it
        checks for a client failure, frees the window slot, keeps the payload
        and reports the queued rows to the controllers — and, with a ``rows``
        window, frees those rows too.

        ``default_window`` is the strategy's historical batch window when
        neither an explicit ``overlap_window`` nor a controller is
        configured: 1 for synchronous shipping (naive), ``None`` for free
        streaming (semi-join, client-site join).
        """
        simulator = self.context.simulator
        channel = self.context.channel
        target = self.config.next_overlap_window(self.udf.name)
        if target is None:
            target = default_window
        window = InFlightWindow(
            simulator,
            capacity=float(target) if target is not None else math.inf,
            name=f"{type(self).__name__}.window",
        )
        acknowledged: Deque[int] = deque()
        payloads: List[Any] = []

        def sender():
            for request in requests:
                if isinstance(request, Event):
                    yield request
                    continue
                message, acknowledged_rows = request
                # Re-read the window target at every batch boundary: an
                # adaptive controller may have moved it since the last send.
                target = self.config.next_overlap_window(self.udf.name)
                if target is not None:
                    window.resize(target)
                yield window.acquire()
                acknowledged.append(acknowledged_rows)
                yield channel.send_to_client(message)
            yield channel.send_to_client(end_of_stream())

        def receiver():
            while True:
                reply = yield channel.receive_at_server()
                if is_end_of_stream(reply):
                    return
                self.check_reply(reply)
                window.release()
                payloads.append(reply.payload)
                acknowledged_rows = acknowledged.popleft()
                self.observe_batch(acknowledged_rows)
                if rows is not None:
                    rows.release(acknowledged_rows)

        label = type(self).__name__
        sender_process = simulator.process(sender(), name=f"{label}.sender")
        receiver_process = simulator.process(receiver(), name=f"{label}.receiver")
        # Wait for the receiver first: a client failure surfaces there even
        # while the sender is still blocked on a window slot.
        yield receiver_process
        yield sender_process
        self.peak_in_flight_batches = max(
            self.peak_in_flight_batches, window.peak_in_flight
        )
        self.send_stall_seconds += window.stall_seconds
        self.overlap_window_used = window.capacity_or_none
        return payloads

    # -- shared helpers ----------------------------------------------------------------

    def argument_tuple(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        """Extract the UDF's argument values from a child row."""
        return tuple(row[position] for position in self._argument_positions)

    def argument_tuples(self, batch: RowBatch) -> List[Tuple[Any, ...]]:
        """All argument tuples of the batch, straight off the column buffers."""
        return batch.key_tuples(self._argument_positions)

    def argument_bytes(self, arguments: Sequence[Any]) -> int:
        return values_size(arguments)

    def argument_sizer(self, batch: RowBatch):
        """A ``tuples -> payload bytes`` sizer specialised to this batch.

        When every argument column is typed and NULL-free, each tuple sizes
        to the same constant (the columns' widths), so a batch payload is
        one multiply; otherwise the sizer sums values exactly like
        :func:`values_size` per tuple.
        """
        if len(batch):
            columns = batch.columns
            widths = []
            for position in self._argument_positions:
                column = columns[position]
                if isinstance(column, TypedColumn) and column.null_count == 0:
                    widths.append(column.width)
                else:
                    widths.append(None)
            if widths and all(width is not None for width in widths):
                tuple_width = sum(widths)
                return lambda tuples: tuple_width * len(tuples)
        return lambda tuples: sum(values_size(arguments) for arguments in tuples)

    def argument_message(
        self, tuples: List[Tuple[Any, ...]], sizer, label: str
    ) -> Message:
        """One downlink batch carrying ``tuples`` as this UDF's arguments."""
        call = RemoteCall(
            udf_name=self.udf.name,
            argument_positions=tuple(range(len(self.argument_columns))),
        )
        return batch_message(
            MessageKind.UDF_ARGUMENTS,
            ArgumentBatch(call=call, argument_tuples=list(tuples)),
            payload_bytes=sizer(tuples),
            row_count=len(tuples),
            description=f"{label} {self.udf.name} x{len(tuples)}",
        )

    @staticmethod
    def resolve(
        resolution: List[Tuple[Tuple[Any, ...], Optional[int], int]],
        replies: List[Any],
        cache: Optional[Dict[Tuple[Any, ...], Any]],
    ) -> List[Any]:
        """One result per input row, assembled from the replies.

        ``resolution`` holds ``(arguments, batch, offset)`` per input row, in
        order: the row's result is at ``offset`` in the reply to request
        ``batch``, or in ``cache`` when ``batch`` is ``None``.  Every result
        is recorded in ``cache`` (when given) for later segments.
        """
        results: List[Any] = []
        for arguments, batch_id, offset in resolution:
            if batch_id is None:
                result = cache[arguments]
            else:
                result = replies[batch_id].results[offset]
                if cache is not None:
                    cache[arguments] = result
            results.append(result)
        return results

    def record_bytes(self, row: Sequence[Any]) -> int:
        return row_size(row, self.child_schema)

    def records_size(self, rows: Sequence[Sequence[Any]]) -> int:
        """Wire size of many child rows, via the schema's cached size plan.

        Accepts a :class:`RowBatch` directly — its typed columns and size
        memo make repeated costing of the same payload O(1).
        """
        return rows_size(rows, self.child_schema)

    def sorted_by_arguments(self, rows: List[Row]) -> List[Row]:
        """Rows ordered (stably) by their argument tuples, grouping duplicates."""
        return sorted(rows, key=lambda row: _NullsFirstKey(self.argument_tuple(row)))

    def sorted_batch_by_arguments(
        self, batch: RowBatch
    ) -> Tuple[RowBatch, List[Tuple[Any, ...]]]:
        """``(batch stably sorted by argument tuples, the sorted tuples)``.

        Column-wise equivalent of :meth:`sorted_by_arguments`; an input
        already in argument order comes back unchanged (identity).
        """
        arguments = self.argument_tuples(batch)
        order = sorted(
            range(len(arguments)), key=lambda index: _NullsFirstKey(arguments[index])
        )
        if all(index == position for position, index in enumerate(order)):
            return batch, arguments
        return batch.take(order), [arguments[index] for index in order]

    def extended_batch(self, batch: RowBatch, results: List[Any]) -> RowBatch:
        """The input batch plus the UDF result column (typed when eligible)."""
        column = build_typed_column(results, self.udf.result_dtype) or results
        return RowBatch.from_columns(list(batch.columns) + [column], len(batch))

    def check_reply(self, message: Message) -> Message:
        """Raise :class:`ExecutionError` when the client reported a failure."""
        if message.kind is MessageKind.ERROR:
            raise ExecutionError(
                f"client-site execution of {self.udf.name!r} failed: {message.payload}"
            ) from (message.payload if isinstance(message.payload, BaseException) else None)
        return message

    def describe(self) -> str:
        return (
            f"{type(self).__name__}({self.udf.name} on "
            f"{', '.join(self.argument_columns)})"
        )
