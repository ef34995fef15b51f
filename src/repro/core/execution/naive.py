"""Naive execution of a client-site UDF (Section 2.1), on the overlapped wire.

This is the paper's strawman: treating the client-site UDF like an expensive
server-site UDF that happens to make a remote call.  The server ships a batch
of argument tuples (``StrategyConfig.batch_size``; the paper's setup is a
batch of one) and needs the client's reply before the corresponding rows can
proceed.  Shipping runs through the shared overlapped request/response loop
(:mod:`repro.core.execution.overlap`): with the default in-flight window of 1
the wire behaviour is the paper's — one synchronous round trip per batch, the
full network latency paid every time, the pipeline never more than one batch
deep.  A wider window (``StrategyConfig.overlap_window``, or the adaptive
:class:`~repro.adaptive.controller.OverlapWindowController`) keeps up to W
batches outstanding, overlapping client computation with network transfer
exactly as the Figure 6 concurrency analysis prescribes — the wire carries
the same messages and bytes, just without the per-batch stalls.

The only optimisation kept from the server-site world is [HN97]-style result
caching of duplicate argument tuples on the server, controlled by
``StrategyConfig.server_result_cache``.  Duplicate decisions are made at
*enqueue* time against everything already sent or in flight, so the wire
trace is identical whatever the window is.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.execution.base import RemoteUdfOperator
from repro.relational.tuples import RowBatch


class NaiveUdfOperator(RemoteUdfOperator):
    """One client round trip per batch of input tuples, up to W in flight.

    ``carry_state`` (the ``{arguments: result}`` dict the segments of one
    adaptive execution share) seeds the server result cache, so a later
    segment does not re-ship arguments an earlier segment already resolved.
    """

    def __init__(self, *args, carry_state=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.carry_state = carry_state

    def _drive(self, batch: RowBatch):
        cache: Optional[Dict[Tuple[Any, ...], Any]] = None
        if self.config.server_result_cache:
            cache = self.carry_state if self.carry_state is not None else {}
        arguments_list = self.argument_tuples(batch)
        sizer = self.argument_sizer(batch)
        # How each input row resolves, in input order (see ``resolve``).
        resolution: List[Tuple[Tuple[Any, ...], Optional[int], int]] = []

        def requests():
            pending: List[Tuple[Any, ...]] = []
            # Arguments already sent (or pending) resolve to the batch that
            # carries them; like the cache, only consulted when caching is on.
            shipped: Dict[Tuple[Any, ...], Tuple[int, int]] = {}
            sent = 0
            # Input rows the next reply acknowledges: cache-resolved rows
            # between flushes count toward the batch that follows them.
            covered = 0
            for arguments in arguments_list:
                covered += 1
                if cache is not None:
                    if arguments in cache:
                        resolution.append((arguments, None, 0))
                        continue
                    slot = shipped.get(arguments)
                    if slot is not None:
                        resolution.append((arguments,) + slot)
                        continue
                    shipped[arguments] = (sent, len(pending))
                resolution.append((arguments, sent, len(pending)))
                pending.append(arguments)
                # Re-read the target each time: an adaptive controller may
                # have moved the batch size since the last send.
                if len(pending) >= self.next_batch_size():
                    yield self.argument_message(pending, sizer, "naive"), covered
                    sent += 1
                    covered = 0
                    pending = []
            if pending:
                yield self.argument_message(pending, sizer, "naive"), covered

        # The naive strategy's historical wire behaviour is synchronous:
        # window 1 unless the config (or its controller) says otherwise.
        replies = yield from self.ship(requests(), default_window=1)
        self.distinct_argument_count = len(set(arguments_list))
        return self.extended_batch(batch, self.resolve(resolution, replies, cache))
