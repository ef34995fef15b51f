"""The shared overlapped request/response shipping protocol.

Every execution strategy ships its downlink payload as a stream of request
batches and consumes a stream of replies, through one sender/receiver loop
(:meth:`~repro.core.execution.base.RemoteUdfOperator.ship`) built on one
primitive: the :class:`InFlightWindow`, a counting semaphore over simulated
time.

The loop's *batch window* bounds the request batches outstanding on the
wire.  The sender acquires a slot before each request message leaves the
server and the receiver releases a slot per reply it consumes, so up to
``capacity`` batches overlap — the server keeps producing (and the links
keep transferring) while earlier batches are still at the client:

* a window of 1 is synchronous shipping — one request on the wire at a time,
  the paper's naive strategy;
* an unbounded window is free streaming — the semi-join's and client-site
  join's historical behaviour, where the sender runs ahead as fast as the
  downlink drains;
* anything between bounds the overlap, which is what mid-query adaptation
  (:class:`~repro.adaptive.controller.OverlapWindowController`) tunes.

The semi-join additionally bounds the argument rows awaiting results by the
paper's concurrency factor F (Figure 3 / Section 3.1.2) with a second window
counted in *rows*: the sender acquires one row per shipped argument tuple,
weighted releases free a whole reply's rows at once, and
:meth:`InFlightWindow.try_acquire` admits without a simulator event while
there is room, so the sender only yields when it really waits.

The window is also the protocol's instrumentation point: it records the peak
it actually reached and the simulated time the sender spent stalled waiting
for a slot, which the executor surfaces on
:class:`~repro.server.metrics.ExecutionMetrics`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional, Tuple

from repro.errors import SimulationError
from repro.network.events import Event


class InFlightWindow:
    """Bounds the request batches (or argument rows) outstanding on the wire.

    A weighted counting semaphore over simulated time: :meth:`acquire`
    returns an event that fires once ``n`` more units fit (immediately while
    ``in_flight + n <= capacity``), :meth:`release` frees units.  Waiters are
    admitted in FIFO order.  ``capacity`` may be ``math.inf`` for free
    streaming and may be *resized* mid-run by an adaptive controller —
    shrinking takes effect as in-flight units drain, so nothing already on
    the wire is disturbed.
    """

    def __init__(
        self,
        simulator: "Simulator",  # noqa: F821
        capacity: float = math.inf,
        name: str = "overlap.window",
    ) -> None:
        if capacity < 1:
            raise SimulationError("InFlightWindow capacity must be at least 1")
        self.simulator = simulator
        self.capacity = capacity
        self.name = name
        self.in_flight = 0
        self._waiters: Deque[Tuple[Event, float, int]] = deque()
        # Instrumentation: the overlap the run actually reached, and the time
        # the sender spent blocked on a full window.
        self.peak_in_flight = 0
        self.stall_seconds = 0.0

    # -- operations -------------------------------------------------------------

    def acquire(self, n: int = 1) -> Event:
        """An event that fires once ``n`` more units may leave the server."""
        event = Event(self.simulator, name=f"{self.name}.acquire")
        self._waiters.append((event, self.simulator.now, n))
        self._dispatch()
        return event

    def try_acquire(self, n: int = 1) -> bool:
        """Take ``n`` units now if they fit behind no waiter; no event either way."""
        if self._waiters or self.in_flight + n > self.capacity:
            return False
        self._admit(n)
        return True

    def release(self, n: int = 1) -> None:
        """Mark ``n`` in-flight units as answered, waking blocked senders."""
        self.in_flight = max(0, self.in_flight - n)
        self._dispatch()

    def resize(self, capacity: float) -> None:
        """Change the window size mid-run (never below 1).

        Growing admits blocked senders immediately; shrinking simply stops
        admitting new units until the in-flight count drains below the new
        capacity.
        """
        self.capacity = max(1, capacity)
        self._dispatch()

    # -- introspection ----------------------------------------------------------

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.capacity)

    @property
    def capacity_or_none(self) -> Optional[int]:
        """The capacity as an int, or ``None`` when unbounded."""
        return int(self.capacity) if self.bounded else None

    # -- internal ---------------------------------------------------------------

    def _admit(self, n: int) -> None:
        self.in_flight += n
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight

    def _dispatch(self) -> None:
        while self._waiters and self.in_flight + self._waiters[0][2] <= self.capacity:
            event, enqueued_at, n = self._waiters.popleft()
            self._admit(n)
            self.stall_seconds += self.simulator.now - enqueued_at
            event.succeed()

    def __repr__(self) -> str:
        capacity = f"{self.capacity:g}" if self.bounded else "inf"
        return (
            f"InFlightWindow({self.name!r}, in_flight={self.in_flight}, "
            f"capacity={capacity}, peak={self.peak_in_flight})"
        )
