"""Simulation resources: unbounded FIFO mailboxes.

A :class:`Store` is the mailbox at each end of a channel (and the default
destination of a bare link): messages are delivered into it and the
receiving process takes them out in arrival order.  ``put`` never blocks;
``get`` blocks while the store is empty.  Flow control lives elsewhere — in
the shipping protocol's :class:`~repro.core.execution.overlap.InFlightWindow`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.network.events import Event


class Store:
    """An unbounded FIFO mailbox usable from simulation processes."""

    def __init__(self, simulator: "Simulator", name: str = "") -> None:  # noqa: F821
        self.simulator = simulator
        self.name = name or "Store"
        self._items: Deque[Any] = deque()
        self._get_waiters: Deque[Event] = deque()
        self.total_puts = 0
        self.total_gets = 0

    # -- operations -----------------------------------------------------------------

    def put(self, item: Any) -> Event:
        """Deposit ``item``; returns an event that fires once it is in the store."""
        event = Event(self.simulator, name=f"{self.name}.put")
        self._items.append(item)
        self.total_puts += 1
        event.succeed()
        self._dispatch()
        return event

    def get(self) -> Event:
        """Return an event that fires with the next item once one is available."""
        event = Event(self.simulator, name=f"{self.name}.get")
        self._get_waiters.append(event)
        self._dispatch()
        return event

    # -- introspection ----------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        return len(self._get_waiters)

    # -- internal ------------------------------------------------------------------------

    def _dispatch(self) -> None:
        """Hand buffered items to waiting getters, oldest first."""
        while self._get_waiters and self._items:
            self.total_gets += 1
            self._get_waiters.popleft().succeed(self._items.popleft())

    def __repr__(self) -> str:
        return f"Store({self.name!r}, occupancy={len(self._items)})"
