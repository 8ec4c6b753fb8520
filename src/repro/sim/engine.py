"""A minimal discrete-event engine.

Most of the reproduction uses closed-form stage models and array passes;
this engine provides deterministic time-ordered dispatch for models that
replay ordered events, such as the event-driven reference of the Fig. 13
pipeline timing that the parity tests check :mod:`repro.npu.pipeline`
against.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import SimulationError


@dataclass(order=True)
class Event:
    """A scheduled callback. Ordering: time, then insertion sequence."""

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it."""
        self.cancelled = True


class EventEngine:
    """Deterministic discrete-event loop.

    >>> eng = EventEngine()
    >>> order = []
    >>> _ = eng.at(2.0, lambda: order.append("b"))
    >>> _ = eng.at(1.0, lambda: order.append("a"))
    >>> eng.run()
    >>> order
    ['a', 'b']
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self._dispatched = 0

    def at(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule {label or action!r} at {time} < now ({self.now})"
            )
        event = Event(time=time, seq=next(self._seq), action=action, label=label)
        heapq.heappush(self._queue, event)
        return event

    def after(self, delay: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for {label or action!r}")
        return self.at(self.now + delay, action, label)

    def step(self) -> Optional[Event]:
        """Dispatch the single next pending event; None when queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = event.time
            event.action()
            self._dispatched += 1
            return event
        return None

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> None:
        """Dispatch events until the queue drains (or ``until`` is reached)."""
        for _ in range(max_events):
            if not self._queue:
                return
            if until is not None and self._queue[0].time > until:
                self.now = until
                return
            self.step()
        raise SimulationError(f"event budget exhausted after {max_events} events")

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for event in self._queue if not event.cancelled)

    @property
    def dispatched(self) -> int:
        """Total events executed so far."""
        return self._dispatched
