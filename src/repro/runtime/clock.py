"""Simulated-clock event loop for the device-pool runtime.

The pool multiplexes many jobs onto many :class:`~repro.engine.system.
CAPESystem` instances. Each device advances its own cycle timeline when
a job runs on it; the clock merges those timelines into one global,
*deterministic* order: events fire strictly by (time, insertion order),
so two runs of the same job stream interleave identically — no wall
clock, threads, or randomness anywhere in the loop.

Times are CAPE cycles (floats, like :class:`CAPERunStats.cycles`); the
telemetry layer converts to seconds at the device frequency.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Tuple

from repro.common.errors import ConfigError


class SimClock:
    """A deterministic discrete-event scheduler.

    Events are ``(time, seq, callback)`` triples in a heap; ``seq`` is a
    monotone insertion counter that breaks time ties, which makes the
    firing order a pure function of the schedule calls.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[[], Any]]] = []
        self._seq = 0
        self.events_fired = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def next_time(self):
        """Timestamp of the earliest pending event, or ``None`` if idle.

        Lets the pool's wave loop drain all events sharing one simulated
        timestamp as a batch without firing any of them early.
        """
        return self._heap[0][0] if self._heap else None

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> None:
        """Fire ``callback`` when the clock reaches ``time`` cycles."""
        if time < self.now:
            raise ConfigError(
                f"cannot schedule at {time} cycles: clock already at {self.now}"
            )
        heapq.heappush(self._heap, (float(time), self._seq, callback))
        self._seq += 1

    def schedule_in(self, delay: float, callback: Callable[[], Any]) -> None:
        """Fire ``callback`` after ``delay`` cycles."""
        if delay < 0:
            raise ConfigError("delay must be non-negative")
        self.schedule_at(self.now + delay, callback)

    def tick(self) -> bool:
        """Fire the earliest pending event; returns False when idle."""
        if not self._heap:
            return False
        time, _, callback = heapq.heappop(self._heap)
        self.now = time
        self.events_fired += 1
        callback()
        return True

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the event queue; returns the number of events fired.

        ``max_events`` bounds runaway feedback loops (an event that
        always schedules another); hitting it raises.
        """
        fired = 0
        while self.tick():
            fired += 1
            if fired >= max_events:
                raise ConfigError(
                    f"event loop exceeded {max_events} events — "
                    "a callback is rescheduling itself unconditionally"
                )
        return fired
