"""Clocks: the system clock, and a simulated one for deterministic scenario runs.

Everything that reads time (token expiry, issued_at stamps, refresh
arithmetic) takes a ``Clock``. The simulated clock never sleeps; the
scenario runner advances it through the event timeline.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from typing import Callable

Clock = Callable[[], datetime]


def system_clock() -> datetime:
    return datetime.now(timezone.utc)


SCENARIO_EPOCH = datetime(2025, 1, 1, tzinfo=timezone.utc)


class SimulatedClock:
    def __init__(self, start: datetime = SCENARIO_EPOCH):
        if start.tzinfo is None:
            start = start.replace(tzinfo=timezone.utc)
        self._now = start
        self.start = start

    def now(self) -> datetime:
        return self._now

    __call__ = now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("the clock only moves forward")
        self._now += timedelta(seconds=seconds)

    def advance_to_offset(self, seconds_from_start: float) -> None:
        """Move to start + offset; refuses to travel backwards."""
        target = self.start + timedelta(seconds=seconds_from_start)
        if target < self._now:
            raise ValueError(
                f"cannot move clock backwards ({self._now.isoformat()} -> "
                f"{target.isoformat()})")
        self._now = target
