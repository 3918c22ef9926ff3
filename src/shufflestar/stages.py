"""Wall time per stage of one `psa` run, kept only under `--timings`.

The engine marks its stages with `with CLIMBS:` and the like.  Outside a
`StageClock` a mark costs two method calls and keeps nothing.  Inside one,
each stretch of time goes to the innermost stage open at the time, so a
block climbed inside a join kernel counts as a climb and not as kernel
time; time in no stage goes to "other", and the stages of a run add up to
its wall time.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

__all__ = ["StageClock", "CLIMBS", "JOIN_KERNELS", "ASSEMBLY", "REPORT"]

# the clock of the run in progress, if it keeps timings; a `StageClock`
# sets it on entry and puts the previous one back on exit, so it never
# outlives the run that set it
_clock: Optional[StageClock] = None


class StageClock:
    """Exclusive wall time per stage while the clock runs (a `with` block).

    `seconds` maps each stage name to its seconds, "other" included.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._open: list[str] = []
        self._stage = "other"
        self._since = 0.0
        self._outer: Optional[StageClock] = None

    def _switch(self, stage: str) -> None:
        now = perf_counter()
        seconds = self.seconds
        seconds[self._stage] = seconds.get(self._stage, 0.0) + now - self._since
        self._since = now
        self._stage = stage

    def enter(self, stage: str) -> None:
        self._open.append(self._stage)
        self._switch(stage)

    def leave(self) -> None:
        self._switch(self._open.pop())

    def __enter__(self) -> StageClock:
        global _clock
        self._outer, _clock = _clock, self
        self._since = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        global _clock
        self._switch("other")
        _clock = self._outer


class _Stage:
    """A `with` mark of one stage, charged to the running clock, if any."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> None:
        if _clock is not None:
            _clock.enter(self.name)

    def __exit__(self, *exc) -> None:
        if _clock is not None:
            _clock.leave()


CLIMBS = _Stage("climbs")
JOIN_KERNELS = _Stage("join_kernels")
ASSEMBLY = _Stage("assembly")
REPORT = _Stage("report")
