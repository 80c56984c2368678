"""Memory requests flowing from cores to the memory controller."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

_request_ids = itertools.count()


def next_request_id() -> int:
    """Allocate a request id outside :class:`MemRequest`.

    The system uses this to track accesses that never reach DRAM (LLC
    hits) in the same core-side bookkeeping as real misses.
    """
    return next(_request_ids)


@dataclass(slots=True, eq=False)
class MemRequest:
    """One LLC-miss request to ``row`` of ``bank`` in its controller's
    sub-channel.

    ``arrival_ps`` is when it reaches the memory controller; the controller
    fills in ``completion_ps`` when the data burst finishes.
    """

    core: int
    bank: int
    row: int
    arrival_ps: int
    is_write: bool = False
    request_id: int = field(default_factory=next_request_id)
    completion_ps: int | None = None

    @property
    def latency_ps(self) -> int:
        if self.completion_ps is None:
            raise ValueError("request not completed yet")
        return self.completion_ps - self.arrival_ps
