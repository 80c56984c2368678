"""One memory controller run on its own event heap.

Unit tests and the MC fuzzer (with its seed corpora) drive the real
:class:`~repro.mc.controller.MemoryController` through this: the same
class, event format and opcode dispatch
(:meth:`~repro.mc.controller.MemoryController.handle`) that a
:class:`~repro.sim.system.System` runs, minus the cores. Requests are
submitted directly; completions are read off the requests themselves
(``completion_ps``) and ``mc.stats.serviced``.
"""

from __future__ import annotations

import heapq

from ..config import DRAMConfig
from ..mitigations.base import MitigationPolicy
from ..obs.tracer import EventTracer
from .controller import MemoryController
from .events import EventQueue
from .pagepolicy import PagePolicy
from .request import MemRequest


class ControllerDriver:
    """A lone controller for sub-channel 0 plus its private event heap.

    ``tracer`` (optional) is attached to the controller and the policy,
    so the command stream can be replayed through the conformance
    oracle. The refresh stream is not armed until :meth:`start`.
    """

    def __init__(self, config: DRAMConfig, policy: MitigationPolicy,
                 page_policy: PagePolicy | None = None,
                 refresh_mode: str = "all-bank",
                 tracer: EventTracer | None = None):
        self.config = config
        self.policy = policy
        self.events = EventQueue()
        self.mc = MemoryController(0, config, policy, self.events,
                                   page_policy, refresh_mode)
        self.tracer = tracer
        if tracer is not None:
            self.mc.tracer = tracer
            policy.tracer = tracer
            policy.tracer_subchannel = 0

    def start(self) -> None:
        """Arm the controller's periodic refresh stream."""
        self.mc.start()

    def submit(self, bank: int, row: int, at: int = 0,
               is_write: bool = False) -> MemRequest:
        """Enqueue a request arriving at ``at``; returns it."""
        request = MemRequest(0, bank, row, at, is_write)
        self.mc.enqueue(request, at)
        return request

    def next_time(self) -> int | None:
        """Time of the next pending event (None when the heap is empty)."""
        heap = self.events.heap
        return heap[0][0] if heap else None

    def step(self) -> None:
        """Pop and run one event."""
        time_ps, _, op, target, arg = heapq.heappop(self.events.heap)
        target.handle(op, arg, time_ps)

    def run(self, until: int | None = None) -> None:
        """Run events due at or before ``until`` (all when None).

        A service pass may chain the bank's next passes inline, so
        commands can be dated past ``until``.
        """
        heap = self.events.heap
        while heap and (until is None or heap[0][0] <= until):
            self.step()
