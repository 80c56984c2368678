"""The simulation's event format: one heap of integer-opcode tuples.

Every scheduled event is a ``(time_ps, seq, op, target, arg)`` tuple on
one :class:`EventQueue` heap. ``seq`` is drawn from a single counter at
push time, so events at equal times pop in push order and every run
pops the same sequence. ``op`` names the handler and ``target`` the
object that runs it; there are no callback events.

The controller opcodes are dispatched by
:meth:`repro.mc.controller.MemoryController.handle`; the core opcodes
(``OP_COMPLETE`` / ``OP_DRIVE``) exist only inside a
:class:`~repro.sim.system.System`.
"""

from __future__ import annotations

import heapq
import itertools

OP_SERVICE = 0   # (controller, bank_index): FR-FCFS service pass
OP_COMPLETE = 1  # (core, request_id): read data is back at the core
OP_DRIVE = 2     # (core, 0): the core's next access is due
OP_TIMEOUT = 3   # (controller, (bank_index, access_stamp)): page timeout
OP_REF = 4       # (controller, 0): all-bank refresh
OP_REFSB = 5     # (controller, 0): same-bank refresh
OP_RFM = 6       # (controller, 0): the RFM of an asserted ALERT

#: Event-time jumps at least this large (ps) count as fast-forwarded
#: idle time in the ``sim.fastforward_ps`` stat. The event loop always
#: jumps straight to the next event — there is no tick — so the stat
#: measures *simulated* idle time crossed in one hop, not wall time.
FASTFORWARD_MIN_GAP_PS = 100_000


class EventQueue:
    """The event heap plus the state its handlers share."""

    def __init__(self) -> None:
        self.heap: list[tuple] = []
        self.seq = itertools.count()
        #: request_id -> the core whose read it is; the controller routes
        #: the read's completion to that core as an ``OP_COMPLETE`` event
        self.owners: dict = {}
        #: see :data:`FASTFORWARD_MIN_GAP_PS`; service chains that run
        #: inline (without a heap round-trip) add their hops here too
        self.fastforward_ps = 0

    def push(self, when: int, op: int, target, arg) -> None:
        heapq.heappush(self.heap,
                       (int(when), next(self.seq), op, target, arg))
