"""ROB-window out-of-order core model (paper Table 3: 4 GHz, 4-wide,
256-entry ROB).

This is the standard limit-study approximation of an OoO core for DRAM
studies: the core dispatches instructions at full width (4 IPC) and issues
every LLC miss it encounters, overlapping as many misses as fit inside the
reorder-buffer window. Dispatch stalls only when the *next* instruction is
more than ``rob_entries`` instructions younger than the oldest incomplete
miss — the ROB cannot retire past a pending load.

The model preserves exactly the distinction the paper's results hinge on:

* bandwidth-bound streams (a miss every ~20 instructions) keep ~12 misses
  in flight and hide extra precharge latency, while
* latency-bound workloads (a miss every 100-500 instructions) have an MLP
  near 1 and feel every nanosecond PRAC adds to tRP.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass
from typing import Iterator

from ..config import SystemConfig
from .trace import TraceItem


@dataclass
class CoreStats:
    instructions: int = 0
    requests: int = 0
    finish_ps: int = 0

    def ipc(self, core_ghz: float) -> float:
        """Retired instructions per core cycle."""
        if self.finish_ps <= 0:
            return 0.0
        cycles = self.finish_ps * core_ghz / 1000.0
        return self.instructions / cycles


#: Accesses pulled per ``next_block`` refill of a block-capable trace
#: (:class:`~repro.workloads.synthetic.TraceGenerator`). Each generator
#: owns its RNG, so pulling ahead cannot change the stream; the only
#: waste is up to one block of draws past the instruction budget.
TRACE_BLOCK = 256


class Core:
    """One trace-driven core.

    The :class:`~repro.sim.system.System` drives the core: it reads the
    pending access with :meth:`peek`, issues it (advancing
    ``inst_index`` / ``dispatch_ps``), registers reads with
    :meth:`track`, and reports returned misses to :meth:`on_completion`.
    """

    def __init__(self, core_id: int, trace: Iterator[TraceItem],
                 config: SystemConfig, instruction_limit: int,
                 window: int | None = None):
        self.core_id = core_id
        self.trace = iter(trace)
        #: refill of the pending-access block: traces that can draw
        #: ``next_block(n)`` raw tuples are read in blocks, any other
        #: iterator one item at a time
        next_block = getattr(self.trace, "next_block", None)
        self._refill = (functools.partial(next_block, TRACE_BLOCK)
                        if next_block is not None else self._pull_one)
        self._block: list[tuple[int, int, bool]] = []
        self._pos = 0
        self.config = config
        self.instruction_limit = instruction_limit
        self.pspi = config.ps_per_instruction
        #: miss-overlap window in instructions: the ROB, widened by the
        #: workload's prefetch model (WorkloadSpec.mlp_boost)
        self.rob = window if window is not None else config.rob_entries

        self.inst_index = 0  # instructions dispatched so far
        self.dispatch_ps = 0.0  # time the dispatch cursor has reached
        #: outstanding misses: request_id -> instruction index
        self.outstanding: dict[int, int] = {}
        self._order: collections.deque[tuple[int, int]] = collections.deque()
        #: the pending access as a raw ``(gap, address, is_write)`` tuple
        self._next_item: tuple[int, int, bool] | None = None
        self._exhausted = False
        self._waiting_on: int | None = None
        self._resume_floor = 0.0
        self._last_completion = 0.0
        #: set by the event loop once :attr:`done` holds (it is monotone)
        self.finished = False
        self.stats = CoreStats()

    # ------------------------------------------------------------------
    def _pull_one(self) -> list[tuple[int, int, bool]]:
        for item in self.trace:
            return [(item.gap, item.address, item.is_write)]
        return []

    def peek(self) -> tuple[int, int, bool] | None:
        """The pending access as ``(gap, address, is_write)``; None once
        the trace is exhausted."""
        item = self._next_item
        if item is None and not self._exhausted:
            pos = self._pos
            block = self._block
            if pos >= len(block):
                block = self._block = self._refill()
                pos = 0
                if not block:
                    self._exhausted = True
                    return None
            item = self._next_item = block[pos]
            self._pos = pos + 1
        return item

    def track(self, request_id: int) -> None:
        self.outstanding[request_id] = self.inst_index
        self._order.append((request_id, self.inst_index))

    def on_completion(self, request_id: int, now: int) -> bool:
        """Retire a returned miss; True when dispatch was stalled on it
        (it resumes at ``now``)."""
        outstanding = self.outstanding
        outstanding.pop(request_id, None)
        order = self._order
        while order and order[0][0] not in outstanding:
            order.popleft()
        if now > self._last_completion:
            self._last_completion = float(now)
        if request_id != self._waiting_on:
            return False
        if now > self._resume_floor:
            self._resume_floor = float(now)
        self._waiting_on = None
        return True

    @property
    def done(self) -> bool:
        """Trace or budget spent, with no miss outstanding."""
        if self.outstanding:
            return False
        item = self.peek()
        budget_left = self.instruction_limit - self.inst_index
        return item is None or budget_left <= 0 or item[0] + 1 > budget_left

    def finalize(self) -> CoreStats:
        budget_left = max(self.instruction_limit - self.inst_index, 0)
        self.stats.instructions = self.inst_index + budget_left
        self.stats.finish_ps = int(self._finish_time())
        return self.stats

    # ------------------------------------------------------------------
    def _finish_time(self) -> float:
        """Retirement of the last instruction: the dispatch cursor plus the
        non-memory tail, but never before the last miss returns."""
        budget_left = max(self.instruction_limit - self.inst_index, 0)
        tail = budget_left * self.pspi
        return max(self.dispatch_ps + tail, self._last_completion)
