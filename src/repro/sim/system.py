"""Full-system simulator: cores -> (LLC) -> address mapper -> controllers.

The :class:`System` owns the one event heap
(:class:`~repro.mc.events.EventQueue`: ``(time_ps, seq, op, target,
arg)`` opcode tuples) and wires together:

* one :class:`~repro.cpu.core.Core` per trace,
* optionally the shared LLC (by default the calibrated workloads generate
  miss streams, so the LLC is bypassed — see
  :mod:`repro.cpu.cache` for the rationale),
* the MOP address mapper,
* one :class:`~repro.mc.controller.MemoryController` per sub-channel, each
  with its own :class:`~repro.mitigations.base.MitigationPolicy` instance.

``System.run()`` executes until every core has retired its instruction
budget and returns a :class:`SystemResult` with per-core IPCs and all
subsystem statistics. How the event loop stays cheap — opcode events,
inline service chains, block trace reads, the line-mapping memo and the
O(1) active-core count — is described in ``docs/performance.md``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..config import SystemConfig
from ..cpu.cache import SetAssociativeCache
from ..cpu.core import Core, CoreStats
from ..cpu.trace import TraceItem
from ..dram.address import make_mapper
from ..mc.controller import MCStats, MemoryController
from ..mc.events import (FASTFORWARD_MIN_GAP_PS, OP_COMPLETE, OP_DRIVE,
                         OP_SERVICE, EventQueue)
from ..mc.pagepolicy import make_page_policy
from ..mc.request import MemRequest, next_request_id
from ..mitigations.base import MitigationPolicy
from ..obs.registry import StatsRegistry
from ..obs.tracer import EventTracer

PolicyFactory = Callable[[int], MitigationPolicy]


@dataclass
class SystemResult:
    """Everything a run produces."""

    config: SystemConfig
    core_stats: list[CoreStats]
    mc_stats: list[MCStats]
    policy_stats: list[dict]
    elapsed_ps: int
    row_activity: "RowActivityStats | None" = None
    #: flat dotted-namespace stats snapshot (see docs/observability.md)
    stats: dict[str, float] = field(default_factory=dict)
    #: wall-time phase breakdown of the run that produced this result
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def ipcs(self) -> list[float]:
        ghz = self.config.core_ghz
        return [stats.ipc(ghz) for stats in self.core_stats]

    @property
    def total_requests(self) -> int:
        return sum(stats.requests for stats in self.mc_stats)

    @property
    def row_buffer_hit_rate(self) -> float:
        hits = sum(s.row_hits for s in self.mc_stats)
        total = sum(s.row_hits + s.row_misses + s.row_conflicts
                    for s in self.mc_stats)
        return hits / total if total else 0.0

    @property
    def total_alerts(self) -> int:
        return sum(s.alerts for s in self.mc_stats)

    @property
    def total_activations(self) -> int:
        return sum(s.activations for s in self.mc_stats)

    def bus_utilization(self) -> float:
        """Fraction of wall time the data buses carried bursts."""
        if self.elapsed_ps <= 0:
            return 0.0
        timing = self.config.dram.timing
        busy = self.total_requests * timing.tBURST
        return busy / (self.elapsed_ps * self.config.dram.subchannels)

    def mean_ipc(self) -> float:
        ipcs = self.ipcs
        return sum(ipcs) / len(ipcs) if ipcs else 0.0

    def bandwidth_gbps(self) -> float:
        """Achieved DRAM bandwidth in GB/s."""
        if self.elapsed_ps <= 0:
            return 0.0
        bytes_moved = self.total_requests * self.config.dram.line_bytes
        return bytes_moved / (self.elapsed_ps / 1e12) / 1e9

    def summary(self) -> str:
        """One-paragraph human-readable run summary."""
        return (
            f"elapsed {self.elapsed_ps / 1e6:.1f} us | "
            f"{self.total_requests} requests, "
            f"{self.total_activations} ACTs | "
            f"RBHR {self.row_buffer_hit_rate:.2f} | "
            f"bus {self.bus_utilization():.0%} | "
            f"{self.bandwidth_gbps():.1f} GB/s | "
            f"mean IPC {self.mean_ipc():.2f} | "
            f"{self.total_alerts} ALERTs"
        )


@dataclass
class RowActivityStats:
    """Per-refresh-window row-activation census (Table 4 columns).

    ``windows`` counts completed tREFW windows; the hot-row tallies are
    means per window per bank, directly comparable to the paper's ACT-64+
    and ACT-200+ columns (which use the full 32 ms window — scaled runs
    report the scaled-window equivalent).
    """

    windows: int = 0
    total_acts: int = 0
    total_refis: int = 0
    banks: int = 0
    act64_total: int = 0
    act200_total: int = 0

    @property
    def apri(self) -> float:
        """Mean activations per tREFI per bank."""
        if not self.total_refis or not self.banks:
            return 0.0
        return self.total_acts / self.total_refis / self.banks

    @property
    def act64(self) -> float:
        if not self.windows or not self.banks:
            return 0.0
        return self.act64_total / self.windows / self.banks

    @property
    def act200(self) -> float:
        if not self.windows or not self.banks:
            return 0.0
        return self.act200_total / self.windows / self.banks


class _RowActivityMonitor:
    """Collects :class:`RowActivityStats` from activation callbacks."""

    def __init__(self, banks_total: int, trefw_ps: int, trefi_ps: int):
        self.stats = RowActivityStats(banks=banks_total)
        self.trefw = trefw_ps
        self.trefi = trefi_ps
        self.window_end = trefw_ps
        self.counts: dict[tuple[int, int, int], int] = {}

    def notify(self, time_ps: int, subchannel: int, bank: int,
               row: int) -> None:
        if time_ps >= self.window_end:
            self._advance_to(time_ps)
        self.counts[(subchannel, bank, row)] = \
            self.counts.get((subchannel, bank, row), 0) + 1
        self.stats.total_acts += 1

    def finalize(self, elapsed_ps: int) -> RowActivityStats:
        # Roll every window the run actually completed — including idle
        # ones no activation ever touched — and discard the partial
        # trailing window: counting it as a full window would skew the
        # per-window ACT-64+/ACT-200+ means (Table 4). A run shorter
        # than one (scaled) tREFW has no completed window at all; report
        # it as a single truncated window rather than an empty census.
        if elapsed_ps >= self.window_end:
            self._advance_to(elapsed_ps)
        if not self.stats.windows and elapsed_ps > 0:
            self._roll_window()
        self.counts.clear()
        self.stats.total_refis = max(elapsed_ps // self.trefi, 1)
        return self.stats

    def _advance_to(self, time_ps: int) -> None:
        """Complete every window whose end is at or before ``time_ps``.

        An event at exactly ``window_end`` belongs to the *next* window
        (windows are half-open ``[start, start + tREFW)``), so the first
        roll flushes the live census; any further windows crossed by a
        large time jump are empty by construction and are skipped in
        O(1) instead of re-scanning the (already empty) counts per
        window. The closed-form skip lands ``window_end`` strictly
        beyond ``time_ps``, which keeps exact-boundary jumps (an ACT at
        ``k * tREFW``) in the same window as the one-roll-per-iteration
        loop it replaces.
        """
        self._roll_window()
        if time_ps >= self.window_end:
            skipped = (time_ps - self.window_end) // self.trefw + 1
            self.stats.windows += skipped
            self.window_end += skipped * self.trefw

    def _roll_window(self) -> None:
        self.stats.windows += 1
        for count in self.counts.values():
            if count >= 64:
                self.stats.act64_total += 1
            if count >= 200:
                self.stats.act200_total += 1
        self.counts.clear()
        self.window_end += self.trefw


class System:
    """One simulation instance."""

    def __init__(self, config: SystemConfig,
                 policy_factory: PolicyFactory,
                 traces: list[Iterator[TraceItem]],
                 instruction_limit: int,
                 mapper_kind: str = "mop",
                 page_policy: str = "open",
                 use_llc: bool = False,
                 collect_row_activity: bool = False,
                 windows: list[int] | None = None,
                 refresh_mode: str = "all-bank",
                 tracer: EventTracer | None = None):
        if len(traces) != config.cores:
            raise ValueError(
                f"need {config.cores} traces, got {len(traces)}")
        self.config = config
        self.mapper = make_mapper(config.dram, mapper_kind)
        self.events = EventQueue()
        self.policies = [policy_factory(i)
                         for i in range(config.dram.subchannels)]
        self.controllers = [
            MemoryController(i, config.dram, self.policies[i], self.events,
                             make_page_policy(page_policy),
                             refresh_mode=refresh_mode,
                             return_ps=config.llc_hit_ps)
            for i in range(config.dram.subchannels)
        ]
        if windows is not None and len(windows) != len(traces):
            raise ValueError("windows must match traces")
        self.cores = [
            Core(i, trace, config, instruction_limit,
                 window=windows[i] if windows is not None else None)
            for i, trace in enumerate(traces)
        ]
        self.llc = (SetAssociativeCache(config.llc_bytes, config.llc_ways,
                                        config.dram.line_bytes)
                    if use_llc else None)
        self.tracer = tracer
        if tracer is not None:
            for mc in self.controllers:
                mc.tracer = tracer
            for index, policy in enumerate(self.policies):
                policy.tracer = tracer
                policy.tracer_subchannel = index
        self.registry = StatsRegistry()
        for mc in self.controllers:
            mc.register_stats(self.registry, f"mc.{mc.subchannel}")
        for index, policy in enumerate(self.policies):
            policy.register_stats(self.registry, f"mitigation.{index}")
        self.registry.register("mitigation", self._mitigation_aggregates)
        for core in self.cores:
            self.registry.register(
                f"core.{core.core_id}",
                lambda c=core: {
                    "instructions": c.stats.instructions,
                    "requests": c.stats.requests,
                    "finish_ps": c.stats.finish_ps,
                    "ipc": c.stats.ipc(self.config.core_ghz),
                })
        self._monitor: _RowActivityMonitor | None = None
        if collect_row_activity:
            timing = config.dram.timing
            self._monitor = _RowActivityMonitor(
                config.dram.total_banks, timing.tREFW, timing.tREFI)
            for mc in self.controllers:
                mc.act_hook = (
                    lambda t, bank, row, _sub=mc.subchannel:
                    self._monitor.notify(t, _sub, bank, row))
        self._line_bytes = config.dram.line_bytes
        self._total_lines = self.mapper.total_lines()
        #: line index -> (controller, bank, row): the mapping is pure and
        #: the working set is bounded by the workload footprint
        self._line_memo: dict[int, tuple[MemoryController, int, int]] = {}
        self._now = 0

    def _mitigation_aggregates(self) -> dict[str, int]:
        """Cross-sub-channel totals under the bare ``mitigation.`` prefix."""
        return {
            "rfm_events": sum(p.stats.alerts for p in self.policies),
            "mitigations": sum(p.stats.mitigations for p in self.policies),
            "counter_updates": sum(p.stats.counter_updates
                                   for p in self.policies),
            "ref_drains": sum(p.stats.ref_drains for p in self.policies),
        }

    # ------------------------------------------------------------------
    # Core driving
    # ------------------------------------------------------------------
    def _drive_core(self, core: Core, now: int, rewake: bool = True) -> bool:
        """Issue ``core``'s accesses as far as ``now`` allows.

        Stops when the next access lies in the future (an ``OP_DRIVE``
        wake is pushed for it), when the ROB is full (the completion of
        the oldest miss re-drives the core), or when the trace or the
        budget is spent. ``rewake=False`` is for a completion the core
        was not stalled on: a wake for its next access is already
        pending then, so unless something is issuable right now the
        call returns without pushing a duplicate.

        Returns True when the core is done (its ``done`` predicate,
        from the state already in hand).
        """
        heap = self.events.heap
        seq = self.events.seq
        limit = core.instruction_limit
        rob = core.rob
        pspi = core.pspi
        while True:
            item = core.peek()
            if item is None:
                return not core.outstanding
            gap = item[0]
            advance = gap + 1
            inst_index = core.inst_index
            if limit - inst_index < advance:
                return not core.outstanding  # budget cannot cover it
            order = core._order
            if order:
                oldest_id, oldest_index = order[0]
                if inst_index + advance - oldest_index >= rob:
                    core._waiting_on = oldest_id
                    return False
            issue_f = core.dispatch_ps + gap * pspi
            if issue_f < core._resume_floor:
                issue_f = core._resume_floor
            issue = int(issue_f)
            if issue > now:
                if rewake:
                    heapq.heappush(heap, (issue, next(seq), OP_DRIVE,
                                          core, 0))
                return False
            core._next_item = None
            core.inst_index = inst_index = inst_index + advance
            core.dispatch_ps = float(issue)
            core.stats.instructions = inst_index
            core.stats.requests += 1
            self._dispatch(core, item, issue)
            rewake = True

    def _dispatch(self, core: Core, item: tuple[int, int, bool],
                  issue: int) -> None:
        _, address, is_write = item
        if self.llc is not None and self.llc.access(address, is_write):
            # LLC hit: no DRAM traffic, but the data still returns only
            # after the LLC lookup latency. Reads occupy the core's miss
            # window until then, and the completion event wakes a core
            # that filled its ROB on cache-resident data — without it
            # the core would wait on the request id forever.
            if not is_write:
                request_id = next_request_id()
                core.track(request_id)
                self.events.push(issue + self.config.llc_hit_ps,
                                 OP_COMPLETE, core, request_id)
            return
        arrival = issue + self.config.llc_hit_ps
        line_index = (address // self._line_bytes) % self._total_lines
        entry = self._line_memo.get(line_index)
        if entry is None:
            subchannel, bank, row = self.mapper.map_line_raw(line_index)
            entry = self._line_memo[line_index] = (
                self.controllers[subchannel], bank, row)
        mc, bank, row = entry
        request = MemRequest(core.core_id, bank, row, arrival, is_write)
        if not is_write:
            # Writes are dirty-line writebacks: they consume DRAM bandwidth
            # but never block retirement, so the core does not track them.
            core.track(request.request_id)
            self.events.owners[request.request_id] = core
        mc.enqueue(request, arrival)

    # ------------------------------------------------------------------
    def run(self) -> SystemResult:
        for mc in self.controllers:
            mc.start()
        for core in self.cores:
            self._drive_core(core, 0)
        self._run_loop()
        return self._finalize()

    def _run_loop(self) -> None:
        """Pop, advance time, dispatch on the opcode.

        Core doneness is monotone (traces only advance, outstanding sets
        only drain), so the loop keeps a count of active cores, updated
        only by the events that can finish one, instead of re-evaluating
        every core before every pop.
        """
        events = self.events
        heap = events.heap
        heappop = heapq.heappop
        drive = self._drive_core
        min_gap = FASTFORWARD_MIN_GAP_PS
        active = 0
        for core in self.cores:
            core.finished = core.done
            if not core.finished:
                active += 1
        now = self._now
        while heap and active:
            time_ps, _, op, target, arg = heappop(heap)
            if time_ps - now >= min_gap:
                events.fastforward_ps += time_ps - now
            if op == OP_SERVICE:
                # a service pass may chain inline and advance the clock
                now = target._service(arg, time_ps)
            elif op == OP_COMPLETE or op == OP_DRIVE:
                now = time_ps
                rewake = op == OP_DRIVE or target.on_completion(arg,
                                                                time_ps)
                if drive(target, time_ps, rewake) and not target.finished:
                    target.finished = True
                    active -= 1
            else:
                now = target.handle(op, arg, time_ps)
        self._now = now

    def _finalize(self) -> SystemResult:
        core_stats = [core.finalize() for core in self.cores]
        elapsed = max((s.finish_ps for s in core_stats), default=0)
        activity = (self._monitor.finalize(elapsed)
                    if self._monitor is not None else None)
        sim_stats: dict[str, float] = {
            "elapsed_ps": elapsed,
            "fastforward_ps": self.events.fastforward_ps,
        }
        if activity is not None:
            sim_stats["row_activity"] = {
                "windows": activity.windows,
                "total_acts": activity.total_acts,
                "apri": activity.apri,
                "act64": activity.act64,
                "act200": activity.act200,
            }
        self.registry.register("sim", lambda: sim_stats)
        return SystemResult(
            config=self.config,
            core_stats=core_stats,
            mc_stats=[mc.stats for mc in self.controllers],
            policy_stats=[p.stats.as_dict() for p in self.policies],
            elapsed_ps=elapsed,
            row_activity=activity,
            stats=self.registry.snapshot(),
        )
