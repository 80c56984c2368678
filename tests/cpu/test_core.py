"""ROB-window core model: dispatch pacing, MLP limits, finish times.

Pacing and ROB blocking are decided where the core is driven, in the
:class:`~repro.sim.system.System` event loop, so those tests run one
core through a real System and read the requests it sent to DRAM
(``issue = arrival - llc_hit_ps``; a read is back at the core at
``completion_ps + llc_hit_ps``).
"""

import pytest

from repro.config import DRAMConfig, SystemConfig
from repro.cpu.core import Core
from repro.cpu.trace import TraceItem
from repro.dram.timing import ddr5_base
from repro.mitigations.prac import BaselinePolicy
from repro.sim.system import System
from repro.workloads.synthetic import inverse_map_line

DRAM = DRAMConfig(subchannels=1, banks_per_subchannel=4, rows_per_bank=128,
                  timing=ddr5_base().scaled_refresh(1 / 256))
CONFIG = SystemConfig(dram=DRAM, cores=1)
LLC = CONFIG.llc_hit_ps
PSPI = CONFIG.ps_per_instruction  # 62.5 ps at 4-wide, 4 GHz


def make_core(items, limit=10**9, window=None, config=None):
    config = config or SystemConfig()
    return Core(0, iter(items), config, limit, window=window)


def at(bank, row):
    """Byte address of (bank, row) in sub-channel 0."""
    return inverse_map_line(DRAM, 0, bank, row) * DRAM.line_bytes


def run_core(items, limit=10**9, window=None):
    """One core on a real System; returns (result, requests in issue
    order)."""
    system = System(CONFIG, lambda i: BaselinePolicy(DRAM.timing),
                    [iter(items)], limit,
                    windows=[window] if window is not None else None)
    sent = []
    for mc in system.controllers:
        def spy(request, now, _enqueue=mc.enqueue):
            sent.append(request)
            _enqueue(request, now)
        mc.enqueue = spy
    return system.run(), sent


def issue(request):
    return request.arrival_ps - LLC


def returned(request):
    return request.completion_ps + LLC


class TestDispatchPacing:
    def test_first_issue_time(self):
        _, sent = run_core([TraceItem(40, 0)])
        # 40 instructions at 4-wide 4 GHz = 2.5 ns
        assert issue(sent[0]) == 40 * 62.5

    def test_back_to_back_gap_zero(self):
        _, sent = run_core([TraceItem(0, 0), TraceItem(0, 64)])
        assert issue(sent[1]) == issue(sent[0])

    def test_cursor_advances_with_issue_time(self):
        # a one-instruction window stalls the write behind the read, so
        # it issues late; the next gap is paced from that late issue
        _, sent = run_core([TraceItem(0, at(0, 1)),
                            TraceItem(0, at(1, 1), is_write=True),
                            TraceItem(4, at(2, 1), is_write=True)],
                           window=1)
        assert issue(sent[1]) == returned(sent[0])
        assert issue(sent[2]) == issue(sent[1]) + 4 * 62.5


class TestROBBlocking:
    ITEMS = [TraceItem(15, i * 64) for i in range(20)]

    def test_window_limits_outstanding(self):
        # gap 15 -> one miss per 16 instructions; window 64 -> 4 misses
        _, sent = run_core(self.ITEMS, window=64)
        paced = [issue(r) for r in sent[:4]]
        assert all(0 < b - a < 16 * PSPI for a, b in zip(paced, paced[1:]))
        # the fifth miss waits for the oldest one to come back
        assert issue(sent[4]) == returned(sent[0])

    def test_completion_unblocks(self):
        _, sent = run_core(self.ITEMS, window=64)
        assert len(sent) == 20
        for blocker, request in zip(sent, sent[4:]):
            assert issue(request) >= returned(blocker)

    def test_out_of_order_completion_keeps_blocking(self):
        # the write opens a row in bank 0, so the first read pays a
        # conflict there while the younger read to bank 1 returns first;
        # the window of two still blocks the third read on the oldest
        _, sent = run_core([TraceItem(0, at(0, 7), is_write=True),
                            TraceItem(0, at(0, 5)),
                            TraceItem(0, at(1, 5)),
                            TraceItem(0, at(2, 5))], window=2)
        _, oldest, younger, blocked = sent
        assert returned(younger) < returned(oldest)
        assert issue(blocked) == returned(oldest)


class TestFinish:
    def test_finish_includes_tail_instructions(self):
        # a write never holds retirement back
        result, _ = run_core([TraceItem(0, 0, is_write=True)], limit=1000)
        # 999 remaining instructions at 62.5 ps each
        assert result.core_stats[0].finish_ps == pytest.approx(999 * 62.5,
                                                               rel=0.01)

    def test_finish_waits_for_last_completion(self):
        result, sent = run_core([TraceItem(0, 0)], limit=10)
        assert result.core_stats[0].finish_ps == returned(sent[0])

    def test_done_requires_no_outstanding(self):
        core = make_core([TraceItem(0, 0)], limit=0)
        core.track(0)
        assert not core.done
        assert not core.on_completion(0, 100)  # it was not stalled on it
        assert core.done

    def test_finalize_reports_full_budget(self):
        core = make_core([TraceItem(0, 0)], limit=500)
        stats = core.finalize()
        assert stats.instructions == 500


class TestIPC:
    def test_ipc_computation(self):
        core = make_core([], limit=0)
        stats = core.finalize()
        stats.instructions = 4000
        stats.finish_ps = 1000 * 1000  # 1 us at 4 GHz = 4000 cycles
        assert stats.ipc(4.0) == pytest.approx(1.0)

    def test_zero_time_ipc(self):
        core = make_core([], limit=0)
        stats = core.finalize()
        assert stats.ipc(4.0) == 0.0


class TestBudget:
    def test_trace_cut_at_instruction_limit(self):
        items = [TraceItem(99, i * 64) for i in range(100)]
        _, sent = run_core(items, limit=250)  # room for 2 accesses only
        assert len(sent) == 2
