"""End-to-end conservation invariants of the full-system simulator."""

import pytest

from repro.config import DRAMConfig, SystemConfig
from repro.cpu.trace import TraceItem
from repro.dram.timing import ddr5_base
from repro.mc.request import MemRequest
from repro.mitigations.prac import BaselinePolicy, PRACMoatPolicy
from repro.sim.system import System


def small_config(cores=4):
    dram = DRAMConfig(subchannels=2, banks_per_subchannel=4,
                      rows_per_bank=256,
                      timing=ddr5_base().scaled_refresh(1 / 256))
    return SystemConfig(dram=dram, cores=cores)


def mixed_trace(core, n=150):
    for i in range(n):
        yield TraceItem(10 + (i % 7), (core * 50_000 + i * 17) * 64,
                        is_write=(i % 4 == 0))


class _CompletionAudit:
    """Wrap a System's controllers to audit request completion."""

    def __init__(self, system: System):
        self.requests: list[MemRequest] = []
        for mc in system.controllers:
            def audited(request: MemRequest, now: int,
                        _enqueue=mc.enqueue):
                self.requests.append(request)
                _enqueue(request, now)

            mc.enqueue = audited

    @property
    def completions(self) -> dict[int, int]:
        out = {}
        for request in self.requests:
            assert request.completion_ps is not None
            assert request.completion_ps >= request.arrival_ps
            assert request.request_id not in out
            out[request.request_id] = request.completion_ps
        return out


@pytest.fixture(params=["baseline", "prac"])
def run(request):
    config = small_config()
    if request.param == "baseline":
        factory = lambda i: BaselinePolicy(config.dram.timing)  # noqa: E731
    else:
        from repro.dram.timing import ddr5_prac
        timing = ddr5_prac().scaled_refresh(1 / 256)
        factory = lambda i: PRACMoatPolicy(  # noqa: E731
            500, 4, 256, 32, timing=timing)
    system = System(config, factory,
                    [mixed_trace(i) for i in range(config.cores)],
                    instruction_limit=10_000)
    audit = _CompletionAudit(system)
    result = system.run()
    return system, audit, result


class TestConservation:
    def test_every_request_completed_exactly_once(self, run):
        system, audit, result = run
        assert len(audit.completions) == result.total_requests

    def test_no_requests_stranded(self, run):
        system, audit, result = run
        for mc in system.controllers:
            assert mc.pending() == 0

    def test_bank_stats_consistent(self, run):
        system, audit, result = run
        for mc in system.controllers:
            for stats, open_row in zip(mc.bank_stats, mc.open_row):
                assert stats.activations >= stats.precharges
                # at run end a bank is open iff ACTs exceed PREs
                diff = stats.activations - stats.precharges
                assert diff == (1 if open_row >= 0 else 0)

    def test_column_accesses_match_requests(self, run):
        system, audit, result = run
        columns = sum(b.reads + b.writes
                      for mc in system.controllers for b in mc.bank_stats)
        assert columns == result.total_requests

    def test_hits_plus_activations_cover_requests(self, run):
        system, audit, result = run
        for stats in result.mc_stats:
            total = stats.row_hits + stats.row_misses + stats.row_conflicts
            assert total == stats.requests
            assert stats.activations == stats.row_misses + \
                stats.row_conflicts

    def test_all_cores_retired_budget(self, run):
        _, _, result = run
        for stats in result.core_stats:
            assert stats.instructions == 10_000
            assert stats.finish_ps > 0
