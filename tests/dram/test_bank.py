"""Per-bank timing: the controller's bookkeeping and the legality rules.

Each bank's state lives in the memory controller's per-bank lists
(``open_row``, ``ready_act``, ``ready_col``, ``ready_pre``,
``last_act``, ``blocked_until``). The controller dates commands from
them without re-checking legality per command, so the rules are tested
on both sides: that the controller keeps the state the JEDEC rules ask
for (driven through a traced :class:`~repro.mc.driver.ControllerDriver`
whose stream must pass the oracle), and that the conformance oracle
rejects every command issued before the rule allows it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracle import ConformanceOracle, OracleConfig
from repro.config import DRAMConfig
from repro.dram.timing import ddr5_base, ddr5_prac
from repro.mc.pagepolicy import ClosePagePolicy
from repro.mitigations.base import EpisodeDecision
from repro.mitigations.mopac_c import MoPACCPolicy
from repro.mitigations.prac import BaselinePolicy, PRACMoatPolicy
from repro.obs.tracer import TraceEvent

from ..mc.helpers import assert_legal, traced_driver

BASE = ddr5_base().scaled_refresh(1 / 256)
PRAC = ddr5_prac().scaled_refresh(1 / 256)


def config(timing=BASE):
    return DRAMConfig(subchannels=1, banks_per_subchannel=4,
                      rows_per_bank=128, timing=timing)


def run(driver):
    """Drain the driver; returns its traced events (oracle-checked)."""
    driver.run()
    assert_legal(driver)
    return driver.tracer.events()


def times(events, kind, bank=0):
    return [e.time_ps for e in events if e.kind == kind and e.bank == bank]


def rules(*events):
    """Rule ids the oracle flags on a hand-built bank-0 stream."""
    oracle = ConformanceOracle(OracleConfig(
        normal=BASE, counter_update=PRAC, banks=4))
    return {v.rule for v in oracle.verify(
        [TraceEvent(t, kind, 0, 0, row) for t, kind, row in events])}


class TestActivate:
    def test_activate_opens_row(self):
        driver = traced_driver()
        driver.submit(0, 7)
        run(driver)
        assert driver.mc.open_row[0] == 7

    def test_activate_returns_column_ready(self):
        driver = traced_driver()
        driver.submit(0, 7, at=1000)
        events = run(driver)
        (act,) = times(events, "ACT")
        assert driver.mc.ready_col[0] == act + BASE.tRCD
        assert times(events, "RD") == [act + BASE.tRCD]

    def test_double_activate_rejected(self):
        assert "act.open" in rules((0, "ACT", 7), (10 ** 9, "ACT", 8))

    def test_activate_before_ready_rejected(self):
        pre = BASE.tRAS
        early = pre + BASE.tRP - 1
        assert "act.early" in rules((0, "ACT", 7), (pre, "PRE", 7),
                                    (early, "ACT", 8))

    def test_activate_counts(self):
        driver = traced_driver()
        driver.submit(0, 7)
        run(driver)
        assert driver.mc.bank_stats[0].activations == 1


class TestColumnCommands:
    def test_read_needs_trcd(self):
        assert "col.early" in rules((0, "ACT", 7),
                                    (BASE.tRCD - 1, "RD", 7))

    def test_read_at_trcd_ok(self):
        driver = traced_driver()
        request = driver.submit(0, 7)
        run(driver)
        assert request.completion_ps == BASE.tRCD + BASE.tCAS + BASE.tBURST
        assert rules((0, "ACT", 7), (BASE.tRCD, "RD", 7)) == set()

    def test_read_wrong_row_rejected(self):
        assert "col.row" in rules((0, "ACT", 7), (BASE.tRCD, "RD", 8))

    def test_read_while_idle_rejected(self):
        assert "col.closed" in rules((10 ** 9, "RD", 7))

    def test_write_extends_precharge_readiness(self):
        driver = traced_driver()
        driver.submit(0, 7)
        driver.run()
        before = driver.mc.ready_pre[0]
        driver.submit(0, 7, at=BASE.tRAS, is_write=True)  # late write
        events = run(driver)
        (write,) = times(events, "WR")
        assert driver.mc.ready_pre[0] \
            == write + BASE.tBURST + BASE.tWR > before

    def test_reads_count_as_row_hits(self):
        driver = traced_driver()
        driver.submit(0, 7)
        driver.submit(0, 7)
        run(driver)
        assert driver.mc.bank_stats[0].row_hits == 2


class TestPrecharge:
    def test_precharge_before_tras_rejected(self):
        assert "pre.early" in rules((0, "ACT", 7),
                                    (BASE.tRAS - 1, "PRE", 7))

    def test_precharge_closes_row(self):
        driver = traced_driver(page_policy=ClosePagePolicy())
        driver.submit(0, 7)
        events = run(driver)
        assert times(events, "PRE") == [BASE.tRAS]
        assert driver.mc.open_row[0] == -1

    def test_precharge_while_idle_rejected(self):
        assert "pre.idle" in rules((10 ** 9, "PRE", 7))

    def test_next_act_respects_trp(self):
        driver = traced_driver(page_policy=ClosePagePolicy())
        driver.submit(0, 7)
        run(driver)
        assert driver.mc.ready_act[0] == BASE.tRAS + BASE.tRP
        assert driver.mc.ready_act[0] == BASE.tRC  # tRC = tRAS + tRP

    def test_next_act_respects_trc_for_early_precharge(self):
        """With PRAC's short tRAS the tRP path can undercut tRC; tRC
        still binds."""
        driver = traced_driver(PRACMoatPolicy(500, 4, 128, 32, timing=PRAC),
                               ClosePagePolicy(), config(PRAC))
        driver.submit(0, 1)
        events = run(driver)
        (act,), (pre,) = times(events, "ACT"), times(events, "PRE")
        assert driver.mc.ready_act[0] == max(pre + PRAC.tRP, act + PRAC.tRC)

    def test_counter_update_precharge_counted(self):
        import random
        policy = MoPACCPolicy(500, banks=4, rows=128, p=1.0,
                              refresh_groups=32, rng=random.Random(0))
        driver = traced_driver(policy, ClosePagePolicy())
        driver.submit(0, 7)
        run(driver)
        assert driver.mc.bank_stats[0].counter_update_precharges == 1

    def test_precharge_with_override_timing(self):
        """MoPAC-C closes a selected episode with the PRAC tRP."""
        import random
        policy = MoPACCPolicy(500, banks=4, rows=128, p=1.0,
                              refresh_groups=32, rng=random.Random(0))
        driver = traced_driver(policy, ClosePagePolicy())
        driver.submit(0, 7)
        events = run(driver)
        (pre,) = times(events, "PRE")
        assert driver.mc.ready_act[0] >= pre + ddr5_prac().tRP
        assert ddr5_prac().tRP > BASE.tRP


class TestBlocking:
    def test_block_delays_activation(self):
        policy = PRACMoatPolicy(500, 4, 128, 32, timing=PRAC)
        driver = traced_driver(policy, config=config(PRAC))
        policy.state.update(0, 64, policy.ath)
        policy._request_alert()  # ALERT: RFM stall of every bank
        driver.submit(1, 3)
        late = driver.submit(2, 7, at=200_000)  # lands inside the stall
        events = run(driver)
        blocked = driver.mc.blocked_until[2]
        assert times(events, "ACT", bank=2)[0] >= blocked > late.arrival_ps

    def test_block_is_monotonic(self):
        mc = traced_driver().mc
        mc._block((0,), 5000)
        mc._block((0,), 1000)
        assert mc.blocked_until[0] == 5000


class _AlternatingPolicy(BaselinePolicy):
    """Odd rows open PRAC-timed (counter-update) episodes, even rows
    baseline ones: two timing sets on one bank."""

    def __init__(self):
        super().__init__(BASE)
        self._prac = EpisodeDecision(PRAC, PRAC, True)

    def on_activate(self, bank, row, now):
        super().on_activate(bank, row, now)
        return self._prac if row % 2 else self._plain_decision

    def timing_pair(self):
        return BASE, PRAC


class TestEpisodeTiming:
    """Per-episode timing is what lets PRAC and MoPAC-C coexist."""

    def test_prac_episode_uses_prac_trcd(self):
        driver = traced_driver(PRACMoatPolicy(500, 4, 128, 32, timing=PRAC),
                               config=config(PRAC))
        driver.submit(0, 1)
        events = run(driver)
        (act,), (read,) = times(events, "ACT"), times(events, "RD")
        assert read - act == PRAC.tRCD

    def test_mixed_episodes(self):
        """A PRAC episode followed by a baseline episode."""
        driver = traced_driver(_AlternatingPolicy())
        driver.submit(0, 1)
        driver.submit(0, 2)
        events = run(driver)
        first, second = times(events, "ACT")
        (pre,) = times(events, "PRE")
        assert second == max(pre + PRAC.tRP, first + PRAC.tRC)
        assert driver.mc.ready_pre[0] == second + BASE.tRAS


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.booleans()),
                min_size=1, max_size=40),
       st.booleans())
def test_legal_sequences_never_violate(stream, use_prac):
    """Property: whatever mix of hits, conflicts and writes reaches a
    bank, the commands the controller dates are legal, and each bank's
    open/closed state follows ACT/PRE pairing."""
    timing = PRAC if use_prac else BASE
    policy = (PRACMoatPolicy(500, 4, 128, 32, timing=timing) if use_prac
              else BaselinePolicy(timing))
    driver = traced_driver(policy, config=config(timing))
    for index, (bank, row, is_write) in enumerate(stream):
        driver.submit(bank, row, at=index * 5_000, is_write=is_write)
    run(driver)
    mc = driver.mc
    for stats, open_row in zip(mc.bank_stats, mc.open_row):
        assert stats.activations - stats.precharges \
            == (1 if open_row >= 0 else 0)
