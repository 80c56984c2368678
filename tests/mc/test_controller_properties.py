"""Property-based stress of the memory controller."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DRAMConfig
from repro.dram.timing import ddr5_base, ddr5_prac
from repro.mitigations.prac import BaselinePolicy, PRACMoatPolicy

from .helpers import assert_legal, traced_driver


def drive(requests, use_prac=False):
    """Push a request stream through one traced controller; the command
    stream it emits must pass the conformance oracle."""
    timing = (ddr5_prac() if use_prac else ddr5_base()) \
        .scaled_refresh(1 / 256)
    config = DRAMConfig(subchannels=1, banks_per_subchannel=4,
                        rows_per_bank=64, timing=timing)
    policy = (PRACMoatPolicy(500, 4, 64, 8, timing=timing) if use_prac
              else BaselinePolicy(timing))
    driver = traced_driver(policy, config=config)
    driver.start()
    submitted = [driver.submit(bank, row, arrival, is_write)
                 for arrival, bank, row, is_write in requests]
    horizon = (max((a for a, *_ in requests), default=0)
               + 100 * timing.tRC + 10 * timing.tRFC)
    mc = driver.mc
    while driver.next_time() is not None \
            and driver.next_time() <= horizon \
            and mc.stats.serviced < len(submitted):
        driver.step()
    assert_legal(driver)
    done = [r for r in submitted if r.completion_ps is not None]
    return mc, submitted, done


request_streams = st.lists(
    st.tuples(st.integers(0, 2_000_000),  # arrival ps
              st.integers(0, 3),  # bank
              st.integers(0, 63),  # row
              st.booleans()),  # write
    min_size=1, max_size=60)


@settings(max_examples=30, deadline=None)
@given(request_streams, st.booleans())
def test_every_request_completes(requests, use_prac):
    _, submitted, done = drive(sorted(requests), use_prac)
    assert len(done) == len(submitted)


@settings(max_examples=30, deadline=None)
@given(request_streams)
def test_completion_never_precedes_arrival(requests):
    _, submitted, _ = drive(sorted(requests))
    for request in submitted:
        assert request.completion_ps is not None
        assert request.completion_ps > request.arrival_ps


@settings(max_examples=30, deadline=None)
@given(request_streams)
def test_accounting_identity(requests):
    mc, submitted, _ = drive(sorted(requests))
    stats = mc.stats
    assert stats.requests == len(submitted)
    assert stats.row_hits + stats.row_misses + stats.row_conflicts \
        == stats.requests
    assert stats.reads + stats.writes == stats.requests


@settings(max_examples=20, deadline=None)
@given(request_streams)
def test_prac_never_faster_than_baseline_in_total(requests):
    """PRAC only adds latency; the last completion cannot come earlier.

    Up to one tBURST of slack: the PRAC timing shifts can legally flip
    the commit order of two banks' service passes, chaining the tail
    request's column access behind a different burst in each run.
    """
    requests = sorted(requests)
    _, base_requests, _ = drive(requests, use_prac=False)
    _, prac_requests, _ = drive(requests, use_prac=True)
    base_end = max(r.completion_ps for r in base_requests)
    prac_end = max(r.completion_ps for r in prac_requests)
    slack = ddr5_base().tBURST
    assert prac_end >= base_end - slack
