"""Helpers for driving one real memory controller in isolation."""

from __future__ import annotations

from repro.check.driver import verify_controller
from repro.config import DRAMConfig
from repro.dram.timing import ddr5_base
from repro.mc.driver import ControllerDriver
from repro.mitigations.prac import BaselinePolicy
from repro.obs.tracer import EventTracer


def traced_driver(policy=None, page_policy=None, config=None,
                  refresh_mode="all-bank") -> ControllerDriver:
    """A lone controller (4 banks, 128 rows by default) with a tracer
    attached, so :func:`assert_legal` can replay its command stream."""
    config = config or DRAMConfig(
        subchannels=1, banks_per_subchannel=4, rows_per_bank=128,
        timing=ddr5_base().scaled_refresh(1 / 256))
    policy = policy or BaselinePolicy(config.timing)
    return ControllerDriver(config, policy, page_policy, refresh_mode,
                            tracer=EventTracer(capacity=500_000))


def assert_legal(driver: ControllerDriver) -> None:
    """The driver's traced stream passes the conformance oracle."""
    violations = verify_controller(driver)
    assert violations == [], violations[:3]
