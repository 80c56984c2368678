"""Pinned golden results: the simulator's numbers and command streams.

``tests/sim/data/goldens.json`` holds, for every case below, the digest
of the run's result document (``stats`` / ``core_stats`` / ``mc_stats``
/ ``elapsed_ps``, the shape of ``perfbench/common.py:result_fingerprint``)
and the sha256 of its traced DRAM command stream. Any change to the
simulated event sequence — scheduler, refresh, ABO, a mitigation hook,
the CPU frontend, trace generation — changes a digest here, so a
refactor that claims "same physics" is checked against numbers frozen
before it, not against a second copy of the engine.

Every traced case is also replayed through the conformance oracle,
which must report zero violations: the engine elides per-command
legality guards, and the oracle is what re-verifies legality.

The cases cover every registry design plus the unprotected baseline,
the Table 4 workload anchors, ``hammer`` at T_RH 125 (ALERT/RFM fire),
each page policy, all-bank and same-bank refresh, the row-activity
census, an LLC-filtered ``System`` and a hand-rolled (non-generator)
trace iterator, each with the tracer on; a subset is re-run with the
tracer off and must give the same result digest.

Regenerate only for a deliberate behaviour change (and say why in the
change log)::

    PYTHONPATH=src python -m tests.sim.test_goldens --write
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.check.driver import oracle_config_for, result_digest, trace_digest
from repro.check.oracle import ConformanceOracle, OracleConfig
from repro.config import DRAMConfig, SystemConfig
from repro.cpu.trace import TraceItem
from repro.dram.timing import ddr5_base
from repro.mitigations import registry
from repro.mitigations.prac import BaselinePolicy
from repro.obs.tracer import EventTracer
from repro.sim.runner import DesignPoint, run_point
from repro.sim.system import System

FIXTURE = pathlib.Path(__file__).parent / "data" / "goldens.json"

#: ample for every case below (the ring must never drop an event)
CAPACITY = 2_000_000

SHORT = dict(instructions=6_000, rows_per_bank=512, refresh_scale=1 / 256)

#: the contract suite's per-design point (tests/mitigations/test_contract.py)
CONTRACT = dict(workload="hammer", trh=500, instructions=5_000,
                rows_per_bank=128, refresh_scale=1 / 256, seed=7)

#: the determinism matrix's points (tests/check/test_determinism.py)
MATRIX = (("mcf", "mopac-c"), ("xalancbmk", "mopac-d"), ("hammer", "qprac"))

ANCHORS = ("mix1", "mcf", "lbm", "add", "xalancbmk", "hammer")

#: (design, T_RH, instructions) hammer points whose ALERT/RFM fire:
#: MoPAC's sampled counters cross ATH at T_RH 125, the exact PRAC
#: family needs T_RH 64 at this scale
ALERTS = (("mopac-c", 125, 20_000), ("mopac-d", 125, 20_000),
          ("prac", 64, 20_000), ("moat", 64, 20_000),
          ("qprac", 64, 20_000), ("practical", 64, 20_000),
          ("qprac-proactive", 64, 40_000))


def _points() -> dict[str, DesignPoint]:
    points: dict[str, DesignPoint] = {}
    for design in ("baseline",) + registry.names() + ("mopac-d-nup",):
        points[f"design/{design}"] = DesignPoint(design=design, **CONTRACT)
    for workload, design in MATRIX:
        points[f"matrix/{workload}.{design}"] = DesignPoint(
            workload=workload, design=design, **SHORT)
    for workload in ANCHORS:
        points[f"anchor/{workload}.prac"] = DesignPoint(
            workload=workload, design="prac", instructions=4_000,
            rows_per_bank=512, refresh_scale=1 / 256)
    for design, trh, instructions in ALERTS:
        points[f"alert/hammer.{design}.t{trh}"] = DesignPoint(
            workload="hammer", design=design, trh=trh,
            instructions=instructions, rows_per_bank=128,
            refresh_scale=1 / 256)
    points["alert/hammer.mopac-d.t125.abo2"] = DesignPoint(
        workload="hammer", design="mopac-d", trh=125, abo_level=2,
        instructions=20_000, rows_per_bank=128, refresh_scale=1 / 256)
    for page in ("open", "close", "ton100"):
        points[f"page/{page}.mcf.mopac-c"] = DesignPoint(
            workload="mcf", design="mopac-c", page_policy=page, **SHORT)
    points["refresh/same-bank.mcf.mopac-d"] = DesignPoint(
        workload="mcf", design="mopac-d", refresh_mode="same-bank",
        **SHORT)
    points["refresh/same-bank.hammer.prac.t64"] = DesignPoint(
        workload="hammer", design="prac", trh=64, instructions=20_000,
        rows_per_bank=128, refresh_scale=1 / 256, refresh_mode="same-bank")
    points["refresh/same-bank.add.baseline.close"] = DesignPoint(
        workload="add", design="baseline", refresh_mode="same-bank",
        page_policy="close", **SHORT)
    points["rowact/mcf.baseline"] = DesignPoint(
        workload="mcf", design="baseline", collect_row_activity=True,
        **SHORT)
    points["rowact/hammer.mopac-d"] = DesignPoint(
        workload="hammer", design="mopac-d", collect_row_activity=True,
        **SHORT)
    return points


POINTS = _points()


# ---------------------------------------------------------------------------
# Hand-built System runs (not reachable through a DesignPoint)
# ---------------------------------------------------------------------------
def _small_config() -> SystemConfig:
    dram = DRAMConfig(subchannels=2, banks_per_subchannel=4,
                      rows_per_bank=256,
                      timing=ddr5_base().scaled_refresh(1 / 256))
    return SystemConfig(dram=dram, cores=2)


def _mixed_trace(core: int, n: int, reuse: bool):
    """Plain generator of TraceItems: sequential runs, jumps, writes and
    (with ``reuse``) a small hot set the LLC can hold."""
    base = core * 40_000
    for i in range(n):
        if reuse and i % 3:
            line = base + 20_000 + (i % 48)
        else:
            line = base + (i if i % 4 else i * 37)
        yield TraceItem(5 + (i * 11 + core) % 23, line * 64,
                        is_write=(i % 5 == 0))


def _system(use_llc: bool, tracer: EventTracer | None) -> System:
    config = _small_config()
    traces = [_mixed_trace(core, 400, use_llc)
              for core in range(config.cores)]
    return System(config, lambda i: BaselinePolicy(config.dram.timing),
                  traces, 8_000, use_llc=use_llc, tracer=tracer)


SYSTEMS = {"system/generic-iterator": False, "system/llc": True}

CASES = sorted(POINTS) + sorted(SYSTEMS)

#: re-run with the tracer off: the result digest must not move
UNTRACED = sorted(f"anchor/{w}.prac" for w in ANCHORS) + [
    "alert/hammer.mopac-d.t125", "alert/hammer.practical.t64",
    "page/ton100.mcf.mopac-c",
    "refresh/same-bank.hammer.prac.t64", "rowact/hammer.mopac-d",
    "system/generic-iterator", "system/llc"]


def run_case(name: str, tracer: EventTracer | None):
    """The case's ``SystemResult`` (traced into ``tracer`` if given)."""
    if name in SYSTEMS:
        return _system(SYSTEMS[name], tracer).run()
    return run_point(POINTS[name], tracer=tracer)


def oracle_config(name: str) -> OracleConfig:
    if name in SYSTEMS:
        config = _small_config()
        return OracleConfig.from_policy(
            BaselinePolicy(config.dram.timing),
            banks=config.dram.banks_per_subchannel)
    return oracle_config_for(POINTS[name])


def measure(name: str) -> dict:
    """Run one case traced; the fixture entry it should match."""
    tracer = EventTracer(capacity=CAPACITY)
    result = run_case(name, tracer)
    assert tracer.dropped == 0, name
    events = tracer.events()
    return {
        "result": result_digest(result),
        "trace": trace_digest(events),
        "events": len(events),
        "elapsed_ps": result.elapsed_ps,
        "requests": result.total_requests,
        "acts": result.total_activations,
        "alerts": result.total_alerts,
    }


def load() -> dict:
    return json.loads(FIXTURE.read_text())


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------
GOLDENS = load() if FIXTURE.exists() else {}


def test_fixture_covers_every_case():
    assert sorted(GOLDENS) == sorted(CASES)


def test_cases_exercise_the_rare_paths():
    """The pinned set really reaches ALERT/RFM and LLC filtering."""
    assert all(GOLDENS[f"alert/hammer.{d}.t{trh}"]["alerts"] > 0
               for d, trh, _ in ALERTS)
    assert GOLDENS["refresh/same-bank.hammer.prac.t64"]["alerts"] > 0
    assert GOLDENS["system/llc"]["requests"] \
        < GOLDENS["system/generic-iterator"]["requests"]


@pytest.mark.parametrize("name", CASES)
def test_traced_run_matches_golden(name):
    tracer = EventTracer(capacity=CAPACITY)
    result = run_case(name, tracer)
    assert tracer.dropped == 0
    events = tracer.events()
    want = GOLDENS[name]
    assert (result.elapsed_ps, result.total_requests,
            result.total_activations, result.total_alerts, len(events)) \
        == (want["elapsed_ps"], want["requests"], want["acts"],
            want["alerts"], want["events"])
    assert result_digest(result) == want["result"]
    assert trace_digest(events) == want["trace"]
    violations = ConformanceOracle(oracle_config(name)).verify(events)
    assert violations == [], violations[:3]


@pytest.mark.parametrize("name", UNTRACED)
def test_untraced_run_matches_golden(name):
    assert result_digest(run_case(name, None)) == GOLDENS[name]["result"]


def write() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    document = {name: measure(name) for name in CASES}
    FIXTURE.write_text(json.dumps(document, indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {len(document)} golden cases to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.sim.test_goldens --write")
    write()
