"""Pinned golden results of the activation-level attack harness.

``tests/attacks/data/goldens.json`` holds, for every case below, the
digest of everything one harness run reports, plus a few readable
fields:

* the :class:`~repro.attacks.harness.AttackResult` (ledger report,
  activations, ``elapsed_ps``, alerts);
* the policy's ``stats``;
* the policy's ``security.as_dict`` snapshot (histograms in full).

The cases are every registry design under four patterns (double-sided,
random spray, SRQ fill, one hot row per bank) at two geometries:
perfbench's 32 x 65536 with 8192 refresh groups, and 4 x 256 with 64
refresh groups, where refresh wraps and the ALERT paths fire. One case
stops on the first ledger failure, and two ``run_differential`` reports
(which drive the counter-conservation observers) are pinned whole.

Any change to how the harness paces activations, how a policy counts,
mitigates or refreshes, or how the ledger and the security shadow keep
score changes a digest here, so a representation or loop change that
claims "same results" is checked against numbers frozen before it.

Regenerate only for a deliberate behaviour change (and say why in the
change log)::

    PYTHONPATH=src python -m tests.attacks.test_goldens --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro.attacks import patterns
from repro.attacks.harness import AttackHarness
from repro.check.differential import run_differential
from repro.mitigations import registry
from repro.obs.registry import Histogram

FIXTURE = pathlib.Path(__file__).parent / "data" / "goldens.json"

#: name -> (banks, rows, refresh_groups, trh, activations)
GEOMETRIES = {
    "perf": (32, 65_536, 8192, 500, 5_000),
    "small": (4, 256, 64, 500, 20_000),
}

PATTERNS = ("double-sided", "spray", "srq-fill", "multi-bank")

#: policy build seed and pattern RNG seed
POLICY_SEED = 7
PATTERN_SEED = 11

#: T_RH of the stop-on-failure case
STOP_TRH = 125

#: run_differential keyword sets, pinned report by report
DIFFERENTIALS = {
    # the contract suite's run (tests/mitigations/test_contract.py)
    "differential/contract": dict(trh=250, activations=12_000, banks=4,
                                  rows=256, refresh_groups=64,
                                  seed=0xD1FF),
    "differential/default-geometry": dict(trh=500, activations=8_000),
}


def make_pattern(name: str, banks: int, rows: int):
    if name == "double-sided":
        return patterns.double_sided(1, rows // 2)
    if name == "spray":
        return patterns.random_spray(banks, rows,
                                     random.Random(PATTERN_SEED))
    if name == "srq-fill":
        return patterns.srq_fill(2, rows // 2, start_row=rows // 4)
    if name == "multi-bank":
        return patterns.multi_bank_single_row(range(banks), rows // 3)
    if name == "many-sided":
        return patterns.many_sided(0, range(10, 58, 2))
    raise ValueError(name)


def _harness_cases() -> dict[str, tuple]:
    """name -> (geometry, design, pattern, T_RH, stop_on_failure)."""
    cases = {}
    for geometry, (_, _, _, trh, _) in GEOMETRIES.items():
        for design in registry.names():
            for pattern in PATTERNS:
                cases[f"{geometry}/{design}.{pattern}"] = (
                    geometry, design, pattern, trh, False)
    # TRR is registered insecure: 24 aggressors overflow its 16 entries,
    # and the run must stop on the ACT that pushes a row past T_RH
    cases["stop/trr.many-sided"] = ("small", "trr", "many-sided",
                                    STOP_TRH, True)
    return cases


HARNESS_CASES = _harness_cases()

CASES = sorted(HARNESS_CASES) + sorted(DIFFERENTIALS)


def _plain(value):
    """JSON form of a snapshot value (histograms in full)."""
    if isinstance(value, Histogram):
        return {"bounds": list(value.bounds), "counts": list(value.counts),
                "count": value.count, "total": value.total}
    raise TypeError(f"cannot pin {type(value).__name__}")


def digest(document) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"),
                      default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_harness_case(name: str) -> dict:
    geometry, design, pattern, trh, stop = HARNESS_CASES[name]
    banks, rows, groups, _, activations = GEOMETRIES[geometry]
    spec = registry.get(design)
    policy = spec.build(trh, banks, rows, groups, seed=POLICY_SEED)
    harness = AttackHarness(policy, spec.effective_trh(trh), banks, rows,
                            groups)
    result = harness.run(make_pattern(pattern, banks, rows), activations,
                         stop_on_failure=stop)
    security = (policy.security.as_dict(policy.stats)
                if policy.security is not None else None)
    document = [dataclasses.asdict(result.ledger), result.activations,
                result.elapsed_ps, result.alerts, policy.stats.as_dict(),
                security]
    return {
        "digest": digest(document),
        "acts": result.activations,
        "alerts": result.alerts,
        "elapsed_ps": result.elapsed_ps,
        "max_count": result.ledger.max_count,
        "mitigations": policy.stats.mitigations,
        "max_disturbance": security["max_disturbance"] if security else 0,
        "refresh_rounds": harness.ledger.refresh_schedule.rounds,
    }


def run_differential_case(name: str) -> dict:
    report = run_differential(**DIFFERENTIALS[name])
    return {
        "digest": digest(dataclasses.asdict(report)),
        "failures": len(report.failures),
        "alerts": sum(o.alerts for o in report.outcomes),
        "mitigations": sum(o.mitigations for o in report.outcomes),
    }


def measure(name: str) -> dict:
    if name in DIFFERENTIALS:
        return run_differential_case(name)
    return run_harness_case(name)


def load() -> dict:
    return json.loads(FIXTURE.read_text())


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------
GOLDENS = load() if FIXTURE.exists() else {}


def test_fixture_covers_every_case():
    assert sorted(GOLDENS) == sorted(CASES)


def test_cases_exercise_the_rare_paths():
    """The small geometry wraps refresh and fires ALERTs; the stop case
    stops early; the differential reports are clean."""
    small = [GOLDENS[n] for n in GOLDENS if n.startswith("small/")]
    assert all(case["refresh_rounds"] >= 1 for case in small)
    for design in ("prac", "moat", "cnc-prac", "practical", "mopac-c",
                   "mopac-d"):
        assert GOLDENS[f"small/{design}.double-sided"]["alerts"] > 0
    assert GOLDENS["small/mopac-d.srq-fill"]["alerts"] > 0
    stop = GOLDENS["stop/trr.many-sided"]
    assert stop["acts"] < GEOMETRIES["small"][4]
    assert stop["max_count"] == STOP_TRH + 1
    assert all(GOLDENS[name]["failures"] == 0 for name in DIFFERENTIALS)


@pytest.mark.parametrize("name", sorted(HARNESS_CASES))
def test_harness_run_matches_golden(name):
    assert run_harness_case(name) == GOLDENS[name]


@pytest.mark.parametrize("name", sorted(DIFFERENTIALS))
def test_differential_report_matches_golden(name):
    assert run_differential_case(name) == GOLDENS[name]


def write() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    document = {name: measure(name) for name in CASES}
    FIXTURE.write_text(json.dumps(document, indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {len(document)} golden cases to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.attacks.test_goldens "
                         "--write")
    write()
