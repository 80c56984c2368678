"""Determinism matrix: one seed, one answer — regardless of machinery.

The same design point must produce bit-identical ``SystemResult.stats``
(and core/MC stats) across every combination of machinery:

* **transport**: serial inline execution vs the parallel sweep engine;
* **observability**: with and without an :class:`EventTracer` attached.

Each check holds against both former engines' answers. The engine runs
the fast engine's machinery, so ``fast`` compares its runs with each
other; the reference event loop survives as the results it pinned in
``tests/sim/data/goldens.json``, so ``reference`` requires every run to
reproduce that pinned digest.

Tracing is observability, not physics; parallelism is transport, not
physics. Any divergence here means hidden global state, an
order-dependent code path, or an engine change that altered the
simulated event sequence.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.driver import (oracle_config_for, result_digest,
                                trace_digest)
from repro.check.oracle import ConformanceOracle
from repro.exec.engine import SweepEngine
from repro.obs.tracer import EventTracer
from repro.sim.runner import DesignPoint, run_point

from ..sim.test_goldens import GOLDENS, MATRIX, POINTS

POINTS_UNDER_TEST = [POINTS[f"matrix/{workload}.{design}"]
                     for workload, design in MATRIX]


def label(point):
    return f"{point.workload}.{point.design}"


ENGINES = ("reference", "fast")


def fingerprint(result):
    return (
        dict(result.stats),
        [dataclasses.asdict(s) for s in result.core_stats],
        [dataclasses.asdict(s) for s in result.mc_stats],
        result.elapsed_ps,
    )


def assert_agree(engine, point, *results):
    """``fast``: the runs are bit-identical to each other. ``reference``:
    each run reproduces the reference event loop's pinned digest."""
    if engine == "fast":
        first = fingerprint(results[0])
        for result in results[1:]:
            assert fingerprint(result) == first, point
    else:
        want = GOLDENS[f"matrix/{label(point)}"]["result"]
        for result in results:
            assert result_digest(result) == want, point


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("point", POINTS_UNDER_TEST, ids=label)
class TestTracerTransparency:
    def test_tracer_on_equals_tracer_off(self, point, engine):
        bare = run_point(point)
        tracer = EventTracer(capacity=2_000_000)
        traced = run_point(point, tracer=tracer)
        assert len(tracer) > 0  # the traced run really did record
        assert_agree(engine, point, traced, bare)

    def test_rerun_is_bit_identical(self, point, engine):
        assert_agree(engine, point, run_point(point), run_point(point))


@pytest.mark.parametrize("point", POINTS_UNDER_TEST, ids=label)
class TestEngineEquivalence:
    """The engine reproduces the reference event loop's pinned output."""

    def test_fast_matches_reference(self, point):
        want = GOLDENS[f"matrix/{label(point)}"]["result"]
        assert result_digest(run_point(point)) == want

    def test_traced_events_match(self, point):
        tracer = EventTracer(capacity=2_000_000)
        run_point(point, tracer=tracer)
        want = GOLDENS[f"matrix/{label(point)}"]["trace"]
        assert trace_digest(tracer.events()) == want


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_sweep_paths_agree(self, engine):
        serial = SweepEngine(workers=1, parallel=False, cache=None,
                             use_memo=False)
        parallel = SweepEngine(workers=2, parallel=True, cache=None,
                               use_memo=False)
        serial_results = serial.run(POINTS_UNDER_TEST)
        parallel_results = parallel.run(POINTS_UNDER_TEST)
        for point, a, b in zip(POINTS_UNDER_TEST, serial_results,
                               parallel_results):
            assert_agree(engine, point, a, b)


@settings(max_examples=8, deadline=None)
@given(
    workload=st.sampled_from(("add", "mcf", "hammer", "mix2")),
    design=st.sampled_from(("baseline", "prac", "qprac", "mopac-c",
                            "mopac-d", "mopac-d-nup")),
    instructions=st.integers(min_value=2_000, max_value=8_000),
    page_policy=st.sampled_from(("open", "close", "ton100")),
    refresh_mode=st.sampled_from(("all-bank", "same-bank")),
)
def test_random_points_pass_oracle_and_rerun_identically(
        workload, design, instructions, page_policy, refresh_mode):
    """Property: an arbitrary short design point emits a legal command
    stream, and a rerun reproduces its result and stream exactly."""
    point = DesignPoint(workload=workload, design=design, trh=500,
                        instructions=instructions, rows_per_bank=512,
                        refresh_scale=1 / 256, page_policy=page_policy,
                        refresh_mode=refresh_mode)
    runs = []
    for _ in range(2):
        tracer = EventTracer(capacity=2_000_000)
        result = run_point(point, tracer=tracer)
        assert tracer.dropped == 0
        runs.append((fingerprint(result), tracer.events()))
    assert runs[0] == runs[1]
    oracle = ConformanceOracle(oracle_config_for(point))
    assert oracle.verify(runs[0][1]) == []
