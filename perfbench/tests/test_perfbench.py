"""Tests of the benchmark itself (not of the program it measures)."""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from perfbench import attack, cold, common, fabric, run
from perfbench.hostspeed import Fence
from perfbench.tracing import Span, SpanLog, WrapperCost, self_times

ROOT = pathlib.Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Percentile with ten samples beyond it
# ----------------------------------------------------------------------
def test_p90_of_100_samples_has_ten_beyond():
    samples = list(range(1, 101))
    assert common.tail_percentile(samples, 0.9) == 90
    assert common.tail_percentile(list(reversed(samples)), 0.9) == 90


def test_p90_refuses_fewer_than_ten_beyond():
    with pytest.raises(ValueError, match="9 beyond"):
        common.tail_percentile(list(range(99)), 0.9)
    with pytest.raises(ValueError):
        common.tail_percentile([], 0.5)


def test_tail_rule_grows_with_sample_count():
    samples = list(range(1, 201))
    assert common.tail_percentile(samples, 0.9) == 180
    assert common.tail_percentile(samples, 0.95) == 190
    with pytest.raises(ValueError):
        common.tail_percentile(samples, 0.99)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def span(span_id, name, start, end, parent=None, calls=None):
    record = Span(span_id, name, start, parent, "test", end)
    record.calls.update(calls or {})
    return record


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, "exec.sweep", 0, 100),
        # overlapping children cover [10, 50): 40, not 30 + 30
        span(2, "sim.run", 10, 40, parent=1),
        span(3, "sim.run", 20, 50, parent=1),
        # a child sticking out of its parent is clipped to it
        span(4, "serve.result", 90, 130, parent=1),
    ]
    times = self_times(spans)
    assert times["exec"] == pytest.approx(50e-9)
    assert times["sim"] == pytest.approx(60e-9)
    assert times["serve"] == pytest.approx(40e-9)


def test_self_time_takes_out_aggregated_calls_and_wrapper_cost():
    spans = [span(1, "attacks.run", 0, 1000,
                  calls={"mitigations.on_activate": [10, 300],
                         "attacks.ledger.on_activate": [10, 200]})]
    times = self_times(spans, WrapperCost(inside_ns=5, outside_ns=10))
    # loop: 1000 - (300 + 10*10) - (200 + 10*10)
    assert times["attacks"] == pytest.approx((300 + 200 - 50) * 1e-9)
    assert times["mitigations"] == pytest.approx(250e-9)


def test_span_log_charges_calls_to_the_innermost_span():
    ticks = iter(range(0, 10_000, 10))
    log = SpanLog("test", clock=lambda: next(ticks))

    class Policy:
        def on_activate(self):
            return "decision"

    policy = Policy()
    log.wrap_aggregated(policy, "on_activate", "mitigations.on_activate")
    with log.span("attacks.run"):
        assert policy.on_activate() == "decision"
        with log.span("attacks.inner"):
            policy.on_activate()
    log.restore()
    assert "on_activate" not in vars(policy)
    outer, inner = log.spans
    assert outer.calls["mitigations.on_activate"][0] == 1
    assert inner.calls["mitigations.on_activate"][0] == 1
    assert log.count("mitigations.on_activate") == 2


def test_chrome_trace_opens_as_trace_events(tmp_path):
    log = SpanLog("run-7")
    with log.span("exec.sweep"):
        with log.span("sim.run_point"):
            log.add_call("mitigations.on_activate", 5)
    path = tmp_path / "trace.json"
    assert log.to_chrome_trace(path) == 3
    events = [e for e in json.loads(path.read_text())["traceEvents"]
              if e["ph"] == "X"]
    assert [e["name"] for e in events] == [
        "exec.sweep", "sim.run_point", "mitigations.on_activate"]
    assert all(e["args"]["run_id"] == "run-7" for e in events)
    assert events[1]["args"]["parent_id"] == events[0]["args"]["span_id"]


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def test_perturbed_result_is_a_failed_operation(monkeypatch, capsys):
    from repro.sim import runner

    profile = cold.TINY
    points = cold.grid(profile, common.DEFAULT_SEED)
    honest = cold.fingerprints(points, [runner.run_point(p)
                                        for p in points])
    monkeypatch.setattr(common, "load_pins", lambda workload: honest)
    original = runner.run_point
    victim = points[-1]

    def perturbed(point, *args, **kwargs):
        result = original(point, *args, **kwargs)
        if point == victim:
            result.stats["mc.0.requests"] += 1
        return result

    monkeypatch.setattr(runner, "run_point", perturbed)
    state = cold.setup(profile)
    tally = common.Tally()
    try:
        cold.run(state, common.DEFAULT_SEED, 0.0, tally, profile)
    finally:
        cold.teardown(state)
    assert tally.failed == 1
    assert common.point_label(victim) in tally.failures[0]
    common.emit(tally, {"points_per_s": (1.0, "1/s")})
    document = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert document["correct"] is False
    assert document["failed"] == 1
    assert document["attempted"] > len(points)


def test_pins_match_at_the_default_seed():
    pins = json.loads(common.PINS.read_text())
    assert set(pins) == {"campaign-cold", "campaign-fabric",
                         "attack-harness"}
    tally = common.Tally()
    common.check_pins(tally, "campaign-cold", common.DEFAULT_SEED,
                      dict(pins["campaign-cold"], extra="x"))
    assert tally.failed == 0
    common.check_pins(tally, "campaign-cold", common.DEFAULT_SEED + 1, {})
    assert tally.failed == 0


def test_secure_design_breach_is_a_failed_operation(monkeypatch):
    profile = attack.TINY
    batch = attack.points(profile, 5, 0)
    real = attack.resolve

    def breached(point, *args, **kwargs):
        outcome = real(point, *args, **kwargs)
        outcome.succeeded = True
        return outcome

    monkeypatch.setattr(attack, "resolve", breached)
    tally = common.Tally()
    attack.run_pass(batch, profile, tally, Fence(None))
    secure = [p for p in batch if p.design != "trr"]
    assert tally.attempted == len(secure)
    assert tally.failed == len(secure)


# ----------------------------------------------------------------------
# Exact counts repeat
# ----------------------------------------------------------------------
COUNTS = ("sim.requests", "sim.acts", "sim.row_conflicts", "sim.refreshes",
          "sim.rfms", "sim.alerts", "sim.fastforward_frac",
          "mitigations.hook_calls", "attacks.alerts", "attacks.mitigations",
          "serve.points_simulated", "serve.dedup_hits", "serve.cache_hits",
          "serve.duplicate_sims", "fabric.hedges", "fabric.failovers")


@pytest.mark.parametrize("module", [cold, attack, fabric],
                         ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_exact_counts_repeat_across_equal_seed_runs(module):
    runs = []
    for _ in range(2):
        state = module.setup(module.TINY)
        tally = common.Tally()
        try:
            values = module.traced(state, 11, tally, module.TINY)
        finally:
            module.teardown(state)
        assert tally.failed == 0, tally.failures
        runs.append({k: values[k] for k in COUNTS if k in values})
    assert runs[0] == runs[1]
    assert any(runs[0].values())


# ----------------------------------------------------------------------
# Contract
# ----------------------------------------------------------------------
def test_benchmark_json_lists_what_the_command_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.per_layer_spec())
    assert [w["name"] for w in spec["workloads"]] \
        == list(run.workload_modules())
    from repro.mitigations import registry
    assert run.ATTACK_DESIGNS == registry.names()
    assert run.parse(["--workload", "campaign-cold"]).seed \
        == common.DEFAULT_SEED


def test_scrub_env_drops_only_program_knobs():
    environ = {"REPRO_ENGINE": "fast", "REPRO_FABRIC_HEDGE_S": "0",
               "PATH": "/bin"}
    assert common.scrub_env(environ) == ["REPRO_ENGINE",
                                         "REPRO_FABRIC_HEDGE_S"]
    assert environ == {"PATH": "/bin"}


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------
def test_fence_scales_each_unit_by_the_samples_around_it():
    from perfbench.hostspeed import EXPONENT, REFERENCE_S, HostSpeed

    class Probe:
        readings = iter([2 * REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S])
        scale = staticmethod(HostSpeed.scale)

        def sample(self):
            return next(self.readings)

    fence = Fence(Probe())
    with fence.unit() as slow:
        pass
    # the closing sample of one unit opens the next
    with fence.unit() as faster:
        pass
    assert slow.scale == pytest.approx(0.5 ** EXPONENT)
    assert faster.scale == pytest.approx((1 / 1.5) ** EXPONENT)
    assert slow.scaled_s == pytest.approx(slow.wall_s * 0.5 ** EXPONENT)
    with Fence(None).unit() as plain:
        pass
    assert plain.scale == 1.0


def test_host_speed_probes_every_cpu_and_stops():
    from perfbench.hostspeed import HostSpeed

    speed = HostSpeed(repeats=1)
    try:
        assert set(speed.probes) == os.sched_getaffinity(0)
        assert speed.sample() > 0
        speed.use({min(speed.probes)})
        assert speed.sample() > 0
    finally:
        speed.close()
    assert all(p.poll() is not None for p in speed.probes.values())
