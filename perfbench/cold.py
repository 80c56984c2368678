"""campaign-cold: a direct ``SweepEngine`` over long Table 4-style points.

The simulation engine does nearly all the work here and the service
layers are absent, so this is the workload where a faster ``sim``/``mc``
shows and serve/fabric overhead must not.
"""

from __future__ import annotations

import dataclasses
import os
from statistics import median

from . import common
from .common import HOOKS, clock, tail_percentile
from .hostspeed import Fence, pin_one_cpu, unpin

#: Table 4 anchors: a rate mix, latency-bound mcf, streaming add/lbm,
#: low-MPKI xalancbmk, and the hot-row hammer workload.
WORKLOADS = ("mix1", "mcf", "add", "lbm", "xalancbmk", "hammer")
DESIGNS = ("baseline", "prac", "mopac-c", "mopac-d", "moat", "qprac")


@dataclasses.dataclass(frozen=True)
class Profile:
    instructions: int = 20_000
    workloads: tuple[str, ...] = WORKLOADS
    designs: tuple[str, ...] = DESIGNS
    #: hammer points at a low T_RH so the ALERT/RFM paths fire (at the
    #: default 500 the scaled runs record zero alerts)
    alert_designs: tuple[str, ...] = ("prac", "mopac-c", "mopac-d",
                                      "moat", "qprac")
    alert_trh: int = 125
    #: share of --seconds spent on cold passes; the rest is warm passes
    cold_share: float = 0.75
    #: a cold pass runs the grid in chunks of this many points per
    #: worker, one engine run and one host-speed unit each
    chunk_per_worker: int = 2
    #: nominal pass lengths on a 2-core 2.1 GHz Xeon VM; they turn
    #: --seconds into a fixed number of passes, so every run at the
    #: same --seconds does the same work
    cold_pass_s: float = 3.75
    warm_pass_s: float = 0.04
    #: per-point latency samples needed for a p90 with 10 beyond it
    min_samples: int = 100
    min_warm_passes: int = 3
    #: trace accesses drawn per core when timing TraceGenerator alone
    item_draws: int = 10_000
    setup_repeats: int = 5

    def passes(self, seconds: float, points: int) -> tuple[int, int]:
        """(cold, warm) pass counts for a run of ``seconds``."""
        cold = common.repeats(seconds * self.cold_share, self.cold_pass_s,
                              -(-self.min_samples // points))
        warm = common.repeats(seconds * (1 - self.cold_share),
                              self.warm_pass_s, self.min_warm_passes)
        return cold, warm


TINY = Profile(instructions=2_000, workloads=("mcf", "hammer"),
               designs=("baseline", "mopac-d"), alert_designs=("mopac-d",),
               min_samples=1, min_warm_passes=1, item_draws=512,
               setup_repeats=1, cold_pass_s=1e9, warm_pass_s=1e9)

IMPORTS = "import repro.exec.engine, repro.exec.cache, repro.sim.runner"


def grid(profile: Profile, seed: int) -> list:
    """Design-major, so that every sweep chunk mixes workloads and the
    long ones (add, lbm) are spread over many chunks."""
    from repro.rng import derive_seed
    from repro.sim.runner import DesignPoint

    point_seed = derive_seed(seed, "campaign-cold") & 0xFFFF_FFFF
    points = [DesignPoint(workload=w, design=d, trh=500,
                          instructions=profile.instructions,
                          seed=point_seed)
              for d in profile.designs for w in profile.workloads]
    points += [DesignPoint(workload="hammer", design=d,
                           trh=profile.alert_trh,
                           instructions=profile.instructions,
                           seed=point_seed)
               for d in profile.alert_designs]
    return points


def workers() -> int:
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup(profile: Profile, speed=None) -> dict:
    """Fresh interpreter imports plus a fresh cache directory."""
    import subprocess
    import sys

    def build():
        subprocess.run([sys.executable, "-c", IMPORTS], check=True,
                       env=common.child_env())
        return {"dirs": [common.fresh_dir("cold")]}

    state, setup_s = common.timed_setup(build, teardown,
                                        profile.setup_repeats, speed)
    state["setup_s"] = setup_s
    state["speed"] = speed
    return state


def teardown(state: dict) -> None:
    for path in state["dirs"]:
        common.remove_dir(path)


def _cache(state: dict, fresh: bool):
    from repro.exec.cache import ResultCache

    if fresh:
        state["dirs"].append(common.fresh_dir("cold"))
    return ResultCache(state["dirs"][-1])


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def sweep(points: list, cache, parallel: bool = True):
    """One ``SweepEngine.run``; returns (results, wall_s, engine,
    per-point time-to-result samples)."""
    from repro.exec.engine import SweepEngine

    done: list[float] = []
    start = clock()
    engine = SweepEngine(workers=workers() if parallel else 1,
                         parallel=parallel, cache=cache, use_memo=False,
                         progress=lambda outcome: done.append(
                             clock() - start))
    results = engine.run(points)
    wall = clock() - start
    return results, wall, engine, done


def fingerprints(points: list, results: list) -> dict[str, str]:
    return {common.point_label(p): common.result_fingerprint(r)
            for p, r in zip(points, results)}


def activations(results: list) -> int:
    return sum(s.activations for r in results for s in r.mc_stats)


def chunked_sweep(points: list, cache, fence: Fence, size: int):
    """One cold pass over ``points`` as consecutive ``SweepEngine.run``
    calls of ``size`` points, each one fence unit, so that every chunk
    is scaled by the host speed around it.

    Returns (results, wall_s, sim_s, per-point time-to-result samples,
    points simulated); times in reference seconds, ``sim_s`` being the
    engines' ``sim_wall_s``. A point's time to result counts from the
    start of the pass: the chunks before its own, then its own chunk up
    to its result.
    """
    results, latencies = [], []
    wall = sim_s = 0.0
    simulated = 0
    for start in range(0, len(points), size):
        with fence.unit() as unit:
            chunk, _, engine, done = sweep(points[start:start + size], cache)
        results += chunk
        latencies += [wall + seconds * unit.scale for seconds in done]
        wall += unit.scaled_s
        sim_s += engine.metrics.sim_wall_s * unit.scale
        simulated += engine.metrics.simulated
    return results, wall, sim_s, latencies, simulated


def run(state: dict, seed: int, seconds: float, tally: common.Tally,
        profile: Profile = Profile()) -> dict[str, tuple[float, str]]:
    fence = Fence(state["speed"])
    points = grid(profile, seed)
    cold_passes, warm_passes = profile.passes(seconds, len(points))
    # the cold rates pool all passes: an average over every scaled chunk
    # varies less than a median of a few pass totals
    cold_s = sim_s_total = 0.0
    acts = 0
    latencies = []
    reference = None
    for index in range(cold_passes):
        if index:
            common.remove_dir(state["dirs"].pop())
        results, wall, sim_s, done, simulated = chunked_sweep(
            points, _cache(state, fresh=True), fence,
            profile.chunk_per_worker * workers())
        cold_s += wall
        sim_s_total += sim_s
        acts += activations(results)
        latencies.extend(done)
        got = fingerprints(points, results)
        tally.check(simulated == len(points),
                    "cold pass served a cached point")
        if reference is None:
            reference = got
            common.check_pins(tally, "campaign-cold", seed, got)
        else:
            tally.expect_equal(got, reference, "cold pass repeat")

    warm_rates = []
    cpus = pin_one_cpu(state["speed"])
    for index in range(warm_passes):
        with fence.unit() as unit:
            results, _, engine, _ = sweep(points,
                                          _cache(state, fresh=False))
        warm_rates.append(len(points) / unit.scaled_s)
        tally.check(engine.metrics.simulated == 0,
                    "warm pass simulated a point")
        if index in (0, warm_passes - 1):
            tally.expect_equal(fingerprints(points, results), reference,
                               "warm == cold")
    unpin(state["speed"], cpus)

    common.say(f"campaign-cold: {cold_passes} cold passes of "
               f"{len(points)} points, {len(warm_rates)} warm passes, "
               f"{len(latencies)} latency samples")
    return {
        "points_per_s": (cold_passes * len(points) / cold_s, "1/s"),
        "warm_points_per_s": (median(warm_rates), "1/s"),
        "acts_per_s": (acts / sim_s_total, "1/s"),
        "job_p50_s": (median(latencies), "s"),
        "job_p90_s": (tail_percentile(latencies, 0.9,
                                       profile.min_samples // 10), "s"),
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def wrap_policies(log, runner) -> None:
    """Charge every policy hook call made by the simulator to
    ``mitigations.<hook>`` (aggregated; see :mod:`perfbench.tracing`)."""
    make = runner.make_policy_factory

    def traced_factory(point, config):
        factory = make(point, config)

        def build(subchannel):
            policy = factory(subchannel)
            for hook in HOOKS:
                log.wrap_aggregated(policy, hook, f"mitigations.{hook}")
            return policy

        return build

    log.replace(runner, "make_policy_factory", traced_factory)


def sim_counts(results: list) -> dict[str, float]:
    mc = [s for r in results for s in r.mc_stats]
    elapsed = sum(r.stats.get("sim.elapsed_ps", 0) for r in results)
    forwarded = sum(r.stats.get("sim.fastforward_ps", 0) for r in results)
    return {
        "sim.requests": sum(s.requests for s in mc),
        "sim.acts": sum(s.activations for s in mc),
        "sim.row_conflicts": sum(s.row_conflicts for s in mc),
        "sim.refreshes": sum(s.refreshes for s in mc),
        "sim.rfms": sum(s.rfm_commands for s in mc),
        "sim.alerts": sum(s.alerts for s in mc),
        "sim.fastforward_frac": forwarded / elapsed if elapsed else 0.0,
    }


def sim_phases(results: list) -> dict[str, float]:
    """``result.phases`` summed: host seconds in each run_point phase."""
    out = {name: sum(r.phases.get(phase, 0.0) for r in results)
           for phase, name in (("tracegen", "sim.tracegen_s"),
                               ("warmup", "sim.warmup_s"),
                               ("sim", "sim.run_s"))}
    requests = sum(s.requests for r in results for s in r.mc_stats)
    out["sim.us_per_request"] = out["sim.run_s"] / requests * 1e6
    return out


def item_cost_us(log, points: list, draws: int) -> float:
    """``TraceGenerator.next_block`` drained on its own for every core
    of every workload in the grid; microseconds per access."""
    from repro.sim.runner import build_config, build_traces

    seen, items = set(), 0
    for point in points:
        if point.workload in seen:
            continue
        seen.add(point.workload)
        for generator in build_traces(point, build_config(point)):
            log.wrap(generator, "next_block", "workloads.next_block")
            for _ in range(draws // 256):
                generator.next_block(256)
                items += 256
    return log.total_s("workloads.next_block") / items * 1e6


def traced(state: dict, seed: int, tally: common.Tally,
           profile: Profile = Profile()) -> dict[str, float]:
    """Per-layer metrics from one parallel pass (exec counters), one
    serial untraced and one serial traced pass (overhead, sim phases and
    hook times) and a warm pass of each kind."""
    import repro.exec.cache as cache_module
    from repro.sim import runner

    from .tracing import SpanLog

    points = grid(profile, seed)
    out: dict[str, float] = {}

    results, _, engine, _ = sweep(points, _cache(state, fresh=True))
    reference = fingerprints(points, results)
    common.check_pins(tally, "campaign-cold", seed, reference)
    profiler = engine.profiler
    out["exec.simulate_s"] = profiler.seconds("simulate")
    out["exec.cache_io_s"] = profiler.seconds("cache_io")
    out["exec.parallel_eff"] = (engine.metrics.sim_wall_s
                                / (engine.metrics.wall_s * engine.workers))
    results, _, engine, _ = sweep(points, _cache(state, fresh=False))
    out["exec.lookup_s"] = engine.profiler.seconds("lookup")
    out["exec.cache_hit_ratio"] = (engine.metrics.cache_hits
                                   / engine.metrics.unique_points)
    tally.expect_equal(fingerprints(points, results), reference,
                       "warm == cold")

    _, untraced_wall, _, _ = sweep(points, _cache(state, fresh=True),
                                   parallel=False)

    log = SpanLog(run_id=f"campaign-cold-{seed}")
    log.calibrate()
    cache = _cache(state, fresh=True)
    try:
        wrap_policies(log, runner)
        log.wrap(runner, "run_point", "sim.run_point")
        log.wrap(cache, "get", "exec.cache_get")
        log.wrap(cache, "put", "exec.cache_put")
        log.wrap(cache_module, "result_to_dict", "exec.encode")
        log.wrap(cache_module, "result_from_dict", "exec.decode")
        with log.span("exec.sweep"):
            results, traced_wall, _, _ = sweep(points, cache,
                                               parallel=False)
        tally.expect_equal(fingerprints(points, results), reference,
                           "traced == untraced")
        out["exec.encode_ms"] = (log.total_s("exec.encode")
                                 / log.count("exec.encode") * 1e3)
        with log.span("exec.sweep"):
            warm, _, _, _ = sweep(points, cache, parallel=False)
        tally.expect_equal(fingerprints(points, warm), reference,
                           "traced warm == cold")
        gets = [s for s in log.spans if s.name == "exec.cache_get"]
        hits = gets[len(points):]
        out["exec.cache_get_ms"] = (sum(s.duration_ns for s in hits)
                                    / len(hits) / 1e6)
        out["exec.decode_ms"] = (log.total_s("exec.decode")
                                 / log.count("exec.decode") * 1e3)
        with log.span("workloads.drain"):
            out["workloads.us_per_item"] = item_cost_us(
                log, points, profile.item_draws)
    finally:
        log.restore()

    out.update(sim_counts(results))
    out.update(sim_phases(results))
    out["mitigations.hook_calls"], out["mitigations.hook_s"] = \
        common.hook_totals(log)
    out["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    state["log"] = log
    return out
