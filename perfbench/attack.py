"""attack-harness: every registered design under a hammer and a spray.

Only mitigation hooks, the ``HammerLedger`` and the harness loop run
here (no cpu/mc/exec/serve), so a hook or loop speed-up shows on this
workload and nowhere else.

A *point* is one (design, pattern) pair driven for a fixed number of
activations through a freshly built policy and harness. Each cold pass
uses new pattern and policy seeds; warm passes request the points of
the first pass again. The program keeps no attack results, so a repeat
request recomputes them: ``warm_points_per_s`` is what re-asking costs
today, and it would move if attack verdicts were ever cached.
"""

from __future__ import annotations

import dataclasses
import os
import random
from statistics import median

from . import common
from .common import HOOKS, clock, tail_percentile
from .hostspeed import Fence, pin_one_cpu, unpin

PATTERNS = ("double-sided", "spray")

LEDGER_CALLS = ("on_activate", "on_refresh", "on_mitigation")


@dataclasses.dataclass(frozen=True)
class Profile:
    activations: int = 5_000
    trh: int = 500
    banks: int = 32
    rows: int = 65_536
    cold_share: float = 0.5
    #: nominal pass length on a 2-core 2.1 GHz Xeon VM (see
    #: ``common.repeats``)
    pass_s: float = 1.6
    min_samples: int = 100
    min_warm_passes: int = 2
    setup_repeats: int = 5
    #: registry designs; None = all of them
    designs: tuple[str, ...] | None = None

    def passes(self, seconds: float, points: int) -> tuple[int, int]:
        """(cold, warm) pass counts for a run of ``seconds``."""
        cold = common.repeats(seconds * self.cold_share, self.pass_s,
                              -(-self.min_samples // points))
        warm = common.repeats(seconds * (1 - self.cold_share), self.pass_s,
                              self.min_warm_passes)
        return cold, warm


TINY = Profile(activations=500, banks=4, rows=1024, min_samples=1,
               min_warm_passes=1, setup_repeats=1, pass_s=1e9,
               designs=("mopac-d", "trr"))

IMPORTS = ("import repro.mitigations.registry, repro.attacks.harness, "
           "repro.attacks.patterns")


@dataclasses.dataclass(frozen=True)
class Point:
    design: str
    pattern: str
    #: seed of the pattern RNG and of the policy build
    seed: int

    @property
    def label(self) -> str:
        return f"{self.design}/{self.pattern}/s{self.seed}"


def designs(profile: Profile) -> tuple[str, ...]:
    from repro.mitigations import registry

    return profile.designs or registry.names()


def points(profile: Profile, seed: int, pass_index: int) -> list[Point]:
    from repro.rng import derive_seed

    point_seed = derive_seed(seed, f"attack-harness.{pass_index}") \
        & 0xFFFF_FFFF
    return [Point(design, pattern, point_seed)
            for design in designs(profile) for pattern in PATTERNS]


def pattern(point: Point, profile: Profile):
    from repro.attacks.patterns import double_sided, random_spray

    rng = random.Random(point.seed)
    if point.pattern == "double-sided":
        return double_sided(rng.randrange(profile.banks),
                            rng.randrange(1, profile.rows - 1))
    return random_spray(profile.banks, profile.rows, rng)


def build(point: Point, profile: Profile):
    """Fresh policy and harness for ``point``; judged at the design's
    tolerated threshold, as the differential harness does."""
    from repro.attacks.harness import AttackHarness
    from repro.mitigations import registry

    spec = registry.get(point.design)
    policy = spec.build(profile.trh, profile.banks, profile.rows,
                        seed=point.seed)
    harness = AttackHarness(policy, spec.effective_trh(profile.trh),
                            profile.banks, profile.rows,
                            min(8192, profile.rows))
    return spec, policy, harness


def fingerprint(result, policy) -> str:
    return common.digest([dataclasses.asdict(result.ledger),
                          result.activations, result.elapsed_ps,
                          result.alerts, policy.stats.as_dict()])


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup(profile: Profile, speed=None) -> dict:
    """Fresh interpreter imports plus registry resolution.

    The run is pinned to one CPU, with the host-speed probe, so that
    each point is scaled by samples of the CPU it ran on.
    """
    import subprocess
    import sys

    cpus = pin_one_cpu(speed)

    def build_state():
        subprocess.run([sys.executable, "-c", IMPORTS], check=True,
                       env=common.child_env())
        return {"designs": designs(profile)}

    state, setup_s = common.timed_setup(build_state, lambda state: None,
                                        profile.setup_repeats, speed)
    state["setup_s"] = setup_s
    state["speed"] = speed
    state["cpus"] = cpus
    return state


def teardown(state: dict) -> None:
    unpin(state["speed"], state["cpus"])


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Outcome:
    point: Point
    fingerprint: str
    latency_s: float  #: build + run
    run_s: float  #: inside AttackHarness.run
    activations: int
    alerts: int
    mitigations: int
    secure_expected: bool
    succeeded: bool


def resolve(point: Point, profile: Profile, fence: Fence,
            log=None) -> Outcome:
    """Build and run one point inside one fence unit; its times are in
    reference seconds."""
    with fence.unit() as unit:
        spec, policy, harness = build(point, profile)
        if log is not None:
            wrap(log, policy, harness)
        run_start = clock()
        result = harness.run(pattern(point, profile), profile.activations)
        run_s = clock() - run_start
    return Outcome(point, fingerprint(result, policy), unit.scaled_s,
                   run_s * unit.scale, result.activations, result.alerts,
                   policy.stats.mitigations, spec.secure,
                   result.attack_succeeded)


def wrap(log, policy, harness) -> None:
    for hook in HOOKS:
        log.wrap_aggregated(policy, hook, f"mitigations.{hook}")
    for call in LEDGER_CALLS:
        log.wrap_aggregated(harness.ledger, call, f"attacks.ledger.{call}")
    log.wrap(harness, "run", "attacks.run")


def run_pass(batch: list[Point], profile: Profile, tally: common.Tally,
             fence: Fence, log=None) -> list[Outcome]:
    outcomes = [resolve(point, profile, fence, log) for point in batch]
    for outcome in outcomes:
        if outcome.secure_expected:
            tally.check(not outcome.succeeded,
                        f"{outcome.point.label}: ledger saw a row exceed "
                        f"the tolerated threshold")
    return outcomes


def check_same(tally: common.Tally, outcomes: list[Outcome],
               reference: dict[str, str], what: str) -> None:
    tally.expect_equal({o.point.label: o.fingerprint for o in outcomes},
                       reference, what)


def run(state: dict, seed: int, seconds: float, tally: common.Tally,
        profile: Profile = Profile()) -> dict[str, tuple[float, str]]:
    fence = Fence(state["speed"])
    first = points(profile, seed, 0)
    cold_passes, warm_passes = profile.passes(seconds, len(first))
    cold_rates, act_rates, latencies = [], [], []
    reference = None
    for pass_index in range(cold_passes):
        batch = points(profile, seed, pass_index)
        outcomes = run_pass(batch, profile, tally, fence)
        cold_rates.append(len(batch) / sum(o.latency_s for o in outcomes))
        act_rates.append(sum(o.activations for o in outcomes)
                         / sum(o.run_s for o in outcomes))
        latencies.extend(o.latency_s for o in outcomes)
        if reference is None:
            reference = {o.point.label: o.fingerprint for o in outcomes}
            common.check_pins(tally, "attack-harness", seed, reference)

    warm_rates = []
    for _ in range(warm_passes):
        outcomes = run_pass(first, profile, tally, fence)
        warm_rates.append(len(first) / sum(o.latency_s for o in outcomes))
        check_same(tally, outcomes, reference, "warm == cold")

    for outcome in outcomes:
        if not outcome.secure_expected:
            common.say(f"attack-harness: {outcome.point.label} (registered "
                       f"insecure) attack_succeeded={outcome.succeeded}")
    common.say(f"attack-harness: {cold_passes} cold passes of "
               f"{len(first)} points, {len(warm_rates)} warm passes, "
               f"{len(latencies)} latency samples")
    return {
        "points_per_s": (median(cold_rates), "1/s"),
        "warm_points_per_s": (median(warm_rates), "1/s"),
        "acts_per_s": (median(act_rates), "1/s"),
        "job_p50_s": (median(latencies), "s"),
        "job_p90_s": (tail_percentile(latencies, 0.9,
                                       profile.min_samples // 10), "s"),
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def traced(state: dict, seed: int, tally: common.Tally,
           profile: Profile = Profile()) -> dict[str, float]:
    """One untraced and one traced pass over the first pass's points."""
    from .tracing import SpanLog

    # host seconds, like the span log's own times
    fence = Fence(None)
    batch = points(profile, seed, 0)
    plain = run_pass(batch, profile, tally, fence)
    untraced_s = sum(o.latency_s for o in plain)
    reference = {o.point.label: o.fingerprint for o in plain}
    common.check_pins(tally, "attack-harness", seed, reference)

    log = SpanLog(run_id=f"attack-harness-{seed}")
    cost = log.calibrate()
    try:
        with log.span("attacks.pass"):
            outcomes = run_pass(batch, profile, tally, fence, log)
    finally:
        log.restore()
    traced_s = sum(o.latency_s for o in outcomes)
    check_same(tally, outcomes, reference, "traced == untraced")

    out: dict[str, float] = {}
    calls, hook_s = common.hook_totals(log)
    ledger_s = sum(log.total_s(f"attacks.ledger.{c}") for c in LEDGER_CALLS)
    ledger_calls = sum(log.count(f"attacks.ledger.{c}")
                       for c in LEDGER_CALLS)
    out["mitigations.hook_calls"] = calls
    out["mitigations.hook_s"] = hook_s
    out["attacks.ledger_s"] = ledger_s
    # the wrappers' own cost lands in the loop; take it back out
    out["attacks.loop_self_s"] = (
        log.total_s("attacks.run") - hook_s - ledger_s
        - (calls + ledger_calls)
        * (cost.inside_ns + cost.outside_ns) / 1e9)
    for design in designs(profile):
        mine = [o for o in plain if o.point.design == design]
        out[f"attacks.us_per_act.{design}"] = (
            sum(o.run_s for o in mine)
            / sum(o.activations for o in mine) * 1e6)
    out["attacks.alerts"] = sum(o.alerts for o in plain)
    out["attacks.mitigations"] = sum(o.mitigations for o in plain)
    out["trace_overhead_frac"] = traced_s / untraced_s - 1.0
    state["log"] = log
    return out
