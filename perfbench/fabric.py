"""campaign-fabric: one closed-loop client on a 2-node ``repro.fabric``.

Points are short, so per-point service overhead (HTTP, journal, pool,
pickling, cache and tier I/O) dominates and simulation is a small
share. The job stream mixes new points (cache and remote-tier writes),
repeats of earlier points (cache reads) and in-job duplicates (collapsed
by the client), so a change that speeds writes at the expense of reads
shows.
"""

from __future__ import annotations

import dataclasses
import os
import random
import signal
import subprocess
import sys
from statistics import median

from . import common
from .common import clock, tail_percentile
from .hostspeed import Fence, pin_one_cpu, unpin

WORKLOADS = ("mix1", "mcf", "lbm", "hammer")
DESIGNS = ("baseline", "prac", "mopac-c", "mopac-d", "moat", "qprac")

NODES = 2

IMPORTS = "import repro.fabric.client, repro.serve.client"


@dataclasses.dataclass(frozen=True)
class Profile:
    instructions: int = 4_000
    workloads: tuple[str, ...] = WORKLOADS
    designs: tuple[str, ...] = DESIGNS
    #: fixed client poll interval; the default backoff (up to seconds)
    #: would set the measured latency instead of the service
    poll_s: float = 0.005
    cold_share: float = 0.6
    #: nominal job and warm-pass lengths on a 2-core 2.1 GHz Xeon VM
    #: (see ``common.repeats``)
    job_s: float = 0.1
    warm_pass_s: float = 0.5
    #: cold jobs: at least 100 so p90 has 10 jobs beyond it
    min_jobs: int = 100
    #: jobs per throughput chunk (points_per_s is the chunks' median, so
    #: a stall of the host in one chunk does not move it)
    chunk_jobs: int = 4
    #: cold jobs in the traced run
    traced_jobs: int = 100
    min_warm_passes: int = 3
    #: points per warm job: a warm pass re-requests the grid in jobs
    #: short enough (~50 ms) for host-speed samples around each to hold
    warm_job_points: int = 40
    #: served points re-simulated directly to compare (any seed)
    direct_sample: int = 6
    #: new points whose fingerprints are pinned at the default seed
    pinned_points: int = 100
    setup_repeats: int = 3

    def sizes(self, seconds: float) -> tuple[int, int]:
        """(cold jobs, warm passes) for a run of ``seconds``; jobs are a
        whole number of chunks."""
        jobs = common.repeats(seconds * self.cold_share, self.job_s,
                              self.min_jobs)
        jobs = -(-jobs // self.chunk_jobs) * self.chunk_jobs
        warm = common.repeats(seconds * (1 - self.cold_share),
                              self.warm_pass_s, self.min_warm_passes)
        return jobs, warm


TINY = Profile(instructions=1_000, workloads=("mcf",),
               designs=("baseline", "mopac-d"), min_jobs=4, chunk_jobs=2,
               traced_jobs=4, min_warm_passes=1, direct_sample=2,
               pinned_points=8, setup_repeats=1, job_s=1e9,
               warm_pass_s=1e9)


# ----------------------------------------------------------------------
# Job stream
# ----------------------------------------------------------------------
class JobStream:
    """Seeded job generator: each job has one new point, one repeat of
    an earlier new point (from the second job on) and an in-job
    duplicate of the new point. One new point per job keeps at most one
    node worker simulating at a time (see :func:`setup`).
    """

    def __init__(self, profile: Profile, seed: int):
        from repro.rng import derive_seed

        self.profile = profile
        self.seed = seed
        self.rng = random.Random(derive_seed(seed, "campaign-fabric.jobs"))
        self.combos = [(w, d) for w in profile.workloads
                       for d in profile.designs]
        self.rng.shuffle(self.combos)
        self.new: list = []

    def new_point(self):
        from repro.rng import derive_seed
        from repro.sim.runner import DesignPoint

        index = len(self.new)
        workload, design = self.combos[index % len(self.combos)]
        point = DesignPoint(
            workload=workload, design=design, trh=500,
            instructions=self.profile.instructions,
            seed=derive_seed(self.seed, f"campaign-fabric.{index}")
            & 0xFFFF_FFFF)
        self.new.append(point)
        return point

    def next_job(self) -> list:
        new = self.new_point()
        job = [new]
        if len(self.new) > 1:
            job.append(self.rng.choice(self.new[:-1]))
        job.append(new)
        return job


# ----------------------------------------------------------------------
# Nodes
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Fabric:
    root: object  #: pathlib.Path of this fabric's scratch directory
    addresses: list[str]
    processes: list[subprocess.Popen]
    caches: list  #: node-local cache directories
    remote: object  #: shared tier directory


def boot() -> Fabric:
    """Start ``NODES`` serve nodes (1 worker each) on one shared tier
    and wait until each answers ``/healthz``."""
    from repro.serve.client import ServeClient

    root = common.fresh_dir("fabric")
    remote = root / "tier"
    # socket paths are relative to the checkout root (the working
    # directory of the benchmark and the nodes): an absolute path under
    # a deep checkout can exceed the AF_UNIX path limit
    relative = root.relative_to(common.ROOT)
    addresses, processes, caches = [], [], []
    for index in range(NODES):
        address = f"unix:{relative / f'n{index}.sock'}"
        cache = root / f"n{index}-cache"
        command = [sys.executable, "-m", "repro.serve",
                   "--state-dir", str(root / f"n{index}-state"),
                   "--address", address, "--workers", "1",
                   "--cache-dir", str(cache),
                   "--remote-cache", str(remote),
                   "--node-id", f"n{index}", "--quiet"]
        # own session: stopping a node also reaps its pool worker
        processes.append(subprocess.Popen(
            command, cwd=common.ROOT, env=common.child_env(),
            start_new_session=True, stdout=subprocess.DEVNULL))
        addresses.append(address)
        caches.append(cache)
    fabric = Fabric(root, addresses, processes, caches, remote)
    try:
        for address in addresses:
            ServeClient(address).wait_ready(timeout_s=60.0, poll_s=0.01)
    except BaseException:
        stop(fabric)
        raise
    return fabric


def stop(fabric: Fabric) -> None:
    for process in fabric.processes:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
    for process in fabric.processes:
        try:
            process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=30.0)
    common.remove_dir(fabric.root)


def client(fabric: Fabric, profile: Profile):
    from repro.fabric.client import FabricClient

    return FabricClient(fabric.addresses, hedge_after_s=None,
                        poll_s=profile.poll_s, max_poll_s=profile.poll_s)


def node_totals(fabric_client) -> dict[str, float]:
    """Sum of every node's ``/stats`` counters."""
    totals: dict[str, float] = {}
    for serve_client in fabric_client.clients.values():
        for name, value in serve_client.stats().items():
            if isinstance(value, (int, float)):
                totals[name] = totals.get(name, 0) + value
    return totals


def wipe_local_caches(fabric: Fabric) -> None:
    """Empty the nodes' local caches so the next request of a point
    reads it through the shared tier."""
    for cache in fabric.caches:
        common.remove_dir(cache)


def await_tier(fabric: Fabric, points: list, timeout_s: float = 30.0
               ) -> bool:
    """Wait until the write-behind tier holds every point's result."""
    import time

    from repro.exec.cache import point_key
    from repro.fabric.tiers import SharedDirTier

    tier = SharedDirTier(fabric.remote)
    missing = {point_key(p) for p in points}
    deadline = clock() + timeout_s
    while missing and clock() < deadline:
        missing = {key for key in missing if tier.get_blob(key) is None}
        if missing:
            time.sleep(0.05)
    return not missing


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup(profile: Profile, speed=None) -> dict:
    """Fresh interpreter imports plus booting the nodes.

    The client, the nodes, their pool workers and the host-speed probe
    share one CPU (the affinity is inherited). With one job in flight they hand work to
    each other rather than run side by side, and a hand-off to an idle
    second vCPU costs a host-scheduled wake-up whose latency swings with
    the host's load. On a shared 2-vCPU VM, four unpinned runs read
    points_per_s 24-47/s and four pinned runs, interleaved with them,
    32-39/s.
    """
    cpus = pin_one_cpu(speed)

    def build():
        subprocess.run([sys.executable, "-c", IMPORTS], check=True,
                       env=common.child_env())
        return {"fabric": boot()}

    state, setup_s = common.timed_setup(
        build, lambda state: stop(state["fabric"]), profile.setup_repeats,
        speed)
    state["setup_s"] = setup_s
    state["speed"] = speed
    state["cpus"] = cpus
    return state


def teardown(state: dict) -> None:
    stop(state["fabric"])
    unpin(state["speed"], state["cpus"])


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def cold_jobs(fabric_client, stream: JobStream, tally: common.Tally,
              jobs: int, seen: dict[str, str], fence: Fence
              ) -> tuple[list, list, float, float]:
    """Closed loop: submit one job, wait for its results, ``jobs``
    times, each job one fence unit. Returns (latencies, points per job,
    activations of the new points, node seconds simulating them); times
    in reference seconds."""
    latencies, sizes = [], []
    acts = sim_s = 0.0
    for _ in range(jobs):
        job = stream.next_job()
        with fence.unit() as unit:
            results = fabric_client.run(job, timeout_s=120.0)
        latencies.append(unit.scaled_s)
        sizes.append(len(job))
        # a job's first point is new: its result carries the phases of
        # the simulation this job ran
        acts += sum(s.activations for s in results[0].mc_stats)
        sim_s += sum(results[0].phases.values()) * unit.scale
        check_job(tally, job, results, seen)
    return latencies, sizes, acts, sim_s


def check_job(tally: common.Tally, job: list, results: list,
              seen: dict[str, str]) -> None:
    """Each label resolves to one fingerprint across the whole run: a
    repeat (cache hit) or duplicate must equal the first result."""
    for point, result in zip(job, results):
        label = common.point_label(point)
        got = common.result_fingerprint(result)
        if label in seen:
            tally.check(got == seen[label], f"repeat of {label}")
        else:
            seen[label] = got


def check_direct(tally: common.Tally, points: list,
                 seen: dict[str, str]) -> None:
    """fabric == direct: re-simulate ``points`` in-process."""
    from repro.exec.engine import SweepEngine

    engine = SweepEngine(workers=1, parallel=False, cache=None,
                         use_memo=False)
    for point, result in zip(points, engine.run(points)):
        label = common.point_label(point)
        tally.check(seen.get(label) == common.result_fingerprint(result),
                    f"fabric != direct for {label}")


def pinned(stream: JobStream, seen: dict[str, str],
           profile: Profile) -> dict[str, str]:
    return {common.point_label(p): seen[common.point_label(p)]
            for p in stream.new[:profile.pinned_points]}


def warm_pass(fabric_client, points: list, tally: common.Tally,
              seen: dict[str, str], fence: Fence, size: int
              ) -> tuple[float, list]:
    """Re-request every point, in jobs of ``size`` points (one fence
    unit each); returns (reference seconds, results)."""
    results, seconds = [], 0.0
    for start in range(0, len(points), size):
        with fence.unit() as unit:
            results += fabric_client.run(points[start:start + size],
                                         timeout_s=120.0)
        seconds += unit.scaled_s
    for point, result in zip(points, results):
        label = common.point_label(point)
        tally.check(common.result_fingerprint(result) == seen[label],
                    f"warm != cold for {label}")
    return seconds, results


def run(state: dict, seed: int, seconds: float, tally: common.Tally,
        profile: Profile = Profile()) -> dict[str, tuple[float, str]]:
    fabric = state["fabric"]
    fence = Fence(state["speed"])
    fabric_client = client(fabric, profile)
    stream = JobStream(profile, seed)
    seen: dict[str, str] = {}
    before = node_totals(fabric_client)
    jobs, warm_passes = profile.sizes(seconds)
    latencies, sizes, acts, sim_s = cold_jobs(fabric_client, stream, tally,
                                              jobs, seen, fence)
    chunk = profile.chunk_jobs
    cold_rates = [sum(sizes[i:i + chunk]) / sum(latencies[i:i + chunk])
                  for i in range(0, len(latencies), chunk)]
    unique = list(dict.fromkeys(stream.new))

    after = node_totals(fabric_client)
    simulated = after["serve.points_simulated"] \
        - before.get("serve.points_simulated", 0)
    tally.check(simulated == len(unique),
                f"{simulated} simulations for {len(unique)} new points")
    stats = fabric_client.stats()
    tally.check(stats.get("fabric.hedges", 0) == 0
                and stats.get("fabric.failovers", 0) == 0,
                "fabric hedged or failed over")
    tally.check(await_tier(fabric, unique),
                "shared tier is missing results")

    warm_rates = []
    for _ in range(warm_passes):
        seconds, results = warm_pass(fabric_client, unique, tally, seen,
                                     fence, profile.warm_job_points)
        warm_rates.append(len(unique) / seconds)

    rng = random.Random(seed)
    sample = rng.sample(unique, min(profile.direct_sample, len(unique)))
    check_direct(tally, sample, seen)
    common.check_pins(tally, "campaign-fabric", seed,
                      pinned(stream, seen, profile))

    common.say(f"campaign-fabric: {len(latencies)} cold jobs "
               f"({sum(sizes)} points, {len(unique)} new), "
               f"{warm_passes} warm passes of {len(unique)} points; "
               f"job latency samples: {len(latencies)}")
    return {
        "points_per_s": (median(cold_rates), "1/s"),
        "warm_points_per_s": (median(warm_rates), "1/s"),
        "acts_per_s": (acts / sim_s, "1/s"),
        "job_p50_s": (median(latencies), "s"),
        "job_p90_s": (tail_percentile(latencies, 0.9,
                                       profile.min_jobs // 10), "s"),
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def wrap_client(log, fabric_client) -> None:
    log.wrap(fabric_client, "submit", "fabric.submit")
    log.wrap(fabric_client, "wait", "fabric.wait")
    for serve_client in fabric_client.clients.values():
        # healthz: the router's admission probe during placement
        for call in ("submit", "status", "result", "healthz"):
            log.wrap(serve_client, call, f"serve.{call}")


def delta(after: dict, before: dict, name: str) -> float:
    return after.get(name, 0) - before.get(name, 0)


def traced(state: dict, seed: int, tally: common.Tally,
           profile: Profile = Profile()) -> dict[str, float]:
    """A fixed number of cold jobs untraced, the same jobs traced on a
    fresh fabric, one traced warm pass through the shared tier, and a
    direct ``SweepEngine`` over the same new points for the service
    overhead."""
    from repro.exec.engine import SweepEngine

    from .cold import sim_counts, sim_phases
    from .tracing import SpanLog, self_times

    jobs = profile.traced_jobs
    fabric = state["fabric"]
    stream = JobStream(profile, seed)
    seen: dict[str, str] = {}
    # host seconds, like the span log's own times
    fence = Fence(None)
    start = clock()
    cold_jobs(client(fabric, profile), stream, tally, jobs, seen, fence)
    untraced_wall = clock() - start
    unique = list(dict.fromkeys(stream.new))
    stop(fabric)
    state["fabric"] = fabric = boot()

    log = SpanLog(run_id=f"campaign-fabric-{seed}")
    fabric_client = client(fabric, profile)
    stream = JobStream(profile, seed)
    traced_seen: dict[str, str] = {}
    before = node_totals(fabric_client)
    try:
        wrap_client(log, fabric_client)
        start = clock()
        with log.span("fabric.jobs"):
            cold_jobs(fabric_client, stream, tally, jobs, traced_seen,
                      fence)
        traced_wall = clock() - start
        tally.expect_equal(traced_seen, seen, "traced == untraced")
        cold = node_totals(fabric_client)
        tally.check(await_tier(fabric, unique),
                    "shared tier is missing results")
        cold_spans = list(log.spans)
        # the traced warm pass reads through the shared tier, so that
        # fabric.remote_hit_ratio has reads to count
        wipe_local_caches(fabric)
        with log.span("fabric.warm"):
            warm_pass(fabric_client, unique, tally, seen, fence,
                      profile.warm_job_points)
        warm = node_totals(fabric_client)
        warm_spans = log.spans[len(cold_spans):]
    finally:
        log.restore()

    direct = SweepEngine(workers=NODES, cache=None, use_memo=False)
    start = clock()
    direct_results = direct.run(unique)
    direct_wall = clock() - start
    labels = [common.point_label(p) for p in unique]
    tally.expect_equal({label: common.result_fingerprint(r)
                        for label, r in zip(labels, direct_results)},
                       {label: seen[label] for label in labels},
                       "fabric == direct")
    common.check_pins(tally, "campaign-fabric", seed,
                      pinned(stream, seen, profile))

    def mean_ms(name: str, spans) -> float:
        chosen = [s.duration_ns for s in spans if s.name == name]
        return sum(chosen) / len(chosen) / 1e6 if chosen else 0.0

    # placement: FabricClient.submit minus the node calls inside it
    submits = {s.span_id: s for s in cold_spans if s.name == "fabric.submit"}
    placement = self_times(list(submits.values())
                           + [s for s in cold_spans if s.parent in submits])
    out: dict[str, float] = {
        "serve.submit_ms": mean_ms("serve.submit", cold_spans),
        "serve.status_ms": mean_ms("serve.status", cold_spans),
        "serve.polls_per_job": sum(1 for s in cold_spans
                                   if s.name == "serve.status") / jobs,
        "serve.result_ms": mean_ms("serve.result", warm_spans),
        "serve.overhead_ms_per_point": (untraced_wall - direct_wall)
        / len(unique) * 1e3,
        "serve.points_simulated": delta(cold, before,
                                        "serve.points_simulated"),
        "serve.dedup_hits": delta(cold, before, "serve.dedup_hits"),
        "serve.cache_hits": delta(cold, before, "serve.cache_hits"),
        "fabric.place_ms": placement["fabric"] / jobs * 1e3,
        "fabric.hedges": fabric_client.stats().get("fabric.hedges", 0),
        "fabric.failovers": fabric_client.stats().get("fabric.failovers",
                                                      0),
        "trace_overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    out["serve.duplicate_sims"] = out["serve.points_simulated"] - len(unique)
    tally.check(out["serve.duplicate_sims"] == 0, "duplicate simulations")
    hits = delta(warm, cold, "exec.cache.remote.hits")
    misses = delta(warm, cold, "exec.cache.remote.misses")
    out["fabric.remote_hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    out.update(sim_counts(direct_results))
    out.update(sim_phases(direct_results))
    state["log"] = log
    return out
