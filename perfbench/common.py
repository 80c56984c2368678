"""Shared plumbing: environment hygiene, checks, percentiles, output.

Everything here is independent of the workload being measured. The
three workloads (``cold``, ``fabric``, ``attack``) import from this
module; nothing here imports them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
from typing import Any, Callable

#: Checkout root: the directory that holds ``perfbench/`` and ``src/``.
ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Seed whose result fingerprints are pinned in ``fingerprints.json``.
DEFAULT_SEED = 0

#: Scratch space for caches, node state and traces. It lives inside the
#: checkout because the benchmark may read and write nothing outside it.
SCRATCH = ROOT / ".perfbench"

PINS = pathlib.Path(__file__).resolve().parent / "fingerprints.json"

#: Policy hooks the memory controller and the attack harness call.
HOOKS = ("on_activate", "on_precharge", "on_refresh", "on_rfm",
         "drain_mitigations")

#: Prefix of every knob the program reads from the environment.
KNOB_PREFIX = "REPRO_"


def hook_totals(log) -> tuple[int, float]:
    """(calls, seconds) of every policy hook a traced run charged to
    ``mitigations.<hook>``."""
    calls = sum(log.count(f"mitigations.{hook}") for hook in HOOKS)
    seconds = sum(log.total_s(f"mitigations.{hook}") for hook in HOOKS)
    return calls, seconds


def clock() -> float:
    """Host wall clock for every timing the benchmark reports."""
    return time.perf_counter()


def scrub_env(environ: dict | None = None) -> list[str]:
    """Drop every ``REPRO_*`` knob so the defaults are what gets measured.

    ``REPRO_ENGINE``, ``REPRO_WORKERS``, ``REPRO_SERIAL``,
    ``REPRO_CACHE_DIR`` and the ``REPRO_FABRIC_*`` knobs would each
    change what a run measures (a cache dir turns a cold pass warm on
    the second run). Serve nodes inherit the scrubbed environment.
    Returns the names removed.
    """
    environ = os.environ if environ is None else environ
    removed = sorted(name for name in environ
                     if name.startswith(KNOB_PREFIX))
    for name in removed:
        del environ[name]
    return removed


def child_env() -> dict[str, str]:
    """Environment for subprocesses: scrubbed, with the checkout's src."""
    env = dict(os.environ)
    scrub_env(env)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ----------------------------------------------------------------------
# Correctness accounting
# ----------------------------------------------------------------------
class Tally:
    """Operations attempted and failed; every check is one operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def expect_equal(self, got: dict[Any, str], want: dict[Any, str],
                     what: str) -> None:
        """One operation per key of ``want``: ``got[key] == want[key]``."""
        for key, digest in want.items():
            self.check(got.get(key) == digest, f"{what}: {key}")


def result_fingerprint(result) -> str:
    """Digest of a ``SystemResult``: stats, core_stats, mc_stats and
    elapsed_ps (the shape of ``benchmarks/bench_engine.fingerprint``).

    ``phases`` (wall time) is left out: it differs on every run.
    """
    document = [
        dict(result.stats),
        [dataclasses.asdict(s) for s in result.core_stats],
        [dataclasses.asdict(s) for s in result.mc_stats],
        result.elapsed_ps,
    ]
    return digest(document)


def digest(document: Any) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def point_label(point) -> str:
    """Stable human-readable id of a ``DesignPoint`` for pin files."""
    return (f"{point.workload}/{point.design}/t{point.trh}"
            f"/i{point.instructions}/s{point.seed}")


def load_pins(workload: str) -> dict[str, str]:
    if not PINS.exists():
        return {}
    return json.loads(PINS.read_text()).get(workload, {})


def check_pins(tally: Tally, workload: str, seed: int,
               got: dict[str, str]) -> None:
    """At the default seed every pinned fingerprint must match.

    A pinned label missing from ``got`` fails too: the run must produce
    every pinned result.
    """
    if seed != DEFAULT_SEED:
        return
    pins = load_pins(workload)
    tally.check(bool(pins), f"{workload}: no pinned fingerprints")
    tally.expect_equal(got, pins, f"{workload} pinned fingerprint")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(samples: list[float], q: float,
                    min_beyond: int = 10) -> float:
    """Nearest-rank ``q`` percentile that has ``min_beyond`` samples
    strictly above its rank.

    A tail percentile read from fewer samples than that is mostly the
    single slowest sample, so it is refused: p90 needs at least 100
    samples. Raises ``ValueError`` when the rule is not met.
    """
    if not 0 < q < 1:
        raise ValueError("q must be in (0, 1)")
    ordered = sorted(samples)
    n = len(ordered)
    # round first: 0.9 * 100 is 90.00000000000001 in binary floating point
    rank = math.ceil(round(q * n, 9))
    beyond = n - rank
    if n == 0 or beyond < min_beyond:
        raise ValueError(f"p{q * 100:g} of {n} samples has {beyond} "
                         f"beyond it; need {min_beyond}")
    return ordered[rank - 1]


def repeats(seconds: float, each_s: float, minimum: int) -> int:
    """How many units of nominal length ``each_s`` fill ``seconds``.

    Work is sized from ``--seconds`` up front rather than by watching
    the clock, so every run at the same ``--seconds`` and seed does the
    same work and only its speed varies.
    """
    return max(minimum, round(seconds / each_s))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child
    (serve nodes, pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_setup(build: Callable[[], Any], discard: Callable[[Any], None],
                repeats: int, speed=None) -> tuple[Any, float]:
    """Run ``build`` ``repeats`` times, keep the last, report the median
    in reference seconds (see :mod:`perfbench.hostspeed`).

    Set-up time is a single short interval, so one reading carries the
    host's jitter in full; the median of several does not.
    """
    from .hostspeed import Fence

    fence = Fence(speed)
    times = []
    state = None
    for index in range(repeats):
        with fence.unit() as unit:
            state = build()
        times.append(unit.scaled_s)
        if index < repeats - 1:
            discard(state)
    return state, statistics.median(times)


def fresh_dir(tag: str) -> pathlib.Path:
    """A new empty directory under the benchmark scratch space."""
    SCRATCH.mkdir(exist_ok=True)
    for index in range(10_000):
        path = SCRATCH / f"{tag}-{os.getpid()}-{index}"
        try:
            path.mkdir()
            return path
        except FileExistsError:
            continue
    raise RuntimeError(f"no free scratch directory for {tag}")


def remove_dir(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def say(message: str) -> None:
    """Human-readable progress; stdout, before the final JSON line."""
    print(message, flush=True)


def emit(tally: Tally, metrics: dict[str, tuple[float, str]]) -> None:
    """Print the one-line JSON result (the last line of stdout)."""
    for failure in tally.failures:
        say(f"FAILED: {failure}")
    document = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()
