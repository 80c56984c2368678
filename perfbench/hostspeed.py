"""Host-speed probe: the yardstick every reported time is scaled by.

The benchmark runs on a few vCPUs of a shared host whose speed swings
by up to 2x within a second and differs between vCPUs: on a 2-vCPU
Xeon VM one fixed 22-point attack-harness pass took 0.97-1.54 s within
one minute, and a fixed pure-Python loop's CPU time moved with it. A
rate timed in plain seconds measures the neighbours as much as the
program.

One probe process per CPU, pinned to it, runs a fixed pure-Python loop
of dict updates and integer work on request. The workloads take a
sample right before and right after each short unit of work (one
attack point, one served job, one chunk of a sweep, one warm pass) on
the CPUs the unit runs on, and scale the unit's wall time by
``(REFERENCE_S / probe_s) ** EXPONENT``, ``probe_s`` being the mean of
the two samples: a unit timed while the host runs slow is reported as
it would have taken at the reference speed. Over one minute of
attack-harness passes this cut the spread between passes (IQR /
median) from 21% to 6%. (A probe that also walked a
table of a few MB, to feel cache contention, did worse: in runs
interleaved with this one, campaign-cold's points_per_s spread 9%
against 4%.)

The probes are separate interpreters that never import the program, so
a change to the program cannot change the yardstick; and they run
between units of work, never beside them, so they take no CPU from what
is measured.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

from . import common

#: Seconds one probe loop takes at the reference host speed (a 2.1 GHz
#: Xeon vCPU of a lightly loaded host). Scaled times are in seconds at
#: that speed; the constant only sets the unit, never the spread.
REFERENCE_S = 0.003

#: How strongly a unit's time follows the probe's. The probe slows a
#: little more than the workloads when the host is busy, and served
#: jobs also wait on fixed poll intervals that do not slow at all. On a
#: 2-vCPU Xeon VM, with per-unit times and samples recorded over 7-8
#: runs of each workload, the worst spread between runs (IQR / median)
#: of any rate or latency was 30% unscaled, 11% at exponent 1.0 (where
#: the rates still rose with the host's slowness) and 8% at 0.9.
EXPONENT = 0.9

#: A unit's closing sample opens the next unit only if no more than
#: this many seconds passed in between.
MAX_GAP_S = 0.05

#: Loops per sample; the sample is their median, so one timer interrupt
#: or page fault does not move it.
REPEATS = 3

_PROBE = r"""
import sys, time

def loop():
    table, total = {}, 0
    for i in range(10000):
        key = (i * 7919) % 613
        table[key] = table.get(key, 0) + (i ^ key)
        total += len(str(key)) if i & 3 else key >> 1
    return total

loop()
for line in sys.stdin:
    times = []
    for _ in range(int(line)):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    sys.stdout.write(" ".join(map(repr, times)) + "\n")
    sys.stdout.flush()
"""


class HostSpeed:
    """One probe process per CPU, each pinned to its CPU; close it when
    done.

    A sample runs every probe in use at once and averages them, so a
    unit of work spread over all CPUs (a parallel sweep) is scaled by
    all of them. A workload that pins itself to one CPU samples only
    that CPU's probe (:func:`pin_one_cpu`).
    """

    def __init__(self, repeats: int = REPEATS) -> None:
        self.repeats = repeats
        self.probes: dict[int, subprocess.Popen] = {}
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                process = subprocess.Popen(
                    [sys.executable, "-S", "-c", _PROBE], cwd=common.ROOT,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True, env=common.child_env())
                self.probes[cpu] = process
                os.sched_setaffinity(process.pid, {cpu})
        except BaseException:
            self.close()
            raise
        self.in_use = set(self.probes)
        self.samples: list[float] = []

    def sample(self) -> float:
        """Seconds of one probe loop now: the mean over the CPUs in use
        of each probe's median of ``repeats`` loops."""
        chosen = [self.probes[cpu] for cpu in sorted(self.in_use)]
        for process in chosen:
            process.stdin.write(f"{self.repeats}\n")
            process.stdin.flush()
        medians = []
        for process in chosen:
            line = process.stdout.readline()
            if not line:
                raise RuntimeError("host-speed probe exited")
            medians.append(statistics.median(float(t)
                                             for t in line.split()))
        probe_s = statistics.fmean(medians)
        self.samples.append(probe_s)
        return probe_s

    def use(self, cpus: set[int]) -> None:
        """Sample only the probes of ``cpus`` from now on."""
        self.in_use = set(cpus) & set(self.probes)

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that turns host seconds of a unit of work, sampled
        ``before`` and ``after``, into seconds at the reference speed."""
        return (REFERENCE_S / ((before + after) / 2)) ** EXPONENT

    def close(self) -> None:
        for process in self.probes.values():
            if process.poll() is None:
                process.stdin.close()
                try:
                    process.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            process.stdout.close()


def pin_one_cpu(speed: HostSpeed | None) -> set[int]:
    """Pin this process to its lowest CPU and sample only that CPU's
    probe; the children it starts afterwards inherit the pin. Returns
    the CPUs it had, for :func:`unpin`.

    The host's speed changes within a tenth of a second and differs
    between vCPUs, so a probe sample speaks for a unit of work only
    when both run on the same CPU.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    if speed is not None:
        speed.use({min(cpus)})
    return cpus


def unpin(speed: HostSpeed | None, cpus: set[int]) -> None:
    """Undo :func:`pin_one_cpu`."""
    os.sched_setaffinity(0, cpus)
    if speed is not None:
        speed.use(cpus)


class Fence:
    """Probe samples around consecutive units of work.

    ``with fence.unit() as unit: ...`` times the block; ``unit.scaled_s``
    is its wall time in reference seconds. A unit's closing sample is
    the next unit's opening one, so back-to-back units cost one probe
    sample each; a closing sample older than ``MAX_GAP_S`` is not
    reused. Without a probe (``speed=None``: tests, ``pin.py``) units are
    timed in plain host seconds.
    """

    def __init__(self, speed: HostSpeed | None) -> None:
        self.speed = speed
        self.edge: float | None = None
        self.edge_at = 0.0

    def _sample(self) -> None:
        self.edge = self.speed.sample()
        self.edge_at = common.clock()

    def unit(self) -> "_Unit":
        return _Unit(self)


class _Unit:
    def __init__(self, fence: Fence) -> None:
        self.fence = fence
        self.wall_s = 0.0
        self.scale = 1.0

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale

    def __enter__(self) -> "_Unit":
        fence = self.fence
        if fence.speed is not None and (
                fence.edge is None
                or common.clock() - fence.edge_at > MAX_GAP_S):
            fence._sample()
        self.start = common.clock()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = common.clock() - self.start
        fence = self.fence
        if fence.speed is None:
            return
        before = fence.edge
        fence._sample()
        self.scale = fence.speed.scale(before, fence.edge)
