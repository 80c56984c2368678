"""Regenerate ``fingerprints.json``: results at the default seed.

    python3 perfbench/pin.py

Run this only when a change is *meant* to alter simulated results; the
benchmark counts every result that differs from these pins as a failed
operation. Every pin is computed by simulating in-process, without any
cache or service layer, so a pinned value never comes from the path it
is used to check.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import attack, cold, common, fabric
    from perfbench.hostspeed import Fence

    common.scrub_env()
    from repro.exec.engine import SweepEngine

    seed = common.DEFAULT_SEED
    direct = SweepEngine(workers=cold.workers(), cache=None, use_memo=False)

    points = cold.grid(cold.Profile(), seed)
    pins = {"campaign-cold": cold.fingerprints(points, direct.run(points))}

    profile = fabric.Profile()
    stream = fabric.JobStream(profile, seed)
    while len(stream.new) < profile.pinned_points:
        stream.next_job()
    points = stream.new[:profile.pinned_points]
    pins["campaign-fabric"] = cold.fingerprints(points, direct.run(points))

    profile = attack.Profile()
    pins["attack-harness"] = {
        outcome.point.label: outcome.fingerprint
        for outcome in attack.run_pass(attack.points(profile, seed, 0),
                                       profile, common.Tally(),
                                       Fence(None))}

    common.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {sum(map(len, pins.values()))} fingerprints to "
          f"{common.PINS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
