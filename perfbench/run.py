"""Benchmark command: one workload, one seed, one result line.

    python3 perfbench/run.py --workload campaign-cold --seed 0 \
        --seconds 20 --trace 0

With ``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` a separate traced run reports
every per-layer metric and writes its spans as a Chrome trace under
``.perfbench/``. Both check results against pinned fingerprints (at
the default seed) and against each other, and count each mismatch as a
failed operation. Run from the root of a checkout that has ``src/``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import signal
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Every end-to-end metric: (name, unit). Each workload reports all of
#: them; README.md says what each one means on each workload.
END_TO_END = (
    ("points_per_s", "1/s"),
    ("warm_points_per_s", "1/s"),
    ("acts_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

LAYERS = ("workloads", "sim", "mitigations", "attacks", "exec", "serve",
          "fabric")

#: Every per-layer metric: (name, unit). A layer a workload does not
#: exercise reports 0.
PER_LAYER = (
    ("workloads.us_per_item", "us"),
    ("sim.tracegen_s", "s"),
    ("sim.warmup_s", "s"),
    ("sim.run_s", "s"),
    ("sim.us_per_request", "us"),
    ("sim.requests", "count"),
    ("sim.acts", "count"),
    ("sim.row_conflicts", "count"),
    ("sim.refreshes", "count"),
    ("sim.rfms", "count"),
    ("sim.alerts", "count"),
    ("sim.fastforward_frac", "ratio"),
    ("mitigations.hook_calls", "count"),
    ("mitigations.hook_s", "s"),
    ("attacks.ledger_s", "s"),
    ("attacks.loop_self_s", "s"),
    ("attacks.alerts", "count"),
    ("attacks.mitigations", "count"),
    ("exec.simulate_s", "s"),
    ("exec.cache_io_s", "s"),
    ("exec.parallel_eff", "ratio"),
    ("exec.lookup_s", "s"),
    ("exec.cache_get_ms", "ms"),
    ("exec.decode_ms", "ms"),
    ("exec.encode_ms", "ms"),
    ("exec.cache_hit_ratio", "ratio"),
    ("serve.submit_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.result_ms", "ms"),
    ("serve.overhead_ms_per_point", "ms"),
    ("serve.points_simulated", "count"),
    ("serve.dedup_hits", "count"),
    ("serve.cache_hits", "count"),
    ("serve.duplicate_sims", "count"),
    ("fabric.place_ms", "ms"),
    ("fabric.remote_hit_ratio", "ratio"),
    ("fabric.hedges", "count"),
    ("fabric.failovers", "count"),
    ("trace_overhead_frac", "ratio"),
) + tuple((f"self_s.{layer}", "s") for layer in LAYERS)

#: Registry designs timed per activation on attack-harness.
ATTACK_DESIGNS = ("prac", "moat", "qprac", "qprac-proactive", "cnc-prac",
                  "practical", "mopac-c", "mopac-d", "mint", "pride", "trr")


def per_layer_spec() -> tuple[tuple[str, str], ...]:
    return PER_LAYER + tuple((f"attacks.us_per_act.{design}", "us")
                             for design in ATTACK_DESIGNS)


def workload_modules():
    from perfbench import attack, cold, fabric

    return {"campaign-cold": cold, "campaign-fabric": fabric,
            "attack-harness": attack}


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign-cold", "campaign-fabric",
                                 "attack-harness"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common

    removed = common.scrub_env()
    from repro.exec.env import engine_choice

    common.say(f"engine: {engine_choice()}; scrubbed knobs: "
               f"{', '.join(removed) or 'none'}")
    module = workload_modules()[args.workload]
    tally = common.Tally()
    # a SIGTERM still runs the teardown below, which stops serve nodes
    # started in their own sessions
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    from perfbench.hostspeed import REFERENCE_S, HostSpeed

    speed = HostSpeed()
    try:
        state = module.setup(module.Profile(), speed)
        try:
            if args.trace:
                metrics = traced(module, state, args, tally)
            else:
                metrics = module.run(state, args.seed, args.seconds, tally)
                metrics["setup_s"] = (state["setup_s"], "s")
        finally:
            module.teardown(state)
    finally:
        speed.close()
    if speed.samples:
        common.say(f"host-speed probe: {len(speed.samples)} samples, "
                   f"median {statistics.median(speed.samples) * 1e3:.3f} ms"
                   f" (reference {REFERENCE_S * 1e3:g} ms)")
    # after teardown, so that stopped serve nodes count as children
    metrics["peak_rss_mb"] = (common.peak_rss_mb(), "MB")
    expected = per_layer_spec() if args.trace else END_TO_END
    missing = [name for name, _ in expected if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    common.emit(tally, {name: metrics[name] for name, _ in expected})
    return 0


def traced(module, state, args, tally):
    from perfbench import common
    from perfbench.tracing import self_times

    values = module.traced(state, args.seed, tally)
    log = state["log"]
    for layer, seconds in self_times(log.spans, log.cost).items():
        values[f"self_s.{layer}"] = seconds
    path = common.SCRATCH / f"trace-{args.workload}-{args.seed}.json"
    common.SCRATCH.mkdir(exist_ok=True)
    count = log.to_chrome_trace(path)
    common.say(f"{args.workload}: {count} spans written to "
               f"{path.relative_to(ROOT)}")
    return {name: (values.get(name, 0.0), unit)
            for name, unit in per_layer_spec()}


if __name__ == "__main__":
    sys.exit(main())
