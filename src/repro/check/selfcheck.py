"""Self-check: prove the verification stack works end to end.

``python -m repro.check.selfcheck`` runs, in order:

1. **oracle/clean** — trace a default-config campaign point (an
   ABO-heavy MoPAC-D hammer run) and a second, geometry-diverse point
   through the simulator; the conformance oracle must report zero
   violations with no dropped trace events;
2. **oracle/mutations** — apply each seeded mutation from
   :mod:`repro.check.mutations` (drop a PRE, shrink a tRC, skip an RFM)
   to the clean trace, for several seeds; the oracle must flag every
   mutant (a silent oracle proves nothing);
3. **differential** — MoPAC-C / MoPAC-D / QPRAC / exact-PRAC on one
   seeded adversarial stream; security and counter-conservation
   invariants must hold;
4. **fuzz smoke** — a bounded run of the property-based MC fuzzer,
   plus replay of the per-mitigation seed corpora under
   ``tests/check/seeds/`` (curated ALERT/RFM-heavy cases);
5. **golden** — both campaign points re-run traced: the result digest
   and the command-stream digest must equal the pinned goldens
   (:data:`GOLDENS`), and the trace must satisfy the conformance
   oracle.

Exit status 0 when every step passes, 1 otherwise — wired into
``make check`` (and thereby ``make ci``).
"""

from __future__ import annotations

import argparse
import random
import sys

from ..obs.tracer import EventTracer
from ..sim.runner import DesignPoint, run_point
from .corpus import run_corpus
from .differential import run_differential
from .driver import (TRACE_CAPACITY, oracle_config_for, result_digest,
                     trace_digest, trace_point, verify_point)
from .fuzz import run_fuzz
from .mutations import MutationError, drop_pre, shrink_trc, skip_rfm
from .oracle import ConformanceOracle

#: campaign point with heavy ABO traffic (13+ ALERT/RFM pairs) — the
#: mutation checks need RFMs in the trace to have something to skip
ABO_POINT = DesignPoint(
    workload="hammer", design="mopac-d", trh=250, instructions=12_000,
    rows_per_bank=128, refresh_scale=1 / 256, p=1.0, srq_size=5,
    drain_on_ref=0)

#: second clean-trace point: different design, page pressure, geometry
MIX_POINT = DesignPoint(
    workload="mcf", design="mopac-c", trh=500, instructions=20_000,
    rows_per_bank=256, refresh_scale=1 / 128)

#: (result digest, command-stream digest) of each campaign point,
#: pinned from the reference event loop (see
#: :func:`~repro.check.driver.result_digest`); a mismatch is a change of
#: simulated behaviour
GOLDENS = {
    ABO_POINT: (
        "2647097062f8908b2bc7cc332a53bfaf128b8d25b40a5dc7fa3e43fe99c7ddfd",
        "f60bd5d2c87d4efb709f2c1f202df2231d7f6d0f934aef61cab58b11c6d07718"),
    MIX_POINT: (
        "43ecf55197bf0ede1040e1c09e68a605902606a5ffa554ffcac51ac28291065a",
        "d016be710f375b6532753e8a8cb650908fd1176ffd91e973f3e87b3ea30091fa"),
}

MUTATIONS = (("drop-pre", drop_pre, False),
             ("shrink-trc", shrink_trc, True),
             ("skip-rfm", skip_rfm, False))

MUTATION_SEEDS = (1, 2, 3)


def _check(name: str, ok: bool, detail: str, failures: list[str],
           quiet: bool) -> None:
    if not ok:
        failures.append(f"{name}: {detail}")
    if not quiet:
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")


def run_selfcheck(fuzz_cases: int = 12, fuzz_seed: int = 0xC4EC,
                  quiet: bool = False) -> int:
    failures: list[str] = []

    # 1. clean traces verify with zero violations
    for point in (ABO_POINT, MIX_POINT):
        verdict = verify_point(point)
        _check(f"oracle/clean/{verdict.label}", verdict.ok,
               verdict.describe(), failures, quiet)

    # 2. every seeded mutation of the clean trace is caught
    tracer = trace_point(ABO_POINT)
    events = tracer.events()
    config = oracle_config_for(ABO_POINT)
    for name, mutate, wants_config in MUTATIONS:
        for seed in MUTATION_SEEDS:
            rng = random.Random(seed)
            try:
                mutant = mutate(events, config, rng) if wants_config \
                    else mutate(events, rng)
            except MutationError as error:
                _check(f"oracle/mutation/{name}/seed{seed}", False,
                       f"no mutation site: {error}", failures, quiet)
                continue
            violations = ConformanceOracle(config).verify(mutant)
            detail = (f"caught as {violations[0].rule}" if violations
                      else "NOT caught")
            _check(f"oracle/mutation/{name}/seed{seed}",
                   bool(violations), detail, failures, quiet)

    # 3. differential invariants across the designs
    report = run_differential()
    _check("differential", report.ok, report.describe().splitlines()[0],
           failures, quiet)

    # 4. fuzz smoke + pinned per-mitigation seed corpora
    fuzz = run_fuzz(cases=fuzz_cases, master_seed=fuzz_seed)
    _check("fuzz", fuzz.ok, fuzz.describe().splitlines()[0],
           failures, quiet)
    corpus = run_corpus()
    _check("fuzz/corpus", corpus.ok, corpus.describe().splitlines()[0],
           failures, quiet)

    # 5. results and command streams equal the pinned goldens
    for point, (want_result, want_trace) in GOLDENS.items():
        label = f"{point.workload}.{point.design}"
        tracer = EventTracer(capacity=TRACE_CAPACITY)
        result = run_point(point, tracer=tracer)
        events = tracer.events()
        same_result = result_digest(result) == want_result
        same_trace = trace_digest(events) == want_trace
        _check(f"golden/identity/{label}", same_result and same_trace,
               f"result {'matches' if same_result else 'DIVERGES'}, "
               f"{len(events)} traced events "
               f"{'match' if same_trace else 'DIVERGE'}",
               failures, quiet)
        violations = ConformanceOracle(
            oracle_config_for(point)).verify(events)
        _check(f"golden/oracle/{label}", not violations,
               ("zero violations" if not violations
                else f"{len(violations)} violation(s), first: "
                     f"{violations[0].rule}"),
               failures, quiet)

    if failures:
        print(f"selfcheck: {len(failures)} FAILURE(S)", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if not quiet:
        print("selfcheck: all checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.selfcheck",
        description="independent verification of the simulator's traces")
    parser.add_argument("--fuzz-cases", type=int, default=12,
                        help="number of fuzz cases (default 12)")
    parser.add_argument("--fuzz-seed", type=lambda s: int(s, 0),
                        default=0xC4EC, help="fuzz master seed")
    parser.add_argument("--quiet", action="store_true",
                        help="only print on failure")
    args = parser.parse_args(argv)
    return run_selfcheck(fuzz_cases=args.fuzz_cases,
                         fuzz_seed=args.fuzz_seed, quiet=args.quiet)


if __name__ == "__main__":
    raise SystemExit(main())
