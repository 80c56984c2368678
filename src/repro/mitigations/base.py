"""Mitigation policy interface.

A :class:`MitigationPolicy` instance encapsulates everything one
*sub-channel* worth of DRAM does about Rowhammer: per-row activation
counters (when the design has them), trackers (MOAT / SRQ / TRR table),
the probabilistic samplers, and the decision to assert ALERT.

The same policy object is driven by two harnesses:

* the full-system simulator (cores -> MC -> banks), which additionally
  enforces the per-episode DRAM timings the policy requests, and
* the fast activation-level attack simulator (``repro.attacks``), which
  issues back-to-back activations and only consults the hooks — this is
  how security verification runs millions of activations quickly.

Hooks are synchronous and must be cheap; all are called with the current
simulation time in picoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dram.timing import TimingSet, ddr5_base


@dataclass(frozen=True)
class EpisodeDecision:
    """What the policy decided for one activation episode of a bank.

    ``act_timing`` governs tRCD/tRAS/tRC of this episode; ``pre_timing``
    governs the closing precharge's tRP. ``counter_update`` marks whether
    the closing precharge performs the PRAC read-modify-write (and should
    therefore be a PREcu for MC-side designs).
    """

    act_timing: TimingSet
    pre_timing: TimingSet
    counter_update: bool


@dataclass
class MitigationEvent:
    """A victim-refresh performed by the policy (for the security ledger)."""

    bank: int
    row: int
    time_ps: int


@dataclass
class PolicyStats:
    """Counters every policy maintains; subclasses may extend."""

    activations: int = 0
    counter_updates: int = 0
    alerts: int = 0
    alerts_mitigation: int = 0
    alerts_srq_full: int = 0
    alerts_tardiness: int = 0
    mitigations: int = 0
    srq_insertions: int = 0
    ref_drains: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class MitigationPolicy:
    """Base class: the do-nothing (baseline, unprotected) policy."""

    #: short name used in experiment output
    name = "baseline"

    def __init__(self, timing: TimingSet | None = None):
        self.timing = timing or ddr5_base()
        self.stats = PolicyStats()
        #: JEDEC ABO mitigation level: RFMs issued per ALERT (paper: 1).
        #: The harness stalls abo_level * tALERT_RFM and calls
        #: :meth:`on_rfm` that many times per ALERT episode.
        self.abo_level = 1
        #: mitigation events since last drain: the attack harness feeds
        #: them to its ledger, the memory controller discards them
        self.pending_mitigations: list[MitigationEvent] = []
        #: opt-in event tracer (set by the harness; None = no tracing)
        self.tracer = None
        #: sub-channel index for trace attribution (set by the harness)
        self.tracer_subchannel = -1
        #: shadow true-activation accounting for the counting designs
        #: (:class:`~repro.mitigations.security.SecurityTelemetry`);
        #: None for policies with no counters to compare against
        self.security = None
        # Decisions are frozen and depend only on the (fixed) timing
        # sets, so the two flavours are built once instead of allocating
        # a fresh EpisodeDecision on every ACT of the hot path.
        self._plain_decision = EpisodeDecision(self.timing, self.timing,
                                               False)
        self._cu_decision = EpisodeDecision(self.timing, self.timing, True)

    # -- activation path -------------------------------------------------
    def on_activate(self, bank: int, row: int, now: int) -> EpisodeDecision:
        """Called when the MC issues an ACT. Returns the episode timings."""
        self.stats.activations += 1
        return self._plain_decision

    def on_precharge(self, bank: int, row: int, now: int,
                     counter_update: bool) -> None:
        """Called when the episode is closed."""

    def note_row_open(self, bank: int, row: int, open_ps: int) -> None:
        """Row-open-time report for Row-Press accounting (Appendix A).

        Called alongside the precharge with the episode's total open time;
        Row-Press-aware designs convert long open times into extra damage
        units. The default policy ignores it.
        """

    # -- maintenance path --------------------------------------------------
    def on_refresh(self, now: int, bank: int | None = None) -> None:
        """Called at every REF command (policy may drain/mitigate here).

        ``bank`` is None for an all-bank REF (the paper's setup) or the
        refreshed bank's index for DDR5 same-bank REFsb.
        """

    def alert_requested(self) -> bool:
        """True when the sub-channel is asserting ALERT."""
        return False

    def on_rfm(self, now: int) -> None:
        """Perform the work of one RFM (the 350 ns ABO service window)."""

    def timing_pair(self) -> tuple[TimingSet, TimingSet]:
        """(normal, counter-update) timing sets this policy can request.

        Most designs run every episode on one timing set, so both slots
        are :attr:`timing`; MoPAC-C overrides this with its dual sets.
        The MC uses the pair to bound episode timings before the episode
        decision exists, and the conformance oracle uses it to pick the
        right set from a traced episode's counter-update flag.
        """
        return self.timing, self.timing

    # -- introspection -----------------------------------------------------
    def counter_value(self, bank: int, row: int) -> int:
        """Current PRAC counter value for (bank, row); 0 if untracked."""
        return 0

    def drain_mitigations(self) -> list[MitigationEvent]:
        """Return and clear mitigation events (harness ledger hookup).

        Contract: every mitigation is queued on
        :attr:`pending_mitigations` (``_record_mitigation`` does it), and
        that list is empty exactly when there is nothing to drain. The
        attack harness checks the list after each ACT and calls this
        only when it is non-empty; it always drains after REF and RFM.
        The memory controller keeps no ledger, so it discards the queue
        after each REF and RFM service instead of draining it.
        """
        events, self.pending_mitigations = self.pending_mitigations, []
        return events

    def register_stats(self, registry, prefix: str) -> None:
        """Expose the policy's counters under ``prefix`` (registry hookup).

        Counting policies additionally publish the
        ``<prefix>.security.*`` family (drift vs ground truth, PRE
        rates, per-bank max disturbance, RFM cadence — see
        :mod:`repro.mitigations.security`).
        """
        registry.register(prefix, self.stats.as_dict)
        if self.security is not None:
            registry.register(f"{prefix}.security",
                              lambda: self.security.as_dict(self.stats))

    # -- helpers for subclasses ---------------------------------------------
    def _record_mitigation(self, bank: int, row: int, now: int) -> None:
        self.stats.mitigations += 1
        if self.tracer is not None:
            self.tracer.record(now, "MITIGATE", self.tracer_subchannel,
                               bank, row)
        if self.security is not None:
            # mirror the victim refresh into the shadow truth: the
            # aggressor's victims are fresh, and each victim row was
            # itself activated once by the refresh (footnote 5)
            self.security.on_mitigation(bank, row)
        self.pending_mitigations.append(MitigationEvent(bank, row, now))


@dataclass
class AlertCause:
    MITIGATION = "mitigation"
    SRQ_FULL = "srq_full"
    TARDINESS = "tardiness"

    cause: str = field(default=MITIGATION)
