"""Ground-truth security ledger.

The threat model (Section 2.1) declares an attack successful when any row
receives more than T_RH activations *without an intervening mitigation or
refresh*. The ledger is the omniscient referee: it counts activations per
(bank, row) independently of whatever the mitigation believes, resets a
row's count when the policy mitigates it (its victims are refreshed) or
when periodic refresh reaches it, and records the maximum count ever
observed.

The ledger is aggressor-centric and deliberately *conservative*: a victim
refresh triggered by mitigating row r clears only r's ledger count, even
though it also freshens rows that other aggressors were hammering. The
mitigations therefore face a slightly stronger adversary here than in
reality — if they pass, they pass with margin.

Counts are sparse, one ``dict[int, int]`` per bank with absent rows at 0
(the form every per-row count shares, see
:mod:`repro.mitigations.prac_state`); read them through :meth:`value`
and :meth:`max_value`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mitigations.prac_state import RefreshSchedule, clear_range


@dataclass
class LedgerReport:
    """Outcome of a security run."""

    max_count: int
    max_bank: int
    max_row: int
    total_activations: int
    trh: int

    @property
    def attack_succeeded(self) -> bool:
        return self.max_count > self.trh


class HammerLedger:
    """Per-(bank, row) unmitigated-activation counts."""

    def __init__(self, banks: int, rows: int, trh: int,
                 refresh_groups: int = 8192):
        if banks <= 0 or rows <= 0 or trh <= 0:
            raise ValueError("banks, rows, trh must be positive")
        self.banks = banks
        self.rows = rows
        self.trh = trh
        self.counts: list[dict[int, int]] = [{} for _ in range(banks)]
        self.refresh_schedule = RefreshSchedule(rows, refresh_groups)
        self.max_count = 0
        self.max_bank = 0
        self.max_row = 0
        self.total_activations = 0

    def on_activate(self, bank: int, row: int) -> int:
        """Count one activation; returns the row's running count."""
        self.total_activations += 1
        counts = self.counts[bank]
        value = counts.get(row, 0) + 1
        counts[row] = value
        if value > self.max_count:
            self.max_count = value
            self.max_bank = bank
            self.max_row = row
        return value

    def on_mitigation(self, bank: int, row: int) -> None:
        """The policy victim-refreshed around ``row``: its slate is clean."""
        if 0 <= row < self.rows:
            self.counts[bank].pop(row, None)

    def on_refresh(self) -> None:
        """One REF: the next refresh group's rows are freshened."""
        start, stop = self.refresh_schedule.advance()
        for counts in self.counts:
            clear_range(counts, start, stop)

    def value(self, bank: int, row: int) -> int:
        """The row's current unmitigated count."""
        return self.counts[bank].get(row, 0)

    def max_value(self, bank: int) -> int:
        """The bank's largest current count (0 when none)."""
        return max(self.counts[bank].values(), default=0)

    def report(self) -> LedgerReport:
        return LedgerReport(
            max_count=self.max_count, max_bank=self.max_bank,
            max_row=self.max_row, total_activations=self.total_activations,
            trh=self.trh,
        )
