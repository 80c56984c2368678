"""Shared PRAC state: per-row counters and the MOAT tracker.

PRAC (Per-Row Activation Counting) stores one activation counter per DRAM
row, physically inlined with the row. MOAT [Qureshi & Qazi] is the provably
secure single-entry tracker built on top: each bank remembers only the row
with the *highest counter value observed since the bank's last mitigation*;
when that value reaches the ALERT threshold the DRAM asserts ALERT, and
under the resulting RFM every bank mitigates its tracked row if the value
is at least the Eligibility Threshold (ETH = ATH / 2).

All MoPAC variants reuse this machinery — they differ only in *when* and
*by how much* the counters are updated.

Every per-row count in the package (these counters, PRACtical's
subarray state, the security shadow, the attack ledger and the
differential auditor) has one sparse form: a ``dict[int, int]`` per
bank, where an absent row counts 0. An attack touches a few thousand
rows of a 65536-row bank, so a dict costs what is touched, not the
bank's size. Hot paths update it inline with ``get``/set; the two cold
operations every owner shares, the refresh range clear and the
blast-radius victim bump, live here once.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Victim rows refreshed around a mitigated aggressor (blast radius 2).
BLAST_RADIUS = 2


def clear_range(counts: dict[int, int], start: int, stop: int) -> int:
    """Periodic refresh of rows [start, stop) in one bank's counts.

    Drops every counted row of the range and returns the largest count
    dropped (0 when none was counted).
    """
    if not counts:
        # most banks of an attack are untouched, and every REF clears
        # every bank of every store: this exit is ~10% of attack-harness
        # acts_per_s
        return 0
    peak = 0
    for row in range(start, stop):
        value = counts.pop(row, 0)
        if value > peak:
            peak = value
    return peak


def bump_victims(counts: dict[int, int], row: int, rows: int) -> list[int]:
    """Victim refresh around ``row``: each in-range blast-radius victim
    gains +1, because the refresh activates it (paper footnote 5).

    Returns the victims in bump order (nearest first, lower side first).
    The caller resets the aggressor itself.
    """
    victims = []
    for offset in range(1, BLAST_RADIUS + 1):
        for victim in (row - offset, row + offset):
            if 0 <= victim < rows:
                counts[victim] = counts.get(victim, 0) + 1
                victims.append(victim)
    return victims


@dataclass
class MoatTracker:
    """Single-entry per-bank tracker: (row, counter value)."""

    row: int = -1
    value: int = 0

    def observe(self, row: int, value: int) -> None:
        """Track the row if its counter exceeds the current maximum."""
        if value > self.value or self.row < 0:
            self.row = row
            self.value = value

    def invalidate(self) -> None:
        self.row = -1
        self.value = 0

    @property
    def valid(self) -> bool:
        return self.row >= 0


class PRACCounters:
    """Per-bank PRAC counters with MOAT trackers.

    One instance models one DRAM chip's view of a sub-channel: ``banks``
    sparse counter maps over ``rows`` rows each, plus one
    :class:`MoatTracker` per bank. Counter updates feed the tracker;
    refreshes clear counters.
    """

    def __init__(self, banks: int, rows: int):
        if banks <= 0 or rows <= 0:
            raise ValueError("banks and rows must be positive")
        self.banks = banks
        self.rows = rows
        self.counters: list[dict[int, int]] = [{} for _ in range(banks)]
        self.trackers = [MoatTracker() for _ in range(banks)]

    def update(self, bank: int, row: int, increment: int) -> int:
        """Apply a counter update and inform the MOAT tracker.

        Returns the new counter value.
        """
        counters = self.counters[bank]
        value = counters.get(row, 0) + increment
        counters[row] = value
        self.trackers[bank].observe(row, value)
        return value

    def value(self, bank: int, row: int) -> int:
        return self.counters[bank].get(row, 0)

    def tracker(self, bank: int) -> MoatTracker:
        return self.trackers[bank]

    def mitigate(self, bank: int) -> int | None:
        """Mitigate the tracked row of ``bank``.

        Performs the victim refresh bookkeeping: the aggressor's counter is
        reset (its victims are now fresh) and each victim row's counter is
        incremented by one, because a victim refresh activates the victim
        (paper footnote 5). Returns the mitigated row, or None if the
        tracker was empty.
        """
        tracker = self.trackers[bank]
        if not tracker.valid:
            return None
        row = tracker.row
        counters = self.counters[bank]
        counters.pop(row, None)
        tracker.invalidate()
        for victim in bump_victims(counters, row, self.rows):
            tracker.observe(victim, counters[victim])
        return row

    def refresh_rows(self, bank: int, start: int, stop: int) -> None:
        """Periodic refresh of rows [start, stop): counters reset.

        If the MOAT-tracked row falls in the refreshed range its entry is
        invalidated (its counter is now zero).
        """
        clear_range(self.counters[bank], start, stop)
        tracker = self.trackers[bank]
        if tracker.valid and start <= tracker.row < stop:
            tracker.invalidate()

    def max_value(self, bank: int) -> int:
        return max(self.counters[bank].values(), default=0)


@dataclass
class RefreshSchedule:
    """Round-robin group refresh: REF k refreshes group k mod groups.

    The paper divides memory into 8192 groups refreshed once per tREFW.
    Scaled-down geometries use fewer groups so that every row is still
    refreshed exactly once per (scaled) refresh window.
    """

    rows: int
    groups: int = 8192
    next_group: int = 0
    rounds: int = 0

    def __post_init__(self) -> None:
        if self.rows <= 0:
            raise ValueError("rows must be positive")
        self.groups = max(1, min(self.groups, self.rows))

    @property
    def rows_per_group(self) -> int:
        return (self.rows + self.groups - 1) // self.groups

    def advance(self) -> tuple[int, int]:
        """Return the [start, stop) row range refreshed by the next REF."""
        start = self.next_group * self.rows_per_group
        stop = min(start + self.rows_per_group, self.rows)
        self.next_group += 1
        if self.next_group >= self.groups:
            self.next_group = 0
            self.rounds += 1
        return start, stop
