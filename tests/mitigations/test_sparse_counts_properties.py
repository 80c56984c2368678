"""The sparse per-row counts agree with a dense list model.

Every per-row count is a ``dict[int, int]`` per bank with absent rows at
0 (:mod:`repro.mitigations.prac_state`). These properties drive the
sparse stores and a plain dense model with the same random
add / mitigate / refresh-range operations and compare every row's
value, each bank's maximum, the MOAT tracker and the security peak
after every step. Refresh ranges run from empty to the whole bank.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mitigations.prac_state import (BLAST_RADIUS, PRACCounters,
                                          bump_victims, clear_range)
from repro.mitigations.security import SecurityTelemetry

BANKS, ROWS = 2, 16

ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, BANKS - 1),
                  st.integers(0, ROWS - 1), st.integers(1, 9)),
        st.tuples(st.just("mitigate"), st.integers(0, BANKS - 1),
                  st.integers(0, ROWS - 1), st.just(0)),
        # (start, length): mostly REF-group-sized, sometimes whole-bank
        st.tuples(st.just("refresh"), st.integers(0, BANKS - 1),
                  st.integers(0, ROWS),
                  st.one_of(st.integers(0, 4), st.integers(0, ROWS))),
    ),
    min_size=1, max_size=200)


class DenseModel:
    """Dense reference: one list of ``ROWS`` ints per bank."""

    def __init__(self):
        self.counts = [[0] * ROWS for _ in range(BANKS)]
        self.peak = [0] * BANKS
        self.tracker = [(-1, 0)] * BANKS

    def observe(self, bank, row):
        tracked, value = self.tracker[bank]
        if self.counts[bank][row] > value or tracked < 0:
            self.tracker[bank] = (row, self.counts[bank][row])

    def add(self, bank, row, increment):
        self.counts[bank][row] += increment
        self.observe(bank, row)

    def victim_refresh(self, bank, row):
        """Aggressor reset, blast-radius victims +1; victims returned."""
        counts = self.counts[bank]
        self.peak[bank] = max(self.peak[bank], counts[row])
        counts[row] = 0
        victims = [victim for offset in range(1, BLAST_RADIUS + 1)
                   for victim in (row - offset, row + offset)
                   if 0 <= victim < ROWS]
        for victim in victims:
            counts[victim] += 1
        return victims

    def mitigate_tracked(self, bank):
        row, _ = self.tracker[bank]
        if row < 0:
            return None
        self.tracker[bank] = (-1, 0)
        for victim in self.victim_refresh(bank, row):
            self.observe(bank, victim)
        return row

    def refresh(self, bank, start, stop):
        counts = self.counts[bank]
        self.peak[bank] = max([self.peak[bank]] + counts[start:stop])
        counts[start:stop] = [0] * len(counts[start:stop])
        if start <= self.tracker[bank][0] < stop:
            self.tracker[bank] = (-1, 0)


def refresh_range(start, length):
    return start, min(start + length, ROWS)


@settings(max_examples=100, deadline=None)
@given(ops)
def test_shared_operations_match_dense_model(op_list):
    """``clear_range`` returns the largest count it cleared, and
    ``bump_victims`` bumps what the dense model bumps, on one raw map."""
    sparse, model = {}, DenseModel()
    for op, _, a, b in op_list:
        if op == "add":
            sparse[a] = sparse.get(a, 0) + b
            model.counts[0][a] += b
        elif op == "mitigate":
            sparse.pop(a, None)
            assert bump_victims(sparse, a, ROWS) \
                == model.victim_refresh(0, a)
        else:
            start, stop = refresh_range(a, b)
            assert clear_range(sparse, start, stop) \
                == max(model.counts[0][start:stop], default=0)
            model.refresh(0, start, stop)
        assert [sparse.get(row, 0) for row in range(ROWS)] \
            == model.counts[0]
        assert 0 not in sparse.values()


@settings(max_examples=100, deadline=None)
@given(ops)
def test_prac_counters_match_dense_model(op_list):
    sparse, model = PRACCounters(BANKS, ROWS), DenseModel()
    for op, bank, a, b in op_list:
        if op == "add":
            assert sparse.update(bank, a, b) == model.counts[bank][a] + b
            model.add(bank, a, b)
        elif op == "mitigate":
            assert sparse.mitigate(bank) == model.mitigate_tracked(bank)
        else:
            start, stop = refresh_range(a, b)
            sparse.refresh_rows(bank, start, stop)
            model.refresh(bank, start, stop)
        for index in range(BANKS):
            assert [sparse.value(index, row) for row in range(ROWS)] \
                == model.counts[index]
            assert sparse.max_value(index) == max(model.counts[index])
            tracker = sparse.tracker(index)
            assert (tracker.row, tracker.value) == model.tracker[index]


@settings(max_examples=100, deadline=None)
@given(ops)
def test_security_shadow_matches_dense_model(op_list):
    sparse, model = SecurityTelemetry(BANKS, ROWS), DenseModel()
    for op, bank, a, b in op_list:
        if op == "add":
            for _ in range(b):
                sparse.on_activate(bank, a)
            model.counts[bank][a] += b
        elif op == "mitigate":
            sparse.on_mitigation(bank, a)
            model.victim_refresh(bank, a)
        else:
            start, stop = refresh_range(a, b)
            sparse.on_refresh_range(bank, start, stop)
            model.refresh(bank, start, stop)
        for index in range(BANKS):
            assert [sparse.true_count(index, row) for row in range(ROWS)] \
                == model.counts[index]
            assert sparse.peak[index] == model.peak[index]
            assert sparse.max_disturbance(index) == max(
                model.peak[index], max(model.counts[index]))
