"""Memory request value type."""

import pytest

from repro.mc.request import MemRequest


def make_request(**kw):
    defaults = dict(core=0, bank=2, row=3, arrival_ps=100)
    defaults.update(kw)
    return MemRequest(**defaults)


class TestMemRequest:
    def test_bank_and_row_fields(self):
        request = make_request()
        assert (request.bank, request.row) == (2, 3)
        assert request.completion_ps is None

    def test_latency_after_completion(self):
        request = make_request()
        request.completion_ps = 150
        assert request.latency_ps == 50

    def test_latency_before_completion_rejected(self):
        with pytest.raises(ValueError):
            make_request().latency_ps

    def test_ids_unique(self):
        a, b = make_request(), make_request()
        assert a.request_id != b.request_id

    def test_write_flag(self):
        assert make_request(is_write=True).is_write
