"""Scratchpad mode (Section VII)."""

import numpy as np
import pytest

from repro.common.errors import CapacityError, ConfigError
from repro.csb.csb import CSB
from repro.memmode.scratchpad import ROW_READ_CYCLES, ROW_WRITE_CYCLES, Scratchpad


@pytest.fixture(params=("reference", "bitplane"))
def pad(request):
    return Scratchpad(
        CSB(num_chains=2, num_subarrays=4, num_cols=32, backend=request.param)
    )


def test_capacity_is_rows_times_subarrays_times_chains(pad):
    # 2 chains x 4 subarrays x 36 rows = 288 words.
    assert pad.capacity_words == 2 * 4 * 36


def test_word_round_trip(pad, rng):
    for addr in (0, 4, 128, 4 * (pad.capacity_words - 1)):
        value = int(rng.integers(0, 2**32))
        pad.write_word(addr, value)
        assert pad.read_word(addr) == value


def test_block_round_trip(pad, rng):
    values = rng.integers(0, 2**32, size=40)
    pad.write_block(0x40, values)
    assert pad.read_block(0x40, 40).tolist() == values.tolist()


def test_distinct_addresses_are_independent(pad):
    pad.write_word(0, 111)
    pad.write_word(4, 222)
    assert pad.read_word(0) == 111
    assert pad.read_word(4) == 222


def test_row_access_cycle_accounting(pad):
    start = pad.cycles
    pad.write_word(0, 1)
    assert pad.cycles == start + ROW_WRITE_CYCLES
    pad.read_word(0)
    assert pad.cycles == start + ROW_WRITE_CYCLES + ROW_READ_CYCLES


def test_alignment_enforced(pad):
    with pytest.raises(ConfigError):
        pad.read_word(2)


def test_capacity_enforced(pad):
    with pytest.raises(CapacityError):
        pad.read_word(4 * pad.capacity_words)
