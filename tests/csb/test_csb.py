"""CSB-level behaviour: interleaving, VLA masking, global reduction."""

import numpy as np
import pytest

from repro.common.errors import CapacityError, ConfigError
from repro.csb.csb import CSB


def test_max_vl_is_chains_times_columns(small_csb):
    assert small_csb.max_vl == 4 * 8


def test_adjacent_elements_interleave_across_chains(small_csb):
    """Section V-E: element e lives in chain e % C (DIMM-style interleave)."""
    for element in range(small_csb.max_vl):
        chain, col = small_csb.locate(element)
        assert chain == element % 4
        assert col == element // 4


def test_locate_rejects_out_of_range(small_csb):
    with pytest.raises(CapacityError):
        small_csb.locate(small_csb.max_vl)


def test_vector_write_read_round_trip(small_csb, rng):
    values = rng.integers(0, 256, size=small_csb.max_vl)
    small_csb.write_vector(3, values)
    assert small_csb.read_vector(3).tolist() == values.tolist()


def test_poke_peek_round_trip(small_csb, rng):
    values = rng.integers(0, 256, size=small_csb.max_vl)
    small_csb.poke_vector(3, values)
    assert small_csb.peek_vector(3).tolist() == values.tolist()


def test_vector_larger_than_capacity_rejected(small_csb):
    with pytest.raises(CapacityError):
        small_csb.write_vector(0, np.zeros(small_csb.max_vl + 1))


def test_set_vector_length_masks_tail(small_csb):
    small_csb.poke_vector(1, np.zeros(small_csb.max_vl))
    small_csb.set_vector_length(10)
    # Bulk-set through every chain: only elements 0..9 may change.
    for chain in small_csb.chains:
        chain.update_bit_parallel(1, 1, use_tags=False)
    values = small_csb.peek_vector(1)
    assert (values[:10] > 0).all()
    assert (values[10:] == 0).all()


def test_fully_masked_chains_power_gate(small_csb):
    small_csb.set_vector_length(2)  # elements 0,1 -> chains 0,1 only
    gated = [chain.is_power_gated for chain in small_csb.chains]
    assert gated == [False, False, True, True]


def test_vstart_masks_prefix(small_csb):
    small_csb.poke_vector(1, np.zeros(small_csb.max_vl))
    small_csb.set_vector_length(8, vstart=4)
    for chain in small_csb.chains:
        chain.update_bit_parallel(1, 1, use_tags=False)
    values = small_csb.peek_vector(1)
    assert (values[:4] == 0).all()
    assert (values[4:8] > 0).all()
    assert (values[8:] == 0).all()


def test_set_vector_length_bounds(small_csb):
    with pytest.raises(CapacityError):
        small_csb.set_vector_length(small_csb.max_vl + 1)
    with pytest.raises(ConfigError):
        small_csb.set_vector_length(4, vstart=5)


def test_global_redsum_combines_chain_partials(small_csb, rng):
    values = rng.integers(0, 200, size=small_csb.max_vl)
    small_csb.poke_vector(2, values)
    assert small_csb.redsum(2, width=8) == int(values.sum())


def test_redsum_after_vl_masking(small_csb):
    small_csb.poke_vector(2, np.ones(small_csb.max_vl))
    small_csb.set_vector_length(13)
    assert small_csb.redsum(2, width=8) == 13


def test_bitplane_per_chain_windows_follow_the_ganged_window():
    """Under the bit-plane backend each chain's window is a view of the
    ganged chain's, so it equals the reference CSB's per-chain window
    after every window change — including one programmed on the ganged
    chain directly."""
    ref = CSB(num_chains=4, num_subarrays=8, num_cols=8)
    fast = CSB(num_chains=4, num_subarrays=8, num_cols=8, backend="bitplane")

    def assert_same_windows():
        for got, want in zip(fast.chains, ref.chains):
            assert got.active_columns.tolist() == want.active_columns.tolist()

    for vl, vstart in [(32, 0), (10, 0), (13, 5), (7, 6), (0, 0), (31, 1)]:
        ref.set_vector_length(vl, vstart)
        fast.set_vector_length(vl, vstart)
        assert_same_windows()
    for vl, vstart in [(22, 3), (9, 9)]:
        ref.set_vector_length(vl, vstart)
        fast.ganged.set_active_window(vstart, vl - vstart)
        assert_same_windows()
