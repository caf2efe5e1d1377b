"""Key-value storage mode (Section VII)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CapacityError
from repro.csb.csb import CSB
from repro.memmode.kvstore import ROW_PAIRS, KeyValueStore


BACKENDS = ("reference", "bitplane")


@pytest.fixture(params=BACKENDS)
def store(request):
    return KeyValueStore(
        CSB(num_chains=2, num_subarrays=8, num_cols=4, backend=request.param)
    )


def test_capacity_matches_paper_formula():
    """A 32-subarray chain stores 16 x 32 = 512 pairs."""
    csb = CSB(num_chains=1, num_subarrays=8, num_cols=32)
    assert KeyValueStore(csb).capacity == 16 * 32


def test_insert_and_lookup(store):
    store.insert(42, 200)
    assert store.lookup(42) == 200


def test_values_must_fit_the_element_width(store):
    """An 8-subarray test chain stores 8-bit keys/values; the published
    32-subarray geometry stores 32-bit pairs."""
    from repro.common.errors import ConfigError

    with pytest.raises(ConfigError):
        store.insert(42, 1000)


def test_missing_key_returns_none(store):
    assert store.lookup(99) is None


def test_update_existing_key(store):
    store.insert(7, 1)
    store.insert(7, 2)
    assert store.lookup(7) == 2
    assert len(store) == 1


def test_delete(store):
    store.insert(5, 50)
    assert store.delete(5)
    assert store.lookup(5) is None
    assert not store.delete(5)


def test_slot_reuse_after_delete(store):
    for key in range(store.capacity):
        store.insert(key, key)
    with pytest.raises(CapacityError):
        store.insert(200, 0)
    store.delete(0)
    store.insert(200, 123)
    assert store.lookup(200) == 123


def test_fills_to_capacity(store):
    for key in range(store.capacity):
        store.insert(key + 1, key % 256)
    assert len(store) == store.capacity
    for key in range(store.capacity):
        assert store.lookup(key + 1) == key % 256


@settings(max_examples=10, deadline=None)
@given(st.dictionaries(st.integers(0, 200), st.integers(0, 255), min_size=1, max_size=30))
def test_behaves_like_a_dict(mapping):
    for backend in BACKENDS:
        store = KeyValueStore(
            CSB(num_chains=2, num_subarrays=8, num_cols=4, backend=backend)
        )
        for key, value in mapping.items():
            store.insert(key, value)
        for key, value in mapping.items():
            assert store.lookup(key) == value


def test_lookup_cost_counts_searches(store):
    store.insert(1, 1)
    before = store.cycles
    store.lookup(1)
    assert store.cycles > before
