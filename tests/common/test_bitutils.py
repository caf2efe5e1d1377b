"""Bit explode/collapse helpers, including property-based round trips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.bitutils import (
    bits_to_ints,
    ints_to_bits,
    mask_lsbs,
    to_signed,
    to_unsigned,
)


def test_ints_to_bits_little_endian():
    bits = ints_to_bits(np.array([5]), 4)
    assert bits[:, 0].tolist() == [1, 0, 1, 0]  # LSB first


def test_bits_to_ints_inverse():
    values = np.array([0, 1, 2, 254, 255])
    assert bits_to_ints(ints_to_bits(values, 8)).tolist() == values.tolist()


def test_width_wraps_values():
    assert bits_to_ints(ints_to_bits(np.array([256 + 3]), 8)).tolist() == [3]


def test_negative_values_wrap_like_hardware():
    assert bits_to_ints(ints_to_bits(np.array([-1]), 8)).tolist() == [255]


@given(
    st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1),
             min_size=1, max_size=50),
    st.integers(min_value=1, max_value=64),
)
def test_round_trip_property(values, width):
    arr = np.array(values, dtype=np.int64)
    bits = ints_to_bits(arr, width)
    assert bits.shape == (width, len(values)) and bits.flags.c_contiguous
    # Read the int64 result as unsigned so width 64 keeps bit 63.
    out = bits_to_ints(bits).view(np.uint64)
    assert out.tolist() == [v & ((1 << width) - 1) for v in values]
    with pytest.raises(ValueError):
        ints_to_bits(arr, 65)


def test_mask_lsbs():
    assert mask_lsbs(0) == 0
    assert mask_lsbs(4) == 0xF
    assert mask_lsbs(32) == 0xFFFFFFFF
    with pytest.raises(ValueError):
        mask_lsbs(-1)


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_signed_unsigned_round_trip(value):
    arr = np.array([value], dtype=np.int64)
    assert to_signed(to_unsigned(arr, 32), 32).tolist() == [value]


def test_to_signed_sign_extension():
    assert to_signed(np.array([0x80]), 8).tolist() == [-128]
    assert to_signed(np.array([0x7F]), 8).tolist() == [127]


def test_bits_to_ints_rejects_bad_shape():
    with pytest.raises(ValueError):
        bits_to_ints(np.zeros(5, dtype=np.uint8))
