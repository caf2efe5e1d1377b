"""Bit-manipulation helpers shared by the CSB simulator and the ISA layer.

The CSB stores data as numpy arrays of single bits (dtype uint8, values 0/1)
with the least-significant bit at index 0, matching the bit-slice order of a
CAPE chain (subarray *i* holds bit *i*).
"""

from __future__ import annotations

import numpy as np


#: Shift counts that split a row of bytes into its eight bit planes.
_BYTE_SHIFTS = np.arange(8, dtype=np.uint8)[:, None]


def ints_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Explode unsigned integers into a little-endian bit matrix.

    Args:
        values: integer array of shape ``(n,)``; values are taken modulo
            ``2**width`` so signed inputs wrap like hardware registers.
        width: number of bits per element (1 to 64).

    Returns:
        uint8 array of shape ``(width, n)`` where row ``i`` is bit ``i``.
    """
    if not 0 < width <= 64:
        raise ValueError(f"width must be in [1, 64], got {width}")
    vals = np.ascontiguousarray(values, dtype="<i8")
    nbytes = (width + 7) // 8
    # Shift byte rows (byte i of every element), not int64 words: plane
    # 8*i + j is byte row i shifted by j, one uint8 pass for all planes.
    rows = np.ascontiguousarray(
        vals.view(np.uint8).reshape(len(vals), 8)[:, :nbytes].T
    )
    bits = np.empty((nbytes, 8, len(vals)), dtype=np.uint8)
    np.right_shift(rows[:, None, :], _BYTE_SHIFTS, out=bits)
    bits &= 1
    return bits.reshape(8 * nbytes, len(vals))[:width]


def bits_to_ints(bits: np.ndarray) -> np.ndarray:
    """Collapse a little-endian bit matrix back into unsigned integers.

    Args:
        bits: uint8 array of shape ``(width, n)``.

    Returns:
        int64 array of shape ``(n,)``.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"expected a (width, n) bit matrix, got shape {bits.shape}")
    width = bits.shape[0]
    weights = (np.int64(1) << np.arange(width, dtype=np.int64))[:, None]
    return (bits.astype(np.int64) * weights).sum(axis=0)


def mask_lsbs(width: int) -> int:
    """Return an integer with the ``width`` least-significant bits set."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def to_signed(values: np.ndarray, width: int) -> np.ndarray:
    """Reinterpret unsigned ``width``-bit values as two's-complement."""
    vals = np.asarray(values, dtype=np.int64)
    sign = np.int64(1) << (width - 1)
    return (vals ^ sign) - sign


def to_unsigned(values: np.ndarray, width: int) -> np.ndarray:
    """Reinterpret (possibly negative) values as unsigned ``width``-bit."""
    vals = np.asarray(values, dtype=np.int64)
    if width >= 64:
        return vals
    return vals & ((np.int64(1) << width) - 1)
