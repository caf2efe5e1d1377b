"""The mirror's one destination check, on synthetic bit-planes.

:func:`repro.engine.bitexec.sync_destination` serves every route (one
instruction, a flushed superplan, a gang of K devices). Inside each
``(vl, vstart)`` window only the low ``width`` planes are defined (SEW,
or plane 0 for a mask result); outside it every plane must hold. Each
case flips one bitcell of the destination and checks which block the
routine flags and what the row holds afterwards.
"""

import numpy as np
import pytest

from repro.common.bitutils import ints_to_bits
from repro.csb.bitplane import BitplaneBackend
from repro.csb.csb import CSB
from repro.engine.bitexec import sync_destination
from repro.faults import FaultInjector, FaultPlan, StuckBit
from repro.plan.recorder import NUM_ROWS

S, BLOCK, VD = 32, 16, 5

#: Per-block ``(vl, vstart)``: idle columns on both sides, after the
#: window only, and before it only.
WINDOWS = {1: ((13, 3),), 3: ((13, 3), (11, 0), (16, 5))}

#: ``width`` of each result kind: SEW 8/16/32, and a mask result.
WIDTHS = {"e8": 8, "e16": 16, "e32": 32, "mask": 1}

TARGETS = ("gang-backend", "csb-bitplane", "csb-reference")


def make_target(kind, k):
    cols = k * BLOCK
    if kind == "gang-backend":
        return BitplaneBackend(S, NUM_ROWS, cols)
    backend = kind.split("-")[1]
    return CSB(num_chains=4, num_subarrays=S, num_cols=cols // 4,
               backend=backend)


def setup(kind, k, seed=0):
    target = make_target(kind, k)
    want = np.random.default_rng(seed).integers(0, 1 << S, k * BLOCK)
    target.set_register_planes(VD, ints_to_bits(want, S))
    return target, want


def flip(target, plane, col):
    planes = target.register_planes(VD)
    planes[plane, col] ^= 1
    target.set_register_planes(VD, planes)
    return planes


def inside_cols(windows, k):
    vl, vstart = windows[k]
    return range(k * BLOCK + vstart, k * BLOCK + vl)


def outside_cols(windows, k):
    vl, vstart = windows[k]
    return [k * BLOCK + c for c in range(BLOCK) if not vstart <= c < vl]


def check(target, want, windows, width, flipped_block, planes_before):
    """Run the routine; only ``flipped_block`` (or none) may diverge.

    Every other block must come back as the functional row, and the
    diverged block as the microcode left it.
    """
    diverged = sync_destination(target, VD, want, windows, width)
    expected = np.zeros(len(windows), dtype=bool)
    if flipped_block is not None:
        expected[flipped_block] = True
    assert diverged.tolist() == expected.tolist()
    after = target.register_planes(VD)
    functional = ints_to_bits(want, S)
    for k in range(len(windows)):
        cols = slice(k * BLOCK, (k + 1) * BLOCK)
        source = planes_before if k == flipped_block else functional
        assert np.array_equal(after[:, cols], source[:, cols]), k


@pytest.mark.parametrize("target_kind", TARGETS)
@pytest.mark.parametrize("width_name", list(WIDTHS))
@pytest.mark.parametrize("k", sorted(WINDOWS))
def test_clean_destination_passes(target_kind, width_name, k):
    target, want = setup(target_kind, k)
    check(target, want, WINDOWS[k], WIDTHS[width_name], None, None)


@pytest.mark.parametrize("target_kind", TARGETS)
@pytest.mark.parametrize("width_name", list(WIDTHS))
@pytest.mark.parametrize("k", sorted(WINDOWS))
def test_defined_plane_inside_a_window_is_flagged_in_its_block(
    target_kind, width_name, k
):
    width, windows = WIDTHS[width_name], WINDOWS[k]
    for block in range(k):
        cols = inside_cols(windows, block)
        for plane in sorted({0, width // 2, width - 1}):
            for col in (cols[0], cols[-1]):
                target, want = setup(target_kind, k, seed=col)
                before = flip(target, plane, col)
                check(target, want, windows, width, block, before)


@pytest.mark.parametrize("target_kind", TARGETS)
@pytest.mark.parametrize("width_name", list(WIDTHS))
@pytest.mark.parametrize("k", sorted(WINDOWS))
def test_any_plane_outside_a_window_is_flagged_in_its_block(
    target_kind, width_name, k
):
    width, windows = WIDTHS[width_name], WINDOWS[k]
    for block in range(k):
        cols = outside_cols(windows, block)
        for plane in sorted({0, width - 1, min(width, S - 1), S - 1}):
            for col in (cols[0], cols[-1]):
                target, want = setup(target_kind, k, seed=col)
                before = flip(target, plane, col)
                check(target, want, windows, width, block, before)


@pytest.mark.parametrize("target_kind", TARGETS)
@pytest.mark.parametrize("width_name", ["e8", "e16", "mask"])
@pytest.mark.parametrize("k", sorted(WINDOWS))
def test_undefined_plane_inside_a_window_is_restored_not_flagged(
    target_kind, width_name, k
):
    width, windows = WIDTHS[width_name], WINDOWS[k]
    for block in range(k):
        cols = inside_cols(windows, block)
        for plane in sorted({width, (width + S) // 2, S - 1}):
            for col in (cols[0], cols[-1]):
                target, want = setup(target_kind, k, seed=col)
                flip(target, plane, col)
                check(target, want, windows, width, None, None)


def test_sync_reasserts_a_stuck_bit():
    """The re-sync writes through the backend, so a fault-wrapped one
    forces its stuck bitcell back over the functional value."""
    want = np.zeros(BLOCK, dtype=np.int64)
    stuck = StuckBit(row=VD, element=7, bit=20, value=1)
    injector = FaultInjector(FaultPlan(faults=(stuck,)))
    csb = CSB(num_chains=4, num_subarrays=S, num_cols=BLOCK // 4,
              backend="bitplane", fault_injector=injector)
    # Bit 20 is undefined inside an e8 window: the check passes and the
    # sync writes the functional zero, which the stuck cell overrides.
    diverged = sync_destination(csb, VD, want, ((BLOCK, 0),), 8)
    assert not diverged.any()
    assert csb.peek_vector(VD)[7] == 1 << 20
