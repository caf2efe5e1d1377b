"""CSB-level behaviour: interleaving, VLA masking, global reduction.

Every CSB is one fused backend behind its ganged chain, with chain ``c``
at fused columns ``c::C``. The chain-level facts of that layout are
pinned against explicit numpy oracles of the interleave, on a
reference, a bit-plane and a fault-wrapped CSB (one whose faults never
fire).
"""

import numpy as np
import pytest

from repro.common.errors import CapacityError, ConfigError
from repro.csb.csb import CSB
from repro.faults import (
    ChainKill, FaultInjector, FaultPlan, FaultyBackend, TagFlip,
)

C, S, COLS = 4, 8, 8

#: The CSBs every oracle runs on.
KINDS = ("reference", "bitplane", "faulty")

#: ``(vl, vstart)`` windows: full, prefix, interior, one element (three
#: chains fully masked), empty, trimmed at both ends, and two more.
WINDOWS = ((32, 0), (10, 0), (13, 5), (7, 6), (0, 0), (31, 1), (22, 3), (9, 9))


def make_csb(kind):
    """A ``C``-chain CSB; ``"faulty"`` is a bit-plane CSB wrapped by a
    plan whose faults never fire."""
    injector = None
    if kind == "faulty":
        injector = FaultInjector(FaultPlan([
            TagFlip(element=5, bit=0, at_search=10**9),
            ChainKill(chain=1, at_op=10**9),
        ]))
    backend = "reference" if kind == "reference" else "bitplane"
    csb = CSB(num_chains=C, num_subarrays=S, num_cols=COLS, backend=backend,
              fault_injector=injector)
    assert isinstance(csb.ganged.backend, FaultyBackend) == (kind == "faulty")
    return csb


def interleave_window(vl, vstart):
    """Oracle: chain ``c``'s column ``j`` (element ``c + C*j``) is active
    iff that element lies in ``[vstart, vl)``; shape ``(C, COLS)``."""
    elements = np.arange(C)[:, None] + C * np.arange(COLS)[None, :]
    return ((elements >= vstart) & (elements < vl)).astype(np.uint8)


def chain_windows(csb):
    """Each chain's window: columns ``c::C`` of the ganged window."""
    window = csb.ganged.active_columns
    return np.stack([window[c::csb.num_chains] for c in range(csb.num_chains)])


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
    # Bulk-set through the ganged chain: only elements 0..9 may change.
    small_csb.ganged.update_bit_parallel(1, 1, use_tags=False)
    values = small_csb.peek_vector(1)
    assert (values[:10] > 0).all()
    assert (values[10:] == 0).all()


def test_fully_masked_chains_power_gate():
    """A chain power-gates exactly when none of its columns lies in the
    window; the ganged chain gates when every chain does."""
    for kind in KINDS:
        csb = make_csb(kind)
        csb.set_vector_length(2)  # elements 0,1 -> chains 0,1 only
        gated = (~chain_windows(csb).any(axis=1)).tolist()
        assert gated == [False, False, True, True], kind
        for vl, vstart in WINDOWS:
            csb.set_vector_length(vl, vstart)
            gated = ~chain_windows(csb).any(axis=1)
            want = ~interleave_window(vl, vstart).any(axis=1)
            assert gated.tolist() == want.tolist(), (kind, vl, vstart)
            assert csb.ganged.is_power_gated == bool(want.all())


def test_vstart_masks_prefix(small_csb):
    small_csb.poke_vector(1, np.zeros(small_csb.max_vl))
    small_csb.set_vector_length(8, vstart=4)
    small_csb.ganged.update_bit_parallel(1, 1, use_tags=False)
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
    """No CSB keeps per-chain objects: chain ``c``'s window is the
    ganged window's columns ``c::C``, and it equals the interleave
    oracle after every window change — including one programmed on the
    ganged chain directly."""
    for kind in KINDS:
        csb = make_csb(kind)
        with pytest.raises(AttributeError):
            csb.chains
        for vl, vstart in WINDOWS[:6]:
            csb.set_vector_length(vl, vstart)
            want = interleave_window(vl, vstart)
            assert chain_windows(csb).tolist() == want.tolist(), kind
        for vl, vstart in WINDOWS[6:]:
            csb.ganged.set_active_window(vstart, vl - vstart)
            want = interleave_window(vl, vstart)
            assert chain_windows(csb).tolist() == want.tolist(), kind


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("width", (1, 5, S))
def test_echo_partials_sum_each_chains_columns(kind, width, rng):
    """``echo_partials(vreg, w)[c]`` is the sum of the low ``w`` bits
    of chain ``c``'s columns ``c::C`` inside the window; ``redsum`` is
    their total."""
    values = rng.integers(0, 1 << S, size=C * COLS)
    for vl, vstart in WINDOWS:
        csb = make_csb(kind)
        csb.poke_vector(2, values)
        csb.set_vector_length(vl, vstart)
        low = np.stack([values[c::C] for c in range(C)]) % (1 << width)
        want = (low * interleave_window(vl, vstart)).sum(axis=1)
        assert csb.echo_partials(2, width).tolist() == want.tolist()
        assert csb.redsum(2, width) == int(want.sum())


@pytest.mark.parametrize("backend", ("reference", "bitplane"))
@pytest.mark.parametrize("chain", range(C))
def test_fired_chain_kill_zeroes_exactly_its_columns(backend, chain, rng):
    """A ``ChainKill(chain=c)`` that has fired darkens columns ``c::C``
    of every register and no other column."""
    injector = FaultInjector(FaultPlan([ChainKill(chain=chain, at_op=0)]))
    csb = CSB(num_chains=C, num_subarrays=S, num_cols=COLS, backend=backend,
              fault_injector=injector)
    dark = np.zeros(C * COLS, dtype=bool)
    dark[chain::C] = True
    for vreg in (3, 7):
        values = rng.integers(1, 1 << S, size=C * COLS)
        csb.poke_vector(vreg, values)
        got = csb.peek_vector(vreg)
        assert (got[dark] == 0).all()
        assert got[~dark].tolist() == values[~dark].tolist()
    assert injector.injected["chain_kill"] == 1
