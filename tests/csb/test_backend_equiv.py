"""Differential property tests: reference vs. bitplane execution backends.

Random instruction programs run on two emulators that differ only in
their CSB execution backend; every observable — destination values,
full register-file state, tag bits, reduction scalars, and the charged
microoperation counters — must be bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.assoc.emulator import AssociativeEmulator, golden
from repro.csb import CSB, Chain
from repro.obs import Observer

N_COLS = 8

#: (mnemonic, needs_b, needs_scalar, maskable)
OPS = [
    ("vadd.vv", True, False, True),
    ("vsub.vv", True, False, True),
    ("vmul.vv", True, False, False),
    ("vand.vv", True, False, True),
    ("vor.vv", True, False, True),
    ("vxor.vv", True, False, True),
    ("vadd.vx", False, True, True),
    ("vrsub.vx", False, True, False),
    ("vmv.v.x", False, True, True),
    ("vmv.v.v", False, False, True),
    ("vmerge.vv", True, False, True),
    ("vmseq.vx", False, True, False),
    ("vmseq.vv", True, False, False),
    ("vmslt.vv", True, False, False),
    ("vmsltu.vv", True, False, False),
    ("vmsne.vv", True, False, False),
    ("vmin.vv", True, False, False),
    ("vmax.vv", True, False, False),
    ("vminu.vv", True, False, False),
    ("vmaxu.vv", True, False, False),
    ("vsll.vi", False, True, False),
    ("vsrl.vi", False, True, False),
    ("vsra.vi", False, True, False),
    ("vredsum.vs", False, False, False),
]

MASK_ONLY = {"vmseq.vx", "vmseq.vv", "vmslt.vv", "vmsltu.vv", "vmsne.vv"}


@st.composite
def instruction(draw, width):
    mnemonic, needs_b, needs_scalar, maskable = draw(st.sampled_from(OPS))
    hi = (1 << width) - 1
    a = draw(
        st.lists(st.integers(0, hi), min_size=N_COLS, max_size=N_COLS)
    )
    b = (
        draw(st.lists(st.integers(0, hi), min_size=N_COLS, max_size=N_COLS))
        if needs_b
        else None
    )
    if mnemonic in ("vsll.vi", "vsrl.vi", "vsra.vi"):
        scalar = draw(st.integers(0, width - 1))
    elif needs_scalar:
        scalar = draw(st.integers(-hi - 1, hi))
    else:
        scalar = None
    use_mask = mnemonic == "vmerge.vv" or (maskable and draw(st.booleans()))
    mask = (
        draw(st.lists(st.integers(0, 1), min_size=N_COLS, max_size=N_COLS))
        if use_mask
        else None
    )
    return mnemonic, a, b, scalar, mask


@st.composite
def program(draw):
    width = draw(st.sampled_from([8, 16, 32]))
    ops = draw(st.lists(instruction(width), min_size=1, max_size=6))
    return width, ops


def snapshot(chain: Chain):
    """All observable bit-level state of a chain."""
    regs = np.stack([chain.peek_register(v) for v in range(8)])
    tags = np.stack([chain.backend.tags_of(s) for s in range(chain.num_subarrays)])
    return regs, tags


@settings(max_examples=60, deadline=None)
@given(program())
def test_backends_bit_identical(prog):
    width, ops = prog
    ref = AssociativeEmulator(num_subarrays=32, num_cols=N_COLS, backend="reference")
    fast = AssociativeEmulator(num_subarrays=32, num_cols=N_COLS, backend="bitplane")

    for mnemonic, a, b, scalar, mask in ops:
        a = np.array(a, dtype=np.int64)
        b = np.array(b, dtype=np.int64) if b is not None else None
        mask_arr = np.array(mask, dtype=np.int64) if mask is not None else None

        r_ref = ref.run(mnemonic, a, b, scalar=scalar, mask=mask_arr, width=width)
        r_fast = fast.run(mnemonic, a, b, scalar=scalar, mask=mask_arr, width=width)

        # Identical results...
        if mnemonic == "vredsum.vs":
            assert r_ref.result == r_fast.result
        else:
            assert np.array_equal(
                np.asarray(r_ref.result), np.asarray(r_fast.result)
            ), mnemonic
        # ...identical charged microoperations...
        assert r_ref.stats.counts == r_fast.stats.counts, mnemonic
        # ...and identical bit-level state (registers and tag latches).
        regs_ref, tags_ref = snapshot(ref.chain)
        regs_fast, tags_fast = snapshot(fast.chain)
        assert np.array_equal(regs_ref, regs_fast), mnemonic
        assert np.array_equal(tags_ref, tags_fast), mnemonic


@settings(max_examples=40, deadline=None)
@given(program())
def test_backends_match_golden(prog):
    """Both backends agree with the plain-arithmetic golden model."""
    width, ops = prog
    for backend in ("reference", "bitplane"):
        emu = AssociativeEmulator(num_subarrays=32, num_cols=N_COLS, backend=backend)
        for mnemonic, a, b, scalar, mask in ops:
            a = np.array(a, dtype=np.int64)
            b = np.array(b, dtype=np.int64) if b is not None else None
            mask_arr = np.array(mask, dtype=np.int64) if mask is not None else None
            old = emu.chain.peek_register(emu.VD)
            run = emu.run(mnemonic, a, b, scalar=scalar, mask=mask_arr, width=width)
            want = golden(
                mnemonic, a, b, scalar=scalar, mask=mask_arr, width=width, old=old
            )
            if mnemonic == "vredsum.vs":
                assert run.result == want
            elif mnemonic in MASK_ONLY:
                assert np.array_equal(
                    np.asarray(run.result) & 1, np.asarray(want) & 1
                )
            else:
                assert np.array_equal(np.asarray(run.result), np.asarray(want))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 4),  # chains
    st.integers(0, 31),  # window seed
    st.sampled_from([8, 16, 32]),
    st.integers(0, 2**32 - 1),
)
def test_csb_window_and_redsum_parity(num_chains, window_seed, width, seed):
    """CSB-level: vector IO, active windows, and redsum agree."""
    rng = np.random.default_rng(seed)
    max_vl = num_chains * N_COLS
    vl = 1 + window_seed % max_vl
    vstart = window_seed % vl
    values = rng.integers(0, 1 << width, size=vl, dtype=np.int64)

    results = {}
    for backend in ("reference", "bitplane"):
        csb = CSB(
            num_chains=num_chains,
            num_subarrays=32,
            num_cols=N_COLS,
            backend=backend,
        )
        csb.write_vector(3, values)
        csb.set_vector_length(vl, vstart)
        results[backend] = (
            csb.read_vector(3, vl).copy(),
            csb.redsum(3, width),
        )
    ref_vec, ref_sum = results["reference"]
    fast_vec, fast_sum = results["bitplane"]
    assert np.array_equal(ref_vec, fast_vec)
    assert ref_sum == fast_sum
    assert ref_sum == int((values[vstart:vl] % (1 << width)).sum())


def test_observer_microop_counters_identical_across_backends():
    """A fixed multi-chain program publishes identical ``csb.microops``
    observer totals under both backends.

    The VCU broadcasts each microoperation to every chain in lockstep,
    so the counters tally *broadcasts*: on either backend the CSB's one
    ganged chain drives every chain's columns and records each
    microoperation once.
    """
    from repro.engine.system import CAPEConfig, CAPESystem

    totals = {}
    for backend in ("reference", "bitplane"):
        observer = Observer()
        system = CAPESystem(
            CAPEConfig("obs-equiv", num_chains=4),
            backend=backend,
            observer=observer,
        )
        system.vsetvl(system.config.max_vl, sew=8)
        system.vmv_vx(1, 17)
        system.vmv_vx(2, 5)
        system.vadd(3, 1, 2)
        system.vmul(4, 1, 2)
        system.vredsum(4, signed=False)
        system.vmseq_vx(5, 1, 17)
        totals[backend] = {
            (labels["op"], labels["flavor"]): counter.value
            for labels, counter in observer.metrics.series("csb.microops")
        }
        # Labels carry the backend name; one series per (op, flavour).
        assert all(
            labels["backend"] == backend
            for labels, _ in observer.metrics.series("csb.microops")
        )
    assert totals["reference"] == totals["bitplane"]
    assert sum(totals["bitplane"].values()) > 0
