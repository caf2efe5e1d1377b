"""Differential tests: packed-plane lowered replay vs generic replay.

The lowered path runs int kernels in place on the bit-plane backend's
storage, one int per ``(subarray, row)`` plane and per tag row (bit
``c`` = column ``c``). Its contract is total equivalence with the
generic per-primitive replay, on the reference backend and step by step
on the bit-plane backend, from any state: identical bits, tags,
returned tokens and ``stats.counts`` — at column counts that are not
multiples of 8 or of a machine word, under partial ``[vstart, vl)``
windows, across SEWs and masked forms, and through the shifts' element
rewrite, which the lowered path runs as a move of packed planes between
the other kernels (``vsra`` replicating the sign plane). Both bit-plane
routes must keep every plane and tag int inside ``[0, 2**C)``.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.csb.chain import Chain
from repro.engine.bitexec import run_microcode
from repro.plan import compile_chain_program
from repro.plan.packed import MAX_LUT_ROWS, compile_lut, lut_expression
from repro.plan.recorder import NUM_ROWS

from ..csb.storage import assert_planes_in_range

S = 32
COLUMNS = (1, 5, 37, 64, 256, 1000)

#: mnemonic -> (sources, maskable). The OPS of the plan-equivalence
#: suite, the compares behind its closing vmseq, and the three shifts.
OPS = {
    "vadd.vv": (2, True),
    "vsub.vv": (2, True),
    "vmul.vv": (2, False),
    "vand.vv": (2, True),
    "vor.vv": (2, True),
    "vxor.vv": (2, True),
    "vmin.vv": (2, False),
    "vmax.vv": (2, False),
    "vmseq.vv": (2, False),
    "vmsne.vv": (2, False),
    "vmslt.vv": (2, False),
    "vsll.vi": (1, False),
    "vsrl.vi": (1, False),
    "vsra.vi": (1, False),
}
MASK_REG = 6


@functools.lru_cache(maxsize=None)
def program_plan(ops, width):
    """One plan recording ``ops`` back to back, chained through their
    destinations, then a redsum walk whose counts are the plan's
    returned tokens."""

    def body(rec):
        src = 1
        for i, (mnemonic, masked, shamt) in enumerate(ops):
            vd = 3 + i
            vs2 = 2 if OPS[mnemonic][0] == 2 else None
            run_microcode(
                rec, mnemonic, vd, src, vs2,
                shamt if mnemonic.endswith(".vi") else None,
                MASK_REG if masked else None, width, masked,
            )
            src = vd
        return [rec.redsum_step(bit, src) for bit in range(width)]

    return compile_chain_program(S, body)


def make_chain(backend, bits, tags, vstart, vl):
    chain = Chain(S, bits.shape[-1], backend=backend)
    for row in range(NUM_ROWS):
        chain.backend.set_register_planes(row, bits[:, row])
    for sub, view in enumerate(chain.subarrays):
        view.tags = tags[sub]
    chain.set_active_window(vstart, vl - vstart)
    return chain


def state(chain):
    return (
        np.stack([view.bits for view in chain.subarrays]),
        np.stack([view.tags for view in chain.subarrays]),
    )


def assert_lowered_matches_generic(plan, bits, tags, vstart, vl):
    """Lowered replay on a bit-plane chain, and generic replay on a
    reference chain and on a bit-plane chain keeping its microop trace
    (which forces the step-by-step route), all end identical; both
    bit-plane chains keep their storage invariant."""
    lowered = make_chain("bitplane", bits, tags, vstart, vl)
    generic = make_chain("reference", bits, tags, vstart, vl)
    stepped = make_chain("bitplane", bits, tags, vstart, vl)
    stepped.stats.keep_trace = True
    got = plan.replay(lowered)
    want = plan.replay(generic)
    assert got == want
    assert plan.replay(stepped) == want
    want_bits, want_tags = state(generic)
    for chain in (lowered, stepped):
        assert_planes_in_range(chain.backend)
        got_bits, got_tags = state(chain)
        assert np.array_equal(got_bits, want_bits)
        assert np.array_equal(got_tags, want_tags)
        assert chain.stats.counts == generic.stats.counts


op_strategy = st.sampled_from(sorted(OPS)).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.booleans() if OPS[m][1] else st.just(False),
        st.integers(0, 7),
    )
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(COLUMNS),
    st.sampled_from([8, 16, 32]),
    st.lists(op_strategy, min_size=1, max_size=3),
    st.data(),
)
def test_lowered_replay_matches_generic_from_any_state(columns, sew, ops, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2, (S, NUM_ROWS, columns), dtype=np.uint8)
    tags = rng.integers(0, 2, (S, columns), dtype=np.uint8)
    vl = data.draw(st.integers(0, columns), label="vl")
    vstart = data.draw(st.integers(0, vl), label="vstart")
    ops = tuple((m, masked, shamt % sew) for m, masked, shamt in ops)
    plan = program_plan(ops, sew)
    assert_lowered_matches_generic(plan, bits, tags, vstart, vl)


@pytest.mark.parametrize("columns", COLUMNS)
def test_shift_barrier_between_arithmetic(columns):
    """The element rewrite must read the planes the kernels before it
    wrote, and the kernels after it must read the planes it moved — at
    every column count."""
    rng = np.random.default_rng(columns)
    bits = rng.integers(0, 2, (S, NUM_ROWS, columns), dtype=np.uint8)
    tags = rng.integers(0, 2, (S, columns), dtype=np.uint8)
    ops = (("vadd.vv", True, 0), ("vsll.vi", False, 3), ("vxor.vv", True, 0))
    vstart, vl = columns // 4, columns - columns // 5
    assert_lowered_matches_generic(program_plan(ops, 16), bits, tags, vstart, vl)


# ---------------------------------------------------------------------
# Lookup-table compiler
# ---------------------------------------------------------------------


def check_table(k, table, planes, columns):
    fn = compile_lut(k, table, tuple(range(k)))
    full = (1 << columns) - 1
    value = fn(planes, full)
    assert 0 <= value <= full, lut_expression(k, table)
    for col in range(columns):
        index = sum(((planes[j] >> col) & 1) << j for j in range(k))
        assert (value >> col) & 1 == (table >> index) & 1, (
            k, hex(table), col, lut_expression(k, table)
        )


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_every_small_truth_table_compiles_exactly(k):
    rng = np.random.default_rng(k)
    columns = 37
    for table in range(1 << (1 << k)):
        planes = [
            int.from_bytes(rng.integers(0, 256, 5, dtype=np.uint8).tobytes(),
                           "little") & ((1 << columns) - 1)
            for _ in range(k)
        ]
        check_table(k, table, planes, columns)


def test_seeded_wide_truth_tables_compile_exactly():
    rng = np.random.default_rng(0x1AB)
    columns = 37
    for _ in range(200):
        k = int(rng.integers(4, MAX_LUT_ROWS + 1))
        table = int.from_bytes(
            rng.integers(0, 256, (1 << k) // 8, dtype=np.uint8).tobytes(),
            "little",
        )
        planes = [
            int.from_bytes(rng.integers(0, 256, 5, dtype=np.uint8).tobytes(),
                           "little") & ((1 << columns) - 1)
            for _ in range(k)
        ]
        check_table(k, table, planes, columns)


def test_add_tables_fold_to_xor_and_mux():
    """The vmul add-step tables over (x, acc, carry, mask) fold to the
    expected shapes: the sum is pure XOR under the mask."""
    sum_table = carry_table = 0
    for index in range(16):
        x, a, c, m = ((index >> j) & 1 for j in range(4))
        if m and (x ^ a ^ c):
            sum_table |= 1 << index
        if m and (x + a + c) >= 2:
            carry_table |= 1 << index
    assert lut_expression(4, sum_table) == "({3} & ({2} ^ ({1} ^ {0})))"
    assert "^" not in lut_expression(4, carry_table)
