"""Property-based system-level tests: masked ops and active windows."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bitutils import to_signed
from repro.engine.system import CAPEConfig, CAPESystem


def make_cape():
    return CAPESystem(CAPEConfig(name="t", num_chains=8))  # 256 lanes


#: Python-int references of the binary intrinsics, before the 2**SEW wrap.
PY_BINARY = {
    "vadd": lambda x, y, s: x + y,
    "vsub": lambda x, y, s: x - y,
    "vmul": lambda x, y, s: x * y,
    "vand": lambda x, y, s: x & y,
    "vor": lambda x, y, s: x | y,
    "vxor": lambda x, y, s: x ^ y,
    "vadd_vx": lambda x, y, s: x + s,
    "vrsub_vx": lambda x, y, s: s - x,
}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=64),
    st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=64),
    st.lists(st.integers(0, 1), min_size=2, max_size=64),
    st.sampled_from(sorted(PY_BINARY)),
    st.sampled_from([8, 16, 32]),
    st.integers(-(2**31), 2**31 - 1),
)
def test_masked_binary_ops_preserve_inactive(a, b, m, op, sew, scalar):
    n = min(len(a), len(b), len(m))
    cape = make_cape()
    cape.vsetvl(n, sew=sew)
    av = np.array(a[:n], dtype=np.int64)
    bv = np.array(b[:n], dtype=np.int64)
    mv = np.array(m[:n], dtype=np.int64)
    cape.vregs[1, :n] = av
    cape.vregs[2, :n] = bv
    cape.vregs[0, :n] = mv
    cape.vregs[7, :n] = 42
    if op.endswith("_vx"):
        getattr(cape, op)(7, 1, scalar, mask=0)
    else:
        getattr(cape, op)(7, 1, 2, mask=0)
    expected = [
        PY_BINARY[op](x, y, scalar) % (1 << sew) if on else 42
        for x, y, on in zip(a[:n], b[:n], m[:n])
    ]
    assert cape.read_vreg(7).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
        min_size=1, max_size=64,
    ),
    st.sampled_from([8, 16, 32]),
    st.integers(-(2**31), 2**31 - 1),
    st.data(),
)
def test_compares_shifts_and_redsum_match_python_ints(pairs, sew, scalar, data):
    """Rows are written at SEW 32 and read at ``sew``: narrow widths
    read only the low ``sew`` bits of each element, as the microcode
    does."""
    n = len(pairs)
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    cape = make_cape()
    cape.memory.write_words(0x1000, np.array(a, dtype=np.int64))
    cape.memory.write_words(0x2000, np.array(b, dtype=np.int64))
    cape.vsetvl(n, sew=32)
    cape.vle(1, 0x1000)
    cape.vle(2, 0x2000)
    cape.vsetvl(n, sew=sew)
    wrap = 1 << sew
    sign = 1 << (sew - 1)
    lo_pairs = [(x % wrap, y % wrap) for x, y in pairs]
    lo_a = [x for x, _ in lo_pairs]
    lo_b = [y for _, y in lo_pairs]

    def signed(x):
        return (x ^ sign) - sign

    def run(method, *args):
        getattr(cape, method)(3, *args)
        return cape.read_vreg(3).tolist()

    assert run("vmslt", 1, 2) == [
        int(signed(x) < signed(y)) for x, y in lo_pairs
    ]
    assert run("vmsltu", 1, 2) == [int(x < y) for x, y in lo_pairs]
    assert run("vmseq", 1, 2) == [int(x == y) for x, y in lo_pairs]
    assert run("vmseq", 1, 1) == [1] * n
    assert run("vmseq_vx", 1, scalar) == [
        int(x == scalar % wrap) for x in lo_a
    ]
    assert run("vmseq_vx", 1, a[0]) == [int(x == a[0] % wrap) for x in lo_a]
    shamt = data.draw(st.integers(0, sew - 1), label="shamt")
    assert run("vsll_vi", 1, shamt) == [(x << shamt) % wrap for x in a]
    assert run("vsrl_vi", 1, shamt) == [x >> shamt for x in lo_a]
    assert run("vsra_vi", 1, shamt) == [
        (signed(x) >> shamt) % wrap for x in lo_a
    ]
    assert cape.vredsum(2) == sum(signed(y) for y in lo_b)
    assert cape.vredsum(2, signed=False) == sum(lo_b)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 200),
    st.integers(0, 199),
)
def test_active_window_never_touches_tail_or_prefix(vl, vstart):
    vstart = min(vstart, vl)
    cape = make_cape()
    cape.vregs[1, :] = 7
    cape.vsetvl(vl)
    cape.set_vstart(vstart)
    cape.vmv_vx(1, 9)
    values = cape.vregs[1]
    assert (values[:vstart] == 7).all()
    assert (values[vstart:vl] == 9).all()
    assert (values[vl:] == 7).all()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=64))
def test_redsum_signed_matches_python(values):
    cape = make_cape()
    n = len(values)
    cape.vsetvl(n)
    cape.vregs[1, :n] = np.array(values, dtype=np.int64) & 0xFFFFFFFF
    assert cape.vredsum(1) == sum(values)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64),
)
def test_compare_merge_consistency(a, b):
    """vmerge(vmslt(a,b) ? a : b) == elementwise signed minimum."""
    n = min(len(a), len(b))
    cape = make_cape()
    cape.vsetvl(n)
    av = np.array(a[:n], dtype=np.int64)
    bv = np.array(b[:n], dtype=np.int64)
    cape.vregs[1, :n] = av
    cape.vregs[2, :n] = bv
    cape.vmslt(0, 1, 2)
    cape.vmerge(3, 1, 2, vm=0)
    expected = np.where(
        to_signed(av, 32) < to_signed(bv, 32), av, bv
    )
    assert cape.read_vreg(3).tolist() == expected.tolist()
    # And it agrees with the dedicated vmin.
    cape.vmin(4, 1, 2)
    assert cape.read_vreg(4).tolist() == expected.tolist()
