"""CAPE system: functional intrinsics semantics and timing accounting."""

import numpy as np
import pytest

from repro.common.errors import CapacityError, ConfigError
from repro.engine.system import CAPE131K, CAPE32K, CAPEConfig, CAPESystem
from repro.isa.interpreter import Machine


def test_presets_match_paper_capacities():
    assert CAPE32K.max_vl == 32_768
    assert CAPE131K.max_vl == 131_072
    assert CAPE32K.num_chains == 1024
    assert CAPE131K.num_chains == 4096


def test_preset_areas_are_area_equivalent():
    assert CAPE32K.area_mm2() == pytest.approx(8.87, rel=0.15)
    assert CAPE131K.area_mm2() == pytest.approx(2 * 8.87, rel=0.25)


def test_vsetvl_grants_min_of_request_and_max(tiny_cape):
    assert tiny_cape.vsetvl(100) == 100
    assert tiny_cape.vsetvl(10**9) == tiny_cape.config.max_vl


def test_vle_vse_round_trip(tiny_cape, rng):
    values = rng.integers(0, 2**31, size=500)
    tiny_cape.memory.write_words(0x1000, values)
    tiny_cape.vsetvl(500)
    tiny_cape.vle(1, 0x1000)
    tiny_cape.vse(1, 0x9000)
    assert tiny_cape.memory.read_words(0x9000, 500).tolist() == values.tolist()


@pytest.mark.parametrize(
    "method,op",
    [
        ("vadd", lambda a, b: (a + b) & 0xFFFFFFFF),
        ("vsub", lambda a, b: (a - b) & 0xFFFFFFFF),
        ("vmul", lambda a, b: (a * b) & 0xFFFFFFFF),
        ("vand", lambda a, b: a & b),
        ("vor", lambda a, b: a | b),
        ("vxor", lambda a, b: a ^ b),
    ],
)
def test_binary_intrinsics_functional(tiny_cape, rng, method, op):
    n = 256
    a = rng.integers(0, 2**31, size=n)
    b = rng.integers(0, 2**31, size=n)
    tiny_cape.vsetvl(n)
    tiny_cape.vregs[1, :n] = a
    tiny_cape.vregs[2, :n] = b
    getattr(tiny_cape, method)(3, 1, 2)
    assert tiny_cape.read_vreg(3).tolist() == op(a, b).tolist()


def test_masked_add_preserves_inactive(tiny_cape, rng):
    n = 64
    tiny_cape.vsetvl(n)
    a = rng.integers(0, 100, n); b = rng.integers(0, 100, n)
    m = rng.integers(0, 2, n)
    tiny_cape.vregs[1, :n] = a
    tiny_cape.vregs[2, :n] = b
    tiny_cape.vregs[7, :n] = 99
    tiny_cape.vregs[0, :n] = m
    tiny_cape.vadd(7, 1, 2, mask=0)
    expected = np.where(m == 1, a + b, 99)
    assert tiny_cape.read_vreg(7).tolist() == expected.tolist()


def test_compare_intrinsics(tiny_cape):
    tiny_cape.vsetvl(4)
    tiny_cape.vregs[1, :4] = [5, 10, 5, 0]
    tiny_cape.vregs[2, :4] = [5, 5, 10, 0]
    tiny_cape.vmseq(3, 1, 2)
    assert tiny_cape.read_vreg(3).tolist() == [1, 0, 0, 1]
    tiny_cape.vmseq_vx(3, 1, 5)
    assert tiny_cape.read_vreg(3).tolist() == [1, 0, 1, 0]
    tiny_cape.vmsltu(3, 1, 2)
    assert tiny_cape.read_vreg(3).tolist() == [0, 0, 1, 0]


def test_vmslt_is_signed(tiny_cape):
    tiny_cape.vsetvl(2)
    tiny_cape.vregs[1, :2] = [0xFFFFFFFF, 1]  # -1, 1
    tiny_cape.vregs[2, :2] = [0, 0]
    tiny_cape.vmslt(3, 1, 2)
    assert tiny_cape.read_vreg(3).tolist() == [1, 0]


def test_vmerge_selects(tiny_cape):
    tiny_cape.vsetvl(4)
    tiny_cape.vregs[1, :4] = [1, 2, 3, 4]
    tiny_cape.vregs[2, :4] = [10, 20, 30, 40]
    tiny_cape.vregs[0, :4] = [1, 0, 0, 1]
    tiny_cape.vmerge(3, 1, 2, vm=0)
    assert tiny_cape.read_vreg(3).tolist() == [1, 20, 30, 4]


def test_vredsum_signed(tiny_cape):
    tiny_cape.vsetvl(3)
    tiny_cape.vregs[1, :3] = [0xFFFFFFFF, 5, 2]  # -1 + 5 + 2
    assert tiny_cape.vredsum(1) == 6
    assert tiny_cape.vredsum(1, signed=False) == 0xFFFFFFFF + 7


def test_vmask_popcount(tiny_cape):
    tiny_cape.vsetvl(8)
    tiny_cape.vregs[1, :8] = [1, 0, 1, 1, 0, 0, 1, 0]
    assert tiny_cape.vmask_popcount(1) == 4


def test_vstart_limits_active_window(tiny_cape):
    tiny_cape.vsetvl(8)
    tiny_cape.vregs[1, :8] = 7
    tiny_cape.set_vstart(4)
    tiny_cape.vmv_vx(1, 9)
    tiny_cape.set_vstart(0)
    assert tiny_cape.read_vreg(1).tolist() == [7] * 4 + [9] * 4


def test_replica_load_intrinsic(tiny_cape, rng):
    chunk = rng.integers(0, 100, size=8)
    tiny_cape.memory.write_words(0x2000, chunk)
    tiny_cape.vsetvl(30)
    tiny_cape.vlrw(1, 0x2000, 8)
    assert tiny_cape.read_vreg(1).tolist() == np.tile(chunk, 4)[:30].tolist()


def test_cycles_accumulate_by_category(tiny_cape):
    tiny_cape.vsetvl(100)
    tiny_cape.vle(1, 0)
    c_after_mem = tiny_cape.stats.memory_cycles
    tiny_cape.vadd(2, 1, 1)
    assert tiny_cape.stats.memory_cycles == c_after_mem
    assert tiny_cape.stats.compute_cycles > 0
    assert tiny_cape.stats.cycles >= tiny_cape.stats.compute_cycles


def test_energy_accumulates(tiny_cape):
    tiny_cape.vsetvl(1000)
    tiny_cape.vle(1, 0)
    tiny_cape.vmul(2, 1, 1)
    assert tiny_cape.stats.energy_j > 0


def test_mul_costs_more_than_add(tiny_cape):
    tiny_cape.vsetvl(100)
    tiny_cape.vregs[1, :100] = 3
    before = tiny_cape.stats.cycles
    tiny_cape.vadd(2, 1, 1)
    add_cost = tiny_cape.stats.cycles - before
    before = tiny_cape.stats.cycles
    tiny_cape.vmul(3, 1, 1)
    mul_cost = tiny_cape.stats.cycles - before
    assert mul_cost > 10 * add_cost


def test_redsum_about_8x_faster_than_add(tiny_cape):
    """Section V-G: a vector redsum is ~8x faster than an element-wise
    vector addition."""
    tiny_cape.vsetvl(tiny_cape.config.max_vl)
    before = tiny_cape.stats.cycles
    tiny_cape.vadd(2, 1, 1)
    add_cost = tiny_cape.stats.cycles - before
    before = tiny_cape.stats.cycles
    tiny_cape.vredsum(1)
    red_cost = tiny_cape.stats.cycles - before
    assert add_cost / red_cost == pytest.approx(8, rel=0.4)


def test_invalid_vl_rejected(tiny_cape):
    with pytest.raises(CapacityError):
        tiny_cape.vsetvl(-1)
    with pytest.raises(ConfigError):
        tiny_cape.set_vstart(10**9)


def test_reset_leaves_cp_caches_cold():
    """A job's scalar memory cost is a function of the job alone: after
    reset() the CP's caches are as cold as on a fresh system."""
    source = """
        li a0, 4096
        li a1, 7
        sw a1, 0(a0)
        lw a2, 0(a0)
        sw a1, 512(a0)
        lw a3, 512(a0)
        sw a1, 1024(a0)
        lw a4, 1024(a0)
        li t1, 64
        vsetvli t0, t1, e32
        vmv.v.x v1, a1
        vadd.vv v2, v1, v1
        ecall
    """
    cape = CAPESystem(CAPEConfig(name="nano", num_chains=8))  # 256 lanes
    Machine(source, cape=cape).run()
    fresh = (cape.stats.cycles, cape.stats.scalar_exposed_cycles)
    cape.reset()
    Machine(source, cape=cape).run()
    assert (cape.stats.cycles, cape.stats.scalar_exposed_cycles) == fresh
