"""SEW reconfiguration (narrow elements) and memory fences."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.engine.system import CAPEConfig, CAPESystem


def test_set_sew_changes_wraparound(tiny_cape):
    tiny_cape.vsetvl(4, sew=8)
    tiny_cape.vregs[1, :4] = [250, 10, 255, 0]
    tiny_cape.vadd_vx(2, 1, 10)
    assert tiny_cape.read_vreg(2).tolist() == [4, 20, 9, 10]  # mod 256


def test_narrow_sew_speeds_up_bit_serial_arithmetic(tiny_cape):
    tiny_cape.vsetvl(tiny_cape.config.max_vl, sew=32)
    before = tiny_cape.stats.cycles
    tiny_cape.vadd(2, 1, 1)
    cost32 = tiny_cape.stats.cycles - before

    tiny_cape.vsetvl(tiny_cape.config.max_vl, sew=8)
    before = tiny_cape.stats.cycles
    tiny_cape.vadd(2, 1, 1)
    cost8 = tiny_cape.stats.cycles - before
    # 8n+2: 258 -> 66 cycles (plus identical dispatch overhead).
    assert cost8 < cost32 / 3


def test_narrow_sew_reduces_memory_traffic(tiny_cape):
    tiny_cape.vsetvl(1024, sew=32)
    tiny_cape.vle(1, 0)
    at32 = tiny_cape.vmu.stats.bytes_loaded
    tiny_cape.vsetvl(1024, sew=8)
    tiny_cape.vle(1, 0)
    at8 = tiny_cape.vmu.stats.bytes_loaded - at32
    assert at32 == 4096
    assert at8 == 1024


def test_logic_ops_unaffected_by_sew(tiny_cape):
    """Bit-parallel instructions cost the same at any width."""
    tiny_cape.vsetvl(100, sew=32)
    before = tiny_cape.stats.cycles
    tiny_cape.vand(3, 1, 2)
    cost32 = tiny_cape.stats.cycles - before
    tiny_cape.vsetvl(100, sew=8)
    before = tiny_cape.stats.cycles
    tiny_cape.vand(3, 1, 2)
    cost8 = tiny_cape.stats.cycles - before
    assert cost8 == cost32


@pytest.mark.parametrize("sew", [8, 16])
def test_narrow_sew_reads_only_the_low_bits_on_the_mirror(sew):
    """Rows loaded at e32 keep bits above a narrower SEW. The microcode
    walks only the low SEW bit-slices, so every intrinsic must read the
    low SEW bits too — the bit-plane mirror cross-validates each one."""
    wrap, sign = 1 << sew, 1 << (sew - 1)
    a = [0x1FF, 0x0FF, 0x3_0080, 0x1_7FFF, 0x5_0001, 0xABCD_1234, 7, 0]
    b = [0x0FF, 0x1FF, 0x0_0080, 0x2_8000, 0x3_0001, 0x1234_ABCD, 9, 0]
    cape = CAPESystem(CAPEConfig(name="narrow", num_chains=2),
                      backend="bitplane")
    n = len(a)
    cape.memory.write_words(0x1000, np.array(a, dtype=np.int64))
    cape.memory.write_words(0x2000, np.array(b, dtype=np.int64))
    cape.vsetvl(n, sew=32)
    cape.vle(1, 0x1000)
    cape.vle(2, 0x2000)
    cape.set_sew(sew)
    lo_a, lo_b = [x % wrap for x in a], [y % wrap for y in b]

    def signed(x):
        return (x ^ sign) - sign

    def run(method, *args):
        getattr(cape, method)(3, *args)
        return cape.read_vreg(3).tolist()

    assert run("vmseq", 1, 2) == [int(x == y) for x, y in zip(lo_a, lo_b)]
    assert run("vmsne", 1, 2) == [int(x != y) for x, y in zip(lo_a, lo_b)]
    assert run("vmseq_vx", 1, 0xFF) == [int(x == 0xFF) for x in lo_a]
    assert run("vmslt", 1, 2) == [
        int(signed(x) < signed(y)) for x, y in zip(lo_a, lo_b)
    ]
    assert run("vmsltu", 1, 2) == [int(x < y) for x, y in zip(lo_a, lo_b)]
    assert run("vmin", 1, 2) == [
        min(signed(x), signed(y)) % wrap for x, y in zip(lo_a, lo_b)
    ]
    assert run("vmax", 1, 2) == [
        max(signed(x), signed(y)) % wrap for x, y in zip(lo_a, lo_b)
    ]
    assert run("vminu", 1, 2) == [min(x, y) for x, y in zip(lo_a, lo_b)]
    assert run("vmaxu", 1, 2) == [max(x, y) for x, y in zip(lo_a, lo_b)]
    assert run("vsrl_vi", 1, 3) == [x >> 3 for x in lo_a]
    assert run("vsra_vi", 1, 3) == [(signed(x) >> 3) % wrap for x in lo_a]
    assert cape.vredsum(1) == sum(signed(x) for x in lo_a)
    assert cape.vredsum(1, signed=False) == sum(lo_a)


#: A row loaded at e32 (every element >= 256), a second source and a mask.
RESYNC_A = [0x1FF, 0x100, 0x3_0080, 0x1_7FFF, 0x5_0001, 0xABCD_1234, 0x107, 0x200]
RESYNC_B = [0x0FF, 0x1FF, 0x0_0080, 0x2_8000, 0x3_0001, 0x1234_ABCD, 0x9, 0x0]
RESYNC_MASK = [1, 0, 1, 1, 0, 0, 1, 0]
RESYNC_CONFIG = CAPEConfig(name="resync", num_chains=2, cols_per_chain=4)


def _narrow_copy_steps(op):
    """``vle`` at e32, ``op`` at e8 into v3, an e32 ``vadd`` reading v3,
    then ``vredsum``: one callable per step, each returning its scalar
    (or ``None``) and the register it wrote."""

    def load(system):
        for vreg, base, values in (
            (1, 0x1000, RESYNC_A), (2, 0x2000, RESYNC_B), (0, 0x3000, RESYNC_MASK),
        ):
            system.memory.write_words(base, np.array(values, dtype=np.int64))
            system.vle(vreg, base)
        return None, 1

    def narrow(system):
        system.set_sew(8)
        if op == "vmv.v.v":
            system.vmv(3, 1)
        else:
            system.vmerge(3, 1, 2, 0)
        system.set_sew(32)
        return None, 3

    def wide(system):
        system.vadd(4, 3, 2)
        return None, 4

    def reduce(system):
        return system.vredsum(4, signed=False), 4

    return [load, narrow, wide, reduce]


def _narrow_copy_expected(op):
    """``vmv``/``vmerge`` copy whole elements, bits above SEW included."""
    if op == "vmv.v.v":
        copied = RESYNC_A
    else:
        copied = [a if m else b for a, b, m in zip(RESYNC_A, RESYNC_B, RESYNC_MASK)]
    return sum((c + b) % (1 << 32) for c, b in zip(copied, RESYNC_B))


@pytest.mark.parametrize("route", ["per-instruction", "superplan"])
@pytest.mark.parametrize("op", ["vmv.v.v", "vmerge.vv"])
def test_narrow_copy_leaves_the_mirror_equal_to_the_register_file(op, route):
    """A copy at e8 of a row written at e32 keeps the bits above SEW in
    the functional row; every route must leave them in the mirror too,
    or the next e32 instruction reading the row diverges."""
    cape = CAPESystem(RESYNC_CONFIG, backend="bitplane",
                      superplan=route == "superplan")
    cape.vsetvl(len(RESYNC_A), sew=32)
    mirror_rows = []
    total = None
    for step in _narrow_copy_steps(op):
        # Each step in its own scope, so the superplan route has flushed
        # (replayed, checked and re-synced) by the time the rows are read.
        with cape.superplan_scope():
            total, vd = step(cape)
        mirror_rows.append((vd, cape._bitengine.csb.peek_vector(vd),
                            cape.vregs[vd].copy()))
    assert total == _narrow_copy_expected(op)
    assert cape.read_vreg(3)[0] == RESYNC_A[0]
    for vd, mirror, functional in mirror_rows:
        assert mirror.tolist() == functional.tolist(), f"v{vd}"


@pytest.mark.parametrize("op", ["vmv.v.v", "vmerge.vv"])
def test_narrow_copy_gangs_without_ejection(op):
    from repro.obs import Observer
    from repro.runtime import DevicePool, ExecConfig, Footprint, Job

    def body(system):
        system.vsetvl(len(RESYNC_A), sew=32)
        for step in _narrow_copy_steps(op):
            total, _ = step(system)
        return total

    obs = Observer()
    pool = DevicePool((RESYNC_CONFIG,) * 2, backend="bitplane", observer=obs,
                      exec=ExecConfig(gang=True))
    jobs = [pool.submit(Job(f"copy{i}", body, Footprint(lanes=8)))
            for i in range(2)]
    pool.run()
    assert [job.result.output for job in jobs] == [_narrow_copy_expected(op)] * 2
    assert obs.metrics.total("gang.hit") == 2
    assert obs.metrics.total("gang.ejected") == 0


def test_unsupported_sew_rejected(tiny_cape):
    with pytest.raises(ConfigError):
        tiny_cape.set_sew(12)
    with pytest.raises(ConfigError):
        tiny_cape.set_sew(64)


def test_sew_via_assembly():
    from repro.isa.interpreter import Machine

    cape = CAPESystem(CAPEConfig(name="t", num_chains=64))
    cape.memory.write_words(0x1000, np.array([250, 10, 255, 0]))
    machine = Machine(
        """
            li a0, 4
            li a1, 0x1000
            vsetvli t0, a0, e8
            vle32.v v1, (a1)
            vadd.vx v2, v1, a0
            ecall
        """,
        cape,
    )
    machine.run()
    assert cape.sew == 8
    assert cape.read_vreg(2).tolist() == [(250 + 4) % 256, 14, 3, 4]


def test_set_sew_to_the_current_width_keeps_the_superplan_open():
    """Selecting the SEW already in force changes nothing, so it does
    not flush the open superplan: four ``vadd``s fuse into one flush
    whether or not each is preceded by ``set_sew(32)`` at SEW 32."""
    from repro.obs import Observer

    def flushes(reselect):
        obs = Observer()
        system = CAPESystem(
            CAPEConfig(name="nano", num_chains=8), backend="bitplane",
            observer=obs, superplan=True,
        )
        system.vsetvl(64, sew=32)
        system.vmv_vx(1, 3)
        system.vmv_vx(2, 4)
        with system.superplan_scope():
            for _ in range(4):
                if reselect:
                    system.set_sew(32)
                system.vadd(3, 1, 2)
        assert (system.read_vreg(3)[:64] == 7).all()
        return obs.metrics.total("plan.superplan.flush")

    assert flushes(reselect=False) == 1
    assert flushes(reselect=True) == 1


def test_fence_drains_vector_shadow(tiny_cape):
    tiny_cape.vsetvl(tiny_cape.config.max_vl)
    tiny_cape.vmul(2, 1, 1)  # long-running vector op -> big shadow
    before = tiny_cape.stats.cycles
    tiny_cape.fence()
    assert tiny_cape.stats.cycles > before  # the drain is visible time
    # After the fence, scalar work no longer hides.
    exposed_before = tiny_cape.stats.scalar_exposed_cycles
    tiny_cape.scalar_ops(int_ops=1000)
    assert tiny_cape.stats.scalar_exposed_cycles > exposed_before


def test_fence_in_assembly():
    from repro.isa.interpreter import Machine

    machine = Machine(
        """
            li a0, 8
            vsetvli t0, a0, e32
            vmul.vv v3, v1, v2
            fence
            ecall
        """
    )
    result = machine.run()
    assert result.halted == "ecall"
