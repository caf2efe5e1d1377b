"""Engine-level detection and repair under injected faults.

Every scenario runs real microcode on a faulty bit-level CSB and checks
the architectural results still match the functional model — the
recovery ladder (retry, spare-chain remap, functional fallback) absorbs
the injected faults.
"""

import numpy as np
import pytest

from repro.common.errors import DeviceFailedError, SpillCorruptionError
from repro.engine.system import CAPEConfig, CAPESystem
from repro.faults import (
    ChainKill,
    DeviceKill,
    FaultInjector,
    FaultPlan,
    StuckBit,
    TagFlip,
    TransferFault,
)
from repro.obs import Observer
from repro.runtime.context import ContextManager

NANO = CAPEConfig(name="nano", num_chains=8)  # 256 lanes


def faulty_system(faults, backend="bitplane", observer=None, **kwargs):
    injector = FaultInjector(FaultPlan(faults), **kwargs)
    system = CAPESystem(
        NANO, backend=backend, observer=observer, fault_injector=injector
    )
    return system, injector


def test_transient_tag_flip_heals_by_retry():
    obs = Observer()
    system, injector = faulty_system(
        [TagFlip(element=3, bit=0, at_search=2)], observer=obs
    )
    system.vsetvl(16)
    system.vmv_vx(1, 7)
    system.vmv_vx(2, 5)
    system.vadd(3, 1, 2)
    assert (system.read_vreg(3)[:16] == 12).all()
    assert injector.injected["tag_flip"] == 1
    assert obs.metrics.value("faults.injected", kind="tag_flip") == 1
    assert obs.metrics.value("faults.detected", kind="divergence") >= 1
    repaired = (
        obs.metrics.value("faults.repaired", kind="retry")
        + obs.metrics.value("faults.repaired", kind="remap")
        + obs.metrics.value("faults.repaired", kind="fallback")
    )
    assert repaired >= 1


def test_tag_flip_heals_on_reference_backend_too():
    system, injector = faulty_system(
        [TagFlip(element=3, bit=0, at_search=1)], backend="reference"
    )
    system.vsetvl(16)
    system.vmv_vx(1, 7)
    system.vmv_vx(2, 7)
    system.vmseq(3, 1, 2)  # the compare's microcode searches the CSB
    assert (system.read_vreg(3)[:16] == 1).all()
    assert injector.injected["tag_flip"] == 1


def test_one_fault_clock_on_both_backends():
    """Either backend wraps its one fused CSB backend once, so a plan's
    ``at_op`` and ``at_search`` clocks advance once per broadcast kernel
    on both: the same program under the same plan fires, detects and
    repairs identically."""
    faults = [
        StuckBit(row=1, element=5, bit=2, value=1),
        TagFlip(element=10, bit=0, at_search=40),
        ChainKill(chain=3, at_op=200),
    ]
    data = np.random.default_rng(5).integers(0, 1 << 16, size=64)

    def run(backend):
        obs = Observer()
        system, injector = faulty_system(
            faults, backend=backend, observer=obs, spare_chains=1
        )
        system.memory.write_words(0x1000, data)
        system.vsetvl(64)
        system.vle(1, 0x1000)
        system.vadd(2, 1, 1)
        system.vmul(3, 2, 1)
        system.vmseq(4, 3, 2)
        total = int(system.vredsum(3, signed=False))
        return {
            "output": total,
            "registers": [system.read_vreg(r)[:64].tolist() for r in range(5)],
            "cycles": system.stats.cycles,
            "energy": system.stats.energy_j,
            "csb_ops": injector.csb_ops,
            "searches": injector.searches,
            "injected": dict(injector.injected),
            "remapped": sorted(injector.remapped),
            "faults": {
                key: value for key, value in obs.metrics.snapshot().items()
                if key[0].startswith("faults.")
            },
        }

    reference, bitplane = run("reference"), run("bitplane")
    assert reference == bitplane
    assert reference["injected"] == {
        "stuck_bit": 1, "tag_flip": 1, "chain_kill": 1,
    }
    assert reference["output"] == int(((2 * data * data) % (1 << 32)).sum())


def test_stuck_bit_is_retired_onto_a_spare_chain():
    system, injector = faulty_system([StuckBit(row=1, element=5, bit=2, value=1)])
    system.vsetvl(16)
    system.vmv_vx(1, 0)
    system.vadd(2, 1, 1)
    assert (system.read_vreg(2)[:16] == 0).all()
    assert injector.injected["stuck_bit"] == 1
    # Element 5 lives on chain 5; the remap retired it onto a spare.
    assert 5 in injector.remapped
    # Once remapped, subsequent ops stay clean — the spare is good silicon.
    system.vmv_vx(3, 9)
    system.vadd(4, 3, 3)
    assert (system.read_vreg(4)[:16] == 18).all()


def test_chain_kills_beyond_spares_fall_back_functionally():
    system, injector = faulty_system(
        [ChainKill(chain=2), ChainKill(chain=3), ChainKill(chain=5)],
        spare_chains=2,
    )
    system.vsetvl(16)
    system.vmv_vx(1, 9)
    system.vadd(2, 1, 1)
    # Three dead chains, two spares: results are still correct (the
    # unrepairable chain is served by the functional fallback).
    assert (system.read_vreg(2)[:16] == 18).all()
    assert injector.spares_free == 0
    assert len(injector.remapped) == 2


def test_device_kill_raises_from_the_charging_path():
    system, injector = faulty_system([DeviceKill(at_cycle=10.0)], backend=None)
    system.vsetvl(256)
    with pytest.raises(DeviceFailedError):
        for _ in range(100):
            system.vmv_vx(1, 1)
            system.vadd(2, 1, 1)
    assert injector.dead
    # The device stays dead across reset: silicon does not heal.
    system.reset()
    with pytest.raises(DeviceFailedError):
        system.vmv_vx(1, 1)
        system.vadd(2, 1, 1)


def test_load_corruption_lands_in_the_loaded_register():
    system, injector = faulty_system(
        [TransferFault(kind="load", at_transfer=1, element=2, bit=4)],
        backend=None,
    )
    system.memory.write_words(0x1000, np.arange(8))
    system.vsetvl(8)
    system.vle(1, 0x1000)
    expected = np.arange(8)
    expected[2] ^= 1 << 4
    assert (system.read_vreg(1)[:8] == expected).all()
    assert injector.injected["transfer"] == 1


def test_corrupted_spill_slab_is_caught_by_parity_on_restore():
    obs = Observer()
    system, injector = faulty_system(
        [TransferFault(kind="spill", at_transfer=1, element=3, bit=9)],
        backend=None,
        observer=obs,
    )
    system.vsetvl(64)
    system.vmv_vx(1, 41)
    addr = 0x8000
    system.spill_vregs([1], addr, protect=True)
    with pytest.raises(SpillCorruptionError) as excinfo:
        system.fill_vregs([1], addr, protect=True)
    assert excinfo.value.addr == addr
    assert excinfo.value.bad_rows == (0,)
    assert obs.metrics.value("faults.detected", kind="spill_parity") == 1


def test_unprotected_spill_round_trips_without_parity_words():
    system = CAPESystem(NANO)
    system.vsetvl(32)
    system.vmv_vx(1, 7)
    system.spill_vregs([1], 0x4000)
    system.vmv_vx(1, 0)
    system.fill_vregs([1], 0x4000)
    assert (system.read_vreg(1)[:32] == 7).all()


def test_context_manager_auto_protects_under_a_live_plan():
    system, injector = faulty_system([DeviceKill(at_cycle=1e12)], backend=None)
    manager = ContextManager(system)
    assert manager.protect is True
    plain = ContextManager(CAPESystem(NANO))
    assert plain.protect is False


def test_recovered_run_matches_a_fault_free_run():
    def workload(system):
        system.vsetvl(64)
        system.vmv_vx(1, 3)
        system.vmv_vx(2, 4)
        system.vadd(3, 1, 2)
        system.vmul(4, 3, 1)
        system.vmseq(5, 3, 3)
        return (
            int(system.vredsum(4, signed=False)),
            list(system.read_vreg(3)[:64]),
        )

    clean = workload(CAPESystem(NANO, backend="bitplane"))
    faulty, injector = faulty_system([
        TagFlip(element=9, bit=1, at_search=3),
        StuckBit(row=3, element=17, bit=0, value=1),
        ChainKill(chain=6, at_op=5),
    ])
    healed = workload(faulty)
    assert healed == clean
    assert sum(injector.injected.values()) >= 2
