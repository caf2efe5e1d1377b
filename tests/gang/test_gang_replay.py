"""Differential tests: one stacked gang replay vs K sequential runs.

The gang contract is total equivalence: for every member, the job
output, the full architectural register file, cycle and energy totals,
and every ``csb.microops`` series must be bit-identical to executing
the same job alone on its own device — including masked forms,
heterogeneous vector lengths, reductions, and mask popcounts. A member
whose stacked mirror diverges mid-gang is ejected and re-run
sequentially without poisoning its peers.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.engine.system import CAPEConfig, CAPESystem
from repro.gang import (
    GANG_MODES,
    GangReplay,
    ineligible_reason,
    resolve_gang_mode,
    run_ganged,
)
from repro.obs import Observer
from repro.runtime.job import Footprint, Job

NANO = CAPEConfig(name="nano", num_chains=8)  # 256 lanes

#: op -> accepts mask=; masked vmul falls back to re-sync and is
#: covered through the unmasked entry (same split as the plan tests).
OPS = (
    ("vadd", True),
    ("vsub", True),
    ("vmul", False),
    ("vand", True),
    ("vor", True),
    ("vxor", True),
)

_BASE = 0x1000


def _load(system, vreg, data, slot):
    data = np.asarray(data, dtype=np.int64)
    addr = _BASE + slot * 4 * len(data)
    system.memory.write_words(addr, data)
    system.vle(vreg, addr)


def gang_body(program, vl, seed):
    """A job body: load member-specific data, run the shared program.

    The *structure* (op sequence, registers, scalars — here none) is
    shared across members so their traces group into one gang; the
    data and the vector length are member-specific.
    """

    def body(system):
        rng = np.random.default_rng(seed)
        system.vsetvl(vl)
        _load(system, 1, rng.integers(0, 1 << 20, vl), 0)
        _load(system, 2, rng.integers(0, 1 << 20, vl), 1)
        _load(system, 6, rng.integers(0, 2, vl), 2)
        for i, (op, use_mask) in enumerate(program):
            maskable = next(m for o, m in OPS if o == op)
            kwargs = {"mask": 6} if (use_mask and maskable) else {}
            getattr(system, op)(3 + (i % 3), 1, 2, **kwargs)
        system.vmseq(7, 1, 2)
        return (
            int(system.vredsum(3, signed=False)),
            int(system.vmask_popcount(7)),
        )

    return body


def build_entries(program, members):
    entries = []
    for k, (vl, seed) in enumerate(members):
        system = CAPESystem(NANO, backend="bitplane", observer=Observer())
        job = Job(
            f"m{k}", gang_body(program, vl, seed), Footprint(lanes=vl)
        )
        entries.append((system, job))
    return entries


def snapshot(entries):
    snaps = []
    for system, job in entries:
        snaps.append({
            "output": job.result.output,
            "error": job.result.error,
            "cycles": job.result.service_cycles,
            "energy": job.result.energy_j,
            "registers": [system.read_vreg(r).tolist() for r in range(8)],
            "microops": {
                key: value
                for key, value in system.observer.metrics.snapshot().items()
                if key[0] == "csb.microops"
            },
        })
    return snaps


def run_sequential(program, members):
    entries = build_entries(program, members)
    for system, job in entries:
        system.reset()
        job.result = job.execute(system)
    return snapshot(entries)


def run_gang(program, members, mode=True):
    entries = build_entries(program, members)
    outcomes = run_ganged(entries, mode=mode)
    return snapshot(entries), outcomes


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([op for op, _ in OPS]), st.booleans()),
        min_size=1,
        max_size=4,
    ),
    st.lists(
        st.tuples(st.integers(1, 256), st.integers(0, 2**16)),
        min_size=2,
        max_size=5,
    ),
)
def test_gang_replay_bit_identical_to_sequential(program, members):
    seq = run_sequential(program, members)
    gang, outcomes = run_gang(program, members)
    assert gang == seq
    assert all(o.ganged and not o.ejected for o in outcomes)
    assert {o.gang_size for o in outcomes} == {len(members)}


def test_heterogeneous_vl_members_share_one_gang():
    program = [("vadd", True), ("vmul", False)]
    members = [(256, 1), (19, 2), (100, 3), (1, 4)]
    seq = run_sequential(program, members)
    gang, outcomes = run_gang(program, members)
    assert gang == seq
    assert all(o.gang_size == 4 for o in outcomes)


def test_three_member_gang_replays_shifts_between_masked_ops():
    """The shifts' element rewrite runs inside stacked replay as a move
    of packed planes under the gang-wide window, each member charged for
    its own lanes: three members of different lengths, masked ops on
    both sides of it."""

    def body_for(vl, seed):
        def body(system):
            rng = np.random.default_rng(seed)
            system.vsetvl(vl)
            _load(system, 1, rng.integers(0, 1 << 20, vl), 0)
            _load(system, 2, rng.integers(0, 1 << 20, vl), 1)
            _load(system, 6, rng.integers(0, 2, vl), 2)
            system.vadd(3, 1, 2, mask=6)
            system.vsll_vi(4, 3, 5)
            system.vxor(5, 4, 1, mask=6)
            system.vsrl_vi(3, 5, 2)
            system.vmseq(7, 3, 2)
            return (
                int(system.vredsum(5, signed=False)),
                int(system.vmask_popcount(7)),
            )

        return body

    def entries():
        return [
            (CAPESystem(NANO, backend="bitplane", observer=Observer()),
             Job(f"m{k}", body_for(vl, seed), Footprint(lanes=vl)))
            for k, (vl, seed) in enumerate([(256, 21), (77, 22), (3, 23)])
        ]

    seq = entries()
    for system, job in seq:
        system.reset()
        job.result = job.execute(system)
    gang = entries()
    outcomes = run_ganged(gang)
    assert snapshot(gang) == snapshot(seq)
    assert [(o.ganged, o.ejected, o.gang_size) for o in outcomes] == [
        (True, False, 3)
    ] * 3


def test_structurally_different_jobs_split_into_groups():
    # Two program shapes in one batch: each gangs with its own kind.
    entries = build_entries([("vadd", False)], [(64, 1), (64, 2)])
    entries += build_entries([("vxor", True)], [(64, 3), (64, 4)])
    outcomes = run_ganged(entries)
    assert [o.gang_size for o in outcomes] == [2, 2, 2, 2]
    assert all(o.ganged for o in outcomes)


class TestModes:
    def test_modes_are_validated(self):
        assert resolve_gang_mode("auto") == "auto"
        with pytest.raises(ConfigError, match="gang must be"):
            resolve_gang_mode("yes")
        assert set(GANG_MODES) == {True, False, "auto"}

    def test_false_runs_everything_sequentially(self):
        program = [("vadd", False)]
        members = [(32, 1), (32, 2)]
        snaps, outcomes = run_gang(program, members, mode=False)
        assert snaps == run_sequential(program, members)
        assert all(
            not o.ganged and o.reason == "disabled" for o in outcomes
        )

    def test_auto_demotes_a_singleton(self):
        snaps, outcomes = run_gang([("vadd", False)], [(32, 1)], mode="auto")
        assert snaps == run_sequential([("vadd", False)], [(32, 1)])
        assert outcomes[0].reason == "singleton"
        assert not outcomes[0].ganged

    def test_true_gangs_a_singleton(self):
        snaps, outcomes = run_gang([("vadd", False)], [(32, 1)], mode=True)
        assert snaps == run_sequential([("vadd", False)], [(32, 1)])
        assert outcomes[0].ganged and outcomes[0].gang_size == 1


class TestEligibility:
    def test_reference_backend_job_is_ineligible(self):
        system = CAPESystem(NANO, backend="reference")
        job = Job("r", gang_body([("vadd", False)], 16, 1), Footprint(lanes=16))
        assert ineligible_reason(system, job) == "backend"

    def test_functional_only_device_is_ineligible(self):
        system = CAPESystem(NANO)
        job = Job("f", gang_body([("vadd", False)], 16, 1), Footprint(lanes=16))
        assert ineligible_reason(system, job) == "backend"

    def test_job_backend_override_wins(self):
        system = CAPESystem(NANO)  # functional-only device...
        job = Job(
            "b", gang_body([("vadd", False)], 16, 1),
            Footprint(lanes=16), backend="bitplane",
        )  # ...but the job brings its own mirror.
        assert ineligible_reason(system, job) is None

    def test_csb_faults_are_ineligible(self):
        from repro.faults import FaultInjector, FaultPlan, TagFlip

        injector = FaultInjector(
            FaultPlan([TagFlip(element=0, bit=0, at_search=1)])
        )
        system = CAPESystem(
            NANO, backend="bitplane", fault_injector=injector
        )
        job = Job("x", gang_body([("vadd", False)], 16, 1), Footprint(lanes=16))
        assert ineligible_reason(system, job) == "faults"

    def test_mixed_batch_gangs_only_the_eligible(self):
        entries = build_entries([("vadd", False)], [(64, 1), (64, 2)])
        ref_system = CAPESystem(NANO, backend="reference")
        ref_job = Job(
            "ref", gang_body([("vadd", False)], 64, 3), Footprint(lanes=64)
        )
        entries.append((ref_system, ref_job))
        obs = Observer()
        outcomes = run_ganged(entries, observer=obs)
        assert [o.ganged for o in outcomes] == [True, True, False]
        assert outcomes[2].reason == "backend"
        assert ref_job.result.error is None
        assert obs.metrics.total("gang.hit") == 2
        assert obs.metrics.total("gang.miss", reason="backend") == 1


class TestEjection:
    def _corrupting_hook(self, victim):
        fired = {"done": False}

        def hook(replay, index, kind):
            # Corrupt the victim's destination block right before the
            # sync that validates it: the batched check must catch it.
            if kind == "sync" and replay._pending and not fired["done"]:
                vd = replay._pending[0].vd
                replay.backend.bits[0, vd, replay.member_slice(victim)] ^= 1
                fired["done"] = True

        return hook, fired

    def test_mid_gang_divergence_ejects_only_the_victim(self):
        program = [("vadd", False), ("vmul", False), ("vxor", True)]
        members = [(64, s) for s in range(4)]
        seq = run_sequential(program, members)
        hook, fired = self._corrupting_hook(victim=2)
        obs = Observer()
        GangReplay.chaos_hook = hook
        try:
            entries = build_entries(program, members)
            outcomes = run_ganged(entries, observer=obs)
        finally:
            GangReplay.chaos_hook = None
        assert fired["done"]
        # Every member — ejected or not — ends bit-identical to solo.
        assert snapshot(entries) == seq
        assert [o.ejected for o in outcomes] == [False, False, True, False]
        assert [o.ganged for o in outcomes] == [True, True, False, True]
        assert outcomes[2].reason is not None
        assert obs.metrics.total("gang.ejected") == 1
        assert obs.metrics.total("gang.hit") == 3

    def test_tag_corruption_ejects_at_the_popcount(self):
        program = [("vand", False)]
        members = [(32, s) for s in range(3)]
        seq = run_sequential(program, members)
        fired = {"done": False}

        def hook(replay, index, kind):
            # Flip the mask register's bit-plane of member 0 right
            # before the popcount searches it: the count check ejects.
            if kind == "popcount" and not fired["done"]:
                vm = replay.members[0].trace[index][1]
                replay.backend.bits[0, vm, replay.member_slice(0)] ^= 1
                fired["done"] = True

        GangReplay.chaos_hook = hook
        try:
            entries = build_entries(program, members)
            outcomes = run_ganged(entries)
        finally:
            GangReplay.chaos_hook = None
        assert fired["done"]
        assert snapshot(entries) == seq
        assert outcomes[0].ejected and not outcomes[1].ejected
