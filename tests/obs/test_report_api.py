"""obs.report + the unified repro.api stats surface (PR 3 satellites).

Covers the ProfileReport folds, the RunResult dataclass and its
MachineResult delegation, the one-naming-scheme contract
(``as_dict``/``summary`` on every stats surface).
"""

import pytest

from repro.api import (
    CAPE32K,
    Device,
    Observer,
    ProfileReport,
    RunResult,
)

PROGRAM = """
    li a0, 64
    vsetvli t0, a0, e32
    vmv.v.x v1, a0
    vmv.v.x v2, t0
    vadd.vv v3, v1, v2
    ecall
"""


def test_profile_report_folds_kernels():
    obs = Observer()
    device = Device(CAPE32K, backend="bitplane", observer=obs)
    profile = ProfileReport(obs)
    device.system.vsetvl(64, sew=8)
    with profile.kernel("fill"):
        device.system.vmv_vx(1, 3)
        device.system.vmv_vx(2, 4)
    with profile.kernel("vadd"):
        device.system.vadd(3, 1, 2)
    assert profile.kernels == ["fill", "vadd"]
    microops = profile.microop_totals("vadd")
    assert sum(microops.values()) > 0
    assert all("/" in bucket for bucket in microops)
    cycles = profile.cycles("vadd")
    assert set(cycles) == {"compute", "memory", "scalar"}
    assert profile.total_cycles("vadd") == sum(cycles.values()) > 0
    assert profile.energy_j("vadd") > 0
    exported = profile.as_dict()
    assert exported["vadd"]["microops"] == microops
    assert "vadd" in profile.summary()
    assert "vadd" in profile.table(title="t") and profile.table().startswith(
        "per-kernel profile"
    )


def test_profile_report_accumulates_repeated_scopes():
    obs = Observer()
    device = Device(CAPE32K, backend="bitplane", observer=obs)
    profile = ProfileReport(obs)
    device.system.vsetvl(64, sew=8)
    device.system.vmv_vx(1, 3)
    device.system.vmv_vx(2, 4)
    with profile.kernel("vadd"):
        device.system.vadd(3, 1, 2)
    first = sum(profile.microop_totals("vadd").values())
    with profile.kernel("vadd"):
        device.system.vadd(4, 1, 2)
    assert sum(profile.microop_totals("vadd").values()) == 2 * first


def test_profile_report_rejects_null_observer():
    from repro.obs import NULL_OBSERVER

    with pytest.raises(ValueError):
        ProfileReport(NULL_OBSERVER)


def test_run_result_fields_and_delegation():
    result = Device(CAPE32K).run(PROGRAM)
    assert isinstance(result, RunResult)
    assert result.cycles > 0
    assert result.trace is None  # not traced
    # Delegated MachineResult fields keep old callers working.
    assert result.halted == "ecall"
    assert result.seconds == result.stats.seconds
    assert result.xregs[10] == 64
    assert result.values[10] == 64
    with pytest.raises(AttributeError):
        result.not_a_field
    exported = result.as_dict()
    assert exported["halted"] == "ecall"
    assert exported["stats"]["cycles"] == result.cycles
    assert result.summary() == result.stats.summary()


def test_every_stats_surface_shares_the_contract():
    """CAPERunStats / TelemetryReport / ProfileReport: as_dict + summary."""
    from repro.api import DevicePool, Footprint, Job

    result = Device(CAPE32K).run(PROGRAM)
    stats_dict = result.stats.as_dict()
    assert stats_dict["seconds"] == result.stats.seconds
    assert "cycles" in result.stats.summary()

    pool = DevicePool([CAPE32K])
    pool.submit(Job("j", lambda system: system.vmv_vx(1, 2), Footprint(lanes=64)))
    report = pool.run()
    report_dict = report.as_dict()
    assert report_dict["completed"] == 1
    assert report.summary()

    obs = Observer()
    profile = ProfileReport(obs)
    with profile.kernel("noop"):
        pass
    assert profile.as_dict() == {
        "noop": {
            "microops": {},
            "cycles": {"compute": 0.0, "memory": 0.0, "scalar": 0.0},
            "total_cycles": 0.0,
            "energy_j": 0.0,
            "instructions": {},
        }
    }
