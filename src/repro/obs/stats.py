"""Canonical run-level stats dataclass (the consolidated stats surface).

:class:`CAPERunStats` used to live in ``repro.engine.system``; it is now
owned by the observability layer so that all three stats surfaces —
engine run stats, runtime telemetry reports, and :class:`ProfileReport`
— share one home, one naming scheme (snake_case with unit suffixes:
``*_cycles``, ``*_seconds``, ``*_j``), and one export contract
(``.as_dict()`` / ``.summary()``). Import it from here (or from
``repro.obs`` / ``repro.api``); ``repro.engine.system`` no longer
exports it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class CAPERunStats:
    """Cumulative outcome of a CAPE program run."""

    cycles: float = 0.0
    frequency_hz: float = 2.7e9
    vector_instructions: int = 0
    memory_instructions: int = 0
    compute_cycles: float = 0.0
    memory_cycles: float = 0.0
    scalar_exposed_cycles: float = 0.0
    energy_j: float = 0.0
    page_faults: int = 0

    @property
    def seconds(self) -> float:
        return self.cycles / self.frequency_hz

    def as_dict(self) -> dict:
        """JSON-able export (fields plus the derived ``seconds``)."""
        out = asdict(self)
        out["seconds"] = self.seconds
        return out

    def summary(self) -> str:
        """One-paragraph human-readable run summary."""
        total = max(self.cycles, 1e-12)
        return (
            f"{self.cycles:,.0f} cycles ({self.seconds * 1e6:.1f} us at "
            f"{self.frequency_hz / 1e9:.1f} GHz): "
            f"{100 * self.compute_cycles / total:.0f}% CSB compute, "
            f"{100 * self.memory_cycles / total:.0f}% vector memory, "
            f"{100 * self.scalar_exposed_cycles / total:.0f}% exposed scalar; "
            f"{self.vector_instructions} vector + "
            f"{self.memory_instructions} memory instructions, "
            f"{self.page_faults} page faults, "
            f"{self.energy_j * 1e6:.1f} uJ"
        )
