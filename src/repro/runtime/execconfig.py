"""The one execution-shape input of every submission surface.

:class:`ExecConfig` is the only place the execution shape is declared:
:func:`repro.api.submit`, :class:`~repro.runtime.pool.DevicePool`,
:class:`~repro.serve.pool.ServePool` and
:class:`~repro.serve.gateway.Gateway` each take one as ``exec=`` and
default to ``ExecConfig()``, so every surface shares one set of
defaults.

Each surface consumes the members that apply to it (a ``DevicePool``
ignores ``workers`` and ``wire``) — the unused members are carried, not
rejected, so one ``ExecConfig`` can describe a workload as it moves
between tiers. Where compiled microcode plans are kept is not part of
the execution shape: in-process surfaces share the process-wide plan
cache and every serving worker owns one (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.gang.runner import resolve_gang_mode

__all__ = ["ExecConfig"]


@dataclass(frozen=True)
class ExecConfig:
    """Execution shape for a submission surface.

    Args:
        workers: worker processes for the process-sharded serving tier
            (:class:`~repro.serve.pool.ServePool`, the gateway).
        gang: gang-execution mode — ``True`` gangs every eligible job,
            ``"auto"`` gangs when at least two jobs in a batch are
            eligible, ``False`` disables stacked replay (docs/GANG.md).
            A batch is one wave of the pool's event loop, or one
            worker's ``("runs", ...)`` frame in the serving tier;
            framing and transport handling do not depend on the mode.
        superplan: fuse each job body's eligible mirror microcode into
            one cached whole-kernel trace (``True``) or replay per
            instruction (``False``) (docs/PERFORMANCE.md). Same
            eligibility rules as gang (plain bit-plane backend, no
            faults, no microop trace); results, cycles, and microop
            totals are identical either way.
        wire: serving-tier data-plane mode — ``"auto"`` ships numpy
            payloads/results as shared-memory descriptors when the
            platform supports it, ``"shm"`` requires it, ``"pickle"``
            keeps everything inline (docs/SERVING.md). Results,
            placement, and telemetry are bit-identical in every mode.
        batch_window_s: the gateway's micro-batching window. Each
            dispatch round ships one wire frame per worker either way;
            the window is how long an incomplete round may wait for
            round-mates. ``0`` (the default) dispatches at once.
    """

    workers: int = 2
    gang: object = "auto"
    superplan: bool = True
    wire: str = "auto"
    batch_window_s: float = 0.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        resolve_gang_mode(self.gang)
        if not isinstance(self.superplan, bool):
            raise ConfigError(
                f"superplan must be True or False, got {self.superplan!r}"
            )
        # Inline literal check: importing repro.serve.shm here would
        # cycle (serve -> runtime.pool -> execconfig).
        if self.wire not in ("auto", "shm", "pickle"):
            raise ConfigError(
                f"wire must be one of ('auto', 'shm', 'pickle'), "
                f"got {self.wire!r}"
            )
        if self.batch_window_s < 0:
            raise ConfigError("batch_window_s must be >= 0")
