"""One execution-shape knob for every submission surface.

Before this module, execution shape was spread across per-surface
keyword arguments: ``DevicePool(parallelism=..., plan_cache=...)``,
``ServePool(workers=...)``, ``api.serve(config=ServeConfig(...))``.
:class:`ExecConfig` folds them — plus the gang-execution mode — into a
single frozen dataclass accepted everywhere jobs are submitted
(:func:`repro.api.submit`, :class:`~repro.runtime.pool.DevicePool`,
:class:`~repro.serve.pool.ServePool`,
:class:`~repro.serve.gateway.Gateway`).

Each surface consumes the members that apply to it (a thread-parallel
``DevicePool`` ignores ``workers``; a process-sharded ``ServePool``
ignores ``parallelism``) — the unused members are carried, not
rejected, so one ``ExecConfig`` can describe a workload as it moves
between tiers.

Precedence
----------

Legacy keyword arguments remain for compatibility, with one rule:

* ``exec=None`` (default): the legacy keywords apply, with each
  surface's historical defaults (``DevicePool`` keeps ``gang=False``).
* ``exec=ExecConfig(...)``: the config wins outright. Passing a
  *non-default* legacy keyword alongside it raises
  :class:`~repro.common.errors.ConfigError` — silently preferring one
  over the other is how configuration bugs hide.

Note the deliberate default shift: ``ExecConfig().gang == "auto"``
(gang whenever at least two jobs are eligible), while the legacy
surfaces default to ``gang=False``. Opting into the new config is
opting into gang execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.gang.runner import resolve_gang_mode
from repro.plan.superplan import resolve_superplan_mode

__all__ = ["ExecConfig", "resolve_exec"]


@dataclass(frozen=True)
class ExecConfig:
    """Execution shape for a submission surface.

    Args:
        plan_cache: microcode plan-cache knob (``True`` for the
            process-wide cache, ``False``/``None`` to compile per
            dispatch, or an explicit
            :class:`~repro.plan.PlanCache`).
        parallelism: worker threads for in-process pools
            (:class:`~repro.runtime.pool.DevicePool`).
        workers: worker processes for the process-sharded serving tier
            (:class:`~repro.serve.pool.ServePool`, the gateway).
        gang: gang-execution mode — ``True`` gangs every eligible job,
            ``"auto"`` gangs when at least two jobs in a batch are
            eligible, ``False`` disables stacked replay (docs/GANG.md).
            In the serving tier a batch is one worker's ``("runs",
            ...)`` frame; framing and transport handling do not depend
            on the mode.
        superplan: whole-kernel superplan mode — ``True``/``"auto"``
            fuse each job body's eligible mirror microcode into one
            cached trace, ``False`` replays per instruction
            (docs/PERFORMANCE.md). Same eligibility rules as gang
            (plain bit-plane backend, no faults, no microop trace);
            results, cycles, and microop totals are identical either
            way.
        plan_affinity: prefer devices/workers whose plan caches are
            already warm for a job's superplan keys when breaking
            placement ties. Tie-breaking only: with affinity off (the
            default) placement is unchanged bit-for-bit.
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

    plan_cache: object = True
    parallelism: int = 1
    workers: int = 2
    gang: object = "auto"
    superplan: object = "auto"
    plan_affinity: bool = False
    wire: str = "auto"
    batch_window_s: float = 0.0

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ConfigError("parallelism must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        resolve_gang_mode(self.gang)
        resolve_superplan_mode(self.superplan)
        # Inline literal check: importing repro.serve.shm here would
        # cycle (serve -> runtime.pool -> execconfig).
        if self.wire not in ("auto", "shm", "pickle"):
            raise ConfigError(
                f"wire must be one of ('auto', 'shm', 'pickle'), "
                f"got {self.wire!r}"
            )
        if self.batch_window_s < 0:
            raise ConfigError("batch_window_s must be >= 0")


def resolve_exec(exec_config: ExecConfig | None, **legacy):
    """Merge an optional :class:`ExecConfig` with legacy keywords.

    ``legacy`` maps each knob name to a ``(value, default)`` pair as the
    calling surface received it. Returns ``{name: effective_value}``
    for exactly the requested knobs.

    Raises:
        ConfigError: ``exec_config`` was given together with a legacy
            keyword that differs from its surface default.
    """
    if exec_config is None:
        return {name: value for name, (value, _default) in legacy.items()}
    if not isinstance(exec_config, ExecConfig):
        raise ConfigError(
            f"exec must be an ExecConfig, got {type(exec_config).__name__}"
        )
    clash = sorted(
        name for name, (value, default) in legacy.items() if value != default
    )
    if clash:
        raise ConfigError(
            f"pass {', '.join(clash)} inside ExecConfig, not alongside it "
            f"(exec= was given, so the legacy keyword(s) would be ignored)"
        )
    return {name: getattr(exec_config, name) for name in legacy}
