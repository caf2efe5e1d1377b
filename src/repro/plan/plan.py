"""Compiled microcode plans: record once, replay as packed-plane kernels.

A :class:`CompiledPlan` is the immutable result of running a microcode
body (an associative algorithm, or the sequencer-FSM walk of a truth
table) against a :class:`~repro.plan.recorder.RecordingChain`. It holds

* the flat step stream (the exact chain-level microoperation sequence),
  and
* a *lowered* :class:`~repro.plan.packed.Program` for the bit-plane
  backend: steps pre-translated into int kernels over packed bit planes
  (one Python int per ``(subarray, row)`` plane and per tag row), with
  runs of accumulating searches over the same subarray compiled into one
  bitwise expression of their truth table (up to ``MAX_LUT_ROWS`` rows),
  and the stream's microop charges, pre-summed per flavour.

Replay has two flavours with identical architectural effects:

* **generic** — re-issue every recorded step through the live
  :class:`~repro.csb.chain.Chain` API. Bit-exact and charge-exact by
  construction; used for the reference backend, fault-wrapped backends,
  and traced runs (``stats.keep_trace`` needs the interleaved order).
* **lowered** — :func:`replay_lowered` packs the planes the program
  touches, runs the kernels, writes back what they wrote, then applies
  the program's charges over the active lanes in bulk. Same state
  transitions, same microop totals, same observer counters — just far
  fewer Python dispatches, each one a few int operations.

Plans are pure data: they capture no chain state, callable or column
vector, only structure, so one plan serves every device whose chains
share the subarray count (column count is resolved at replay), and
caching them never needs invalidation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.csb.bitplane import BitplaneBackend
from repro.plan import packed
from repro.plan.recorder import RecordingChain, Token


def compile_chain_program(num_subarrays: int, body) -> "CompiledPlan":
    """Record ``body(chain)`` against a fresh recorder and compile it.

    ``body`` is any callable driving the chain-level microcode API; its
    return value (which may contain :class:`Token` placeholders, nested
    in tuples/lists) becomes the plan's result template.
    """
    recorder = RecordingChain(num_subarrays)
    result_spec = body(recorder)
    return CompiledPlan(recorder, result_spec)


def replay_lowered(program: packed.Program, chain) -> list:
    """Run a plan's or superplan's ``program`` on a live chain's plain
    bit-plane backend and charge it; returns the token environment."""
    active = packed.pack_bits(chain.active_columns)
    env = packed.run_program(program, chain.backend, active)
    stats = chain.stats
    for (op, bit_parallel), n in program.charges_over(active.bit_count()).items():
        stats.record(op, bit_parallel, n)
    return env


def _resolve(spec, env):
    """Substitute token placeholders in a (possibly nested) result."""
    if type(spec) is Token:
        return env[spec.index]
    if isinstance(spec, tuple):
        return tuple(_resolve(item, env) for item in spec)
    if isinstance(spec, list):
        return [_resolve(item, env) for item in spec]
    return spec


def _mark_consumed(spec, consumed) -> None:
    if type(spec) is Token:
        consumed.add(spec.index)
    elif isinstance(spec, (tuple, list)):
        for item in spec:
            _mark_consumed(item, consumed)


class CompiledPlan:
    """An immutable, replayable microcode program.

    Built by :func:`compile_chain_program`; replay with :meth:`replay`.
    The plan is independent of column count and chain state, so it is
    safe to share across chains, devices, and threads.
    """

    def __init__(self, recorder: RecordingChain, result_spec) -> None:
        self.num_subarrays = recorder.num_subarrays
        self.steps: Tuple[Tuple[str, tuple, Optional[int]], ...] = tuple(
            recorder.steps
        )
        self.result_spec = result_spec
        consumed = set()
        for _method, args, _out in self.steps:
            for arg in args:
                if type(arg) is Token:
                    consumed.add(arg.index)
        _mark_consumed(result_spec, consumed)
        #: The lowered packed-plane program (see :mod:`repro.plan.packed`).
        self.program = packed.lower(recorder, consumed)

    # -- introspection --------------------------------------------------

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def num_kernels(self) -> int:
        """Lowered kernel count (≤ ``num_steps`` thanks to batching)."""
        return len(self.program.kernels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledPlan(subarrays={self.num_subarrays}, "
            f"steps={self.num_steps}, kernels={self.num_kernels})"
        )

    # -- replay ---------------------------------------------------------

    def replay(self, chain):
        """Re-execute the plan on a live chain; returns the resolved
        result template (e.g. the FSM walk's reduce values).

        The lowered kernels run only on a plain
        :class:`~repro.csb.bitplane.BitplaneBackend` (fault-injection
        wrappers and the reference backend replay step-by-step through
        the chain API) and only when the stats recorder is not keeping a
        microop trace (bulk charging would reorder the trace).
        """
        if type(chain.backend) is BitplaneBackend and not chain.stats.keep_trace:
            return _resolve(self.result_spec, replay_lowered(self.program, chain))
        env: List = [None] * self.program.num_tokens
        for method, args, out in self.steps:
            bound = tuple(
                env[arg.index] if type(arg) is Token else arg for arg in args
            )
            result = getattr(chain, method)(*bound)
            if out is not None:
                env[out] = result
        return _resolve(self.result_spec, env)
