"""Bit-accurate execution engine behind :class:`~repro.engine.system.CAPESystem`.

By default the system simulator executes vector intrinsics *functionally*
(packed numpy rows) and charges timing from the instruction model — the
paper's gem5 methodology. With a backend selected, every supported compute
intrinsic is *also* executed as real microcode on a bit-level CSB and
cross-validated bit-exactly against the functional result, turning whole
application runs into end-to-end validation of the associative microcode.

Every compiled plan replays on the CSB's one
:attr:`~repro.csb.csb.CSB.ganged` chain, which drives every chain's
columns in each microoperation (the hardware's lockstep, literally).
The backend behind it stores the fused block:

* ``backend="bitplane"``: packed bit planes, replayed as lowered int
  kernels — fast enough for full workloads;
* ``backend="reference"``: the per-subarray model, replayed step by step
  as numpy kernels over the fused columns — the always-available
  ground truth.

Both run identical microcode from :mod:`repro.assoc.algorithms`, and
only as a compiled plan: :func:`op_key` names an instruction's microcode
and :func:`op_plan` compiles it through a plan cache — for this engine,
superplans and gang capture alike. A few cases have no microcode
(masked ``vmul``/``vrsub``, aliased destination forms that the
algorithms refuse); those fall back to the functional result, which is
synced into the CSB so the bit-level state never drifts.

Every route checks a destination the same way, in the bit-plane domain:
:func:`sync_destination` compares the mirror's planes with the
functional row's and re-syncs the row, whether one instruction, a
flushed superplan or a gang of K devices wrote it.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.assoc import algorithms as alg
from repro.common.bitutils import ints_to_bits
from repro.csb.csb import CSB
from repro.plan import (
    GLOBAL_PLAN_CACHE,
    CompiledPlan,
    PlanCache,
    compile_chain_program,
)

#: Mnemonics whose microcode honours the MASK metadata rows.
MASKABLE = {
    "vadd.vv",
    "vsub.vv",
    "vand.vv",
    "vor.vv",
    "vxor.vv",
    "vadd.vx",
    "vmv.v.x",
    "vmv.v.v",
}

#: Mnemonics producing a mask (only bit 0 of the destination is defined).
MASK_RESULTS = {"vmseq.vx", "vmseq.vv", "vmslt.vv", "vmsltu.vv", "vmsne.vv"}

#: Every mnemonic :func:`run_microcode` can lower. Superplan recording
#: defers exactly these forms (minus the unsupported/aliased cases the
#: engine would refuse); anything else flushes and runs per instruction.
SUPPORTED_MICROCODE = frozenset(
    {
        "vadd.vv", "vsub.vv", "vand.vv", "vor.vv", "vxor.vv",
        "vadd.vx", "vrsub.vx", "vmul.vv", "vmv.v.x", "vmv.v.v",
        "vmerge.vv", "vmseq.vx", "vmseq.vv", "vmslt.vv", "vmsltu.vv",
        "vmsne.vv", "vmin.vv", "vmax.vv", "vminu.vv", "vmaxu.vv",
        "vsll.vi", "vsrl.vi", "vsra.vi",
    }
)


def microcode_unsupported_reason(
    mnemonic: str,
    vd: Optional[int],
    vs1: Optional[int],
    vs2: Optional[int],
    mask_reg: Optional[int],
) -> Optional[str]:
    """Why this intrinsic form has no microcode path (``None`` = it has).

    The one form check: :meth:`BitEngine.execute` and gang deferral raise
    :class:`UnsupportedMicrocode` with this reason, and superplan
    recording defers only the forms it accepts.
    """
    if mnemonic not in SUPPORTED_MICROCODE and mnemonic != "vredsum.vs":
        return f"unsupported mnemonic {mnemonic}"
    if mask_reg is not None and mnemonic not in MASKABLE and mnemonic != "vmerge.vv":
        return f"masked {mnemonic} has no microcode"
    # The associative algorithms assume distinct operand rows: two
    # sources on one row would collapse the search key, and a
    # destination aliasing a source corrupts the operand mid-walk.
    sources = [r for r in (vs1, vs2) if r is not None]
    if len(set(sources)) != len(sources) or (vd is not None and vd in sources):
        return f"{mnemonic} with aliased operands"
    return None


class UnsupportedMicrocode(Exception):
    """Raised when an intrinsic form has no microcode implementation."""


class OpKey(NamedTuple):
    """The plan-cache key of one intrinsic's microcode (:func:`op_key`).

    Hashes and compares as the plain tuple of its fields. It holds no
    column count, window or data, so one plan serves every device.
    """

    kind: str
    mnemonic: str
    width: int
    num_subarrays: int
    vd: Optional[int]
    vs1: Optional[int]
    vs2: Optional[int]
    scalar: Optional[int]
    mask_reg: Optional[int]
    masked: bool


def op_key(
    mnemonic: str, width: int, num_subarrays: int,
    vd: Optional[int], vs1: Optional[int], vs2: Optional[int],
    scalar: Optional[int], mask_reg: Optional[int],
) -> OpKey:
    """The :class:`OpKey` of one intrinsic at element width ``width``."""
    return OpKey(
        "op", mnemonic, width, num_subarrays, vd, vs1, vs2,
        None if scalar is None else int(scalar), mask_reg,
        mask_reg is not None,
    )


def op_plan(key: OpKey, cache: PlanCache, observer=None) -> CompiledPlan:
    """The compiled plan of ``key``'s microcode, through ``cache``."""
    return cache.get_or_compile(
        key,
        lambda: compile_chain_program(
            key.num_subarrays,
            lambda rec: run_microcode(
                rec, key.mnemonic, key.vd, key.vs1, key.vs2, key.scalar,
                key.mask_reg, key.width, key.masked,
            ),
        ),
        observer=observer,
    )


def sync_destination(
    target, vd: int, want: np.ndarray,
    windows: Sequence[Tuple[int, int]], width: int,
) -> np.ndarray:
    """The mirror's destination check and re-sync, on bit-planes.

    Register ``vd`` of ``target`` (a :class:`~repro.csb.csb.CSB` or a
    bit-plane backend) and the functional row ``want`` hold
    ``len(windows)`` equal blocks. Inside block ``k``'s window
    ``windows[k] = (vl, vstart)`` the low ``width`` planes must match
    (SEW, or 1 for a mask result, whose upper planes are undefined);
    outside it every plane must, which catches microcode leaking past
    vstart/vl. The row is written back through
    ``target.set_register_planes``, so a fault-wrapped backend
    re-asserts its faults: a block that matched becomes its functional
    row, upper planes included; a block that diverged keeps what the
    microcode left, for the caller to raise on, retry or eject. Returns
    True per diverged block.
    """
    got = target.register_planes(vd)
    planes = ints_to_bits(want, got.shape[0])
    block = got.shape[1] // len(windows)
    diverged = np.zeros(len(windows), dtype=bool)
    for k, (vl, vstart) in enumerate(windows):
        start = k * block
        lo, hi, end = start + vstart, start + vl, start + block
        if not (
            np.array_equal(got[:width, lo:hi], planes[:width, lo:hi])
            and np.array_equal(got[:, start:lo], planes[:, start:lo])
            and np.array_equal(got[:, hi:end], planes[:, hi:end])
        ):
            diverged[k] = True
            planes[:, start:end] = got[:, start:end]
    target.set_register_planes(vd, planes)
    return diverged


class BitEngine:
    """A bit-level CSB mirror of the functional vector state.

    Args:
        num_chains: chains in the CSB (the config's chain count).
        num_subarrays: bit-slices per chain (the element width).
        num_cols: columns per chain.
        backend: the CSB's storage, ``"bitplane"`` (packed planes) or
            ``"reference"`` (per-subarray model).
        observer: optional :class:`repro.obs.Observer` forwarded to the
            CSB's microop counters (survives :meth:`reset`).
        fault_injector: optional :class:`repro.faults.FaultInjector`;
            forwarded to every CSB this engine builds, so injected CSB
            faults survive :meth:`reset` (silicon defects do not heal
            between jobs).
        plan_cache: the :class:`~repro.plan.PlanCache` every dispatch
            compiles its plan through (``CAPESystem`` resolves its
            ``plan_cache=`` knob to one).
    """

    #: Live engines execute eagerly; :class:`~repro.gang.DeferredBitEngine`
    #: overrides this so ``CAPESystem._bitexec`` skips the immediate
    #: destination check and lets gang replay check the mirror later.
    deferred = False

    def __init__(
        self,
        num_chains: int,
        num_subarrays: int,
        num_cols: int,
        backend: str = "bitplane",
        observer=None,
        fault_injector=None,
        plan_cache: PlanCache = GLOBAL_PLAN_CACHE,
    ) -> None:
        self.backend = backend
        self.observer = observer
        self.fault_injector = fault_injector
        self._plan_cache = plan_cache
        self._shape = (num_chains, num_subarrays, num_cols)
        self.csb = CSB(
            num_chains, num_subarrays, num_cols, backend=backend,
            observer=observer, fault_injector=fault_injector,
        )
        self._window = (self.csb.max_vl, 0)

    def reset(self) -> None:
        """Zero the bit-level state (fresh CSB, full window)."""
        self.csb = CSB(
            *self._shape, backend=self.backend, observer=self.observer,
            fault_injector=self.fault_injector,
        )
        self._window = (self.csb.max_vl, 0)

    def repair(self, injector) -> List[int]:
        """Remap permanently faulty chains onto spares; return them.

        Asks the injector which chains carry live permanent faults and
        retires as many as the spare budget allows. A remapped chain's
        faults stop being asserted (the spare is clean silicon); the
        caller re-syncs register state and charges the remap cost.
        """
        remapped = []
        for chain in injector.faulty_chains():
            if injector.remap_chain(chain):
                remapped.append(chain)
        return remapped

    def attach_observer(self, observer) -> None:
        """(Re)bind the observer on the live CSB and future resets."""
        self.observer = observer
        self.csb.stats.attach_observer(observer, backend=self.csb.backend_name)

    def set_window(self, vl: int, vstart: int) -> None:
        """Program the active window (cached; cheap to call per-op)."""
        if (vl, vstart) != self._window:
            self.csb.set_vector_length(vl, vstart)
            self._window = (vl, vstart)

    def sync_register(self, vreg: int, values: np.ndarray) -> None:
        """Mirror one functional register row into the CSB (host-side)."""
        self.csb.poke_vector(vreg, values)

    def popcount(self, vreg: int, vl: int, vstart: int) -> int:
        """Bit-level ``vcpop.m``: the CSB's echo of bit 0 (charges nothing)."""
        self.set_window(vl, vstart)
        return int(self.csb.echo_partials(vreg, 1).sum())

    def execute(
        self,
        mnemonic: str,
        vd: Optional[int] = None,
        vs1: Optional[int] = None,
        vs2: Optional[int] = None,
        scalar: Optional[int] = None,
        mask_reg: Optional[int] = None,
        width: int = 32,
        vl: int = 0,
        vstart: int = 0,
    ):
        """Run one intrinsic's microcode on the bit-level CSB.

        Sources must already be mirrored in the CSB (the system keeps
        every written register synced). Returns the reduction scalar for
        ``vredsum.vs``, otherwise ``None`` (the destination lands in the
        CSB).

        Raises:
            UnsupportedMicrocode: the form has no microcode (the caller
                falls back to the functional result).
            ConfigError: the algorithms refused the operand combination
                (e.g. an aliased destination) — treated the same way.
        """
        self.set_window(vl, vstart)
        reason = microcode_unsupported_reason(mnemonic, vd, vs1, vs2, mask_reg)
        if reason is not None:
            raise UnsupportedMicrocode(reason)
        if mnemonic == "vredsum.vs":
            return self.csb.redsum(vs1, width)
        key = op_key(
            mnemonic, width, self._shape[1], vd, vs1, vs2, scalar, mask_reg
        )
        plan = op_plan(key, self._plan_cache, self.observer)
        plan.replay(self.csb.ganged)
        return None


def run_microcode(
    chain,
    mnemonic: str,
    vd: Optional[int],
    vs1: Optional[int],
    vs2: Optional[int],
    scalar: Optional[int],
    mask_reg: Optional[int],
    width: int,
    masked: bool,
) -> None:
    """Drive one intrinsic's microcode against a chain-shaped target.

    The engine drives only a :class:`~repro.plan.RecordingChain`
    (:func:`op_plan`); the microcode touches nothing but the surface it
    shares with a live :class:`~repro.csb.chain.Chain`, so the tests
    drive one directly as the oracle every plan must match.
    """
    if masked and mnemonic != "vmerge.vv":
        alg.broadcast_mask(chain, mask_reg)
    if mnemonic in ("vadd.vv", "vsub.vv"):
        func = alg.vadd_vv if mnemonic == "vadd.vv" else alg.vsub_vv
        func(chain, vd, vs1, vs2, width, masked)
    elif mnemonic in ("vand.vv", "vor.vv", "vxor.vv"):
        func = {
            "vand.vv": alg.vand_vv,
            "vor.vv": alg.vor_vv,
            "vxor.vv": alg.vxor_vv,
        }[mnemonic]
        func(chain, vd, vs1, vs2, masked)
    elif mnemonic == "vadd.vx":
        alg.vadd_vx(chain, vd, vs1, int(scalar), width, masked)
    elif mnemonic == "vrsub.vx":
        alg.vrsub_vx(chain, vd, vs1, int(scalar), width)
    elif mnemonic == "vmul.vv":
        alg.vmul_vv(chain, vd, vs1, vs2, width)
    elif mnemonic == "vmv.v.x":
        alg.vmv_vx(chain, vd, int(scalar), masked)
    elif mnemonic == "vmv.v.v":
        alg.vmv_vv(chain, vd, vs1, masked)
    elif mnemonic == "vmerge.vv":
        alg.vmerge_vvm(chain, vd, vs1, vs2, mask_reg)
    elif mnemonic == "vmseq.vx":
        alg.vmseq_vx(chain, vd, vs1, int(scalar), width)
    elif mnemonic == "vmseq.vv":
        alg.vmseq_vv(chain, vd, vs1, vs2, width)
    elif mnemonic == "vmslt.vv":
        alg.vmslt_vv(chain, vd, vs1, vs2, width)
    elif mnemonic == "vmsltu.vv":
        alg.vmsltu_vv(chain, vd, vs1, vs2, width)
    elif mnemonic == "vmsne.vv":
        alg.vmsne_vv(chain, vd, vs1, vs2, width)
    elif mnemonic in ("vmin.vv", "vmax.vv", "vminu.vv", "vmaxu.vv"):
        func = {
            "vmin.vv": alg.vmin_vv,
            "vmax.vv": alg.vmax_vv,
            "vminu.vv": alg.vminu_vv,
            "vmaxu.vv": alg.vmaxu_vv,
        }[mnemonic]
        func(chain, vd, vs1, vs2, width)
    elif mnemonic in ("vsll.vi", "vsrl.vi", "vsra.vi"):
        func = {
            "vsll.vi": alg.vsll_vi,
            "vsrl.vi": alg.vsrl_vi,
            "vsra.vi": alg.vsra_vi,
        }[mnemonic]
        func(chain, vd, vs1, int(scalar), width)
    else:
        raise UnsupportedMicrocode(mnemonic)
