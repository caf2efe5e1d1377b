"""Vector Control Unit: chain controllers, sequencer FSM, TT decoder.

The VCU (Section V-D) turns each vector instruction into CSB commands:

* A *global control unit* holds the programmable truth-table store and,
  on dispatch, pushes the instruction's truth table to every chain
  controller over a pipelined H-tree (global command distribution — a
  constant number of cycles of overhead per vector instruction that grows
  with the chain count).
* Each *chain controller* walks the table with a five-state sequencer —
  (1) Idle, (2) Read TTM, (3) Generate comparand/mask for search,
  (4) Generate data/mask for update, (5) Reduce — tracking a ``upc``
  counter over TTM entries and a ``bit`` counter over element bits.
* The *truth-table decoder* shifts the stored row values into position
  and ORs them into the digital command word driven onto the chain's
  command bus (143 bits at the 32-bit configuration).

The system timing model uses :class:`VCU` for dispatch overhead and
instruction latency; :class:`ChainControllerFSM` and :class:`TTDecoder`
are the architectural models, unit-tested for sequencing fidelity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

from repro.assoc.instruction_model import InstructionModel
from repro.assoc.truthtable import TruthTable, TTEntry, UpdateOp
from repro.common.errors import CapacityError, ConfigError
from repro.csb.chain import NUM_VREGS, MetaRow
from repro.csb.reduction import ReductionTree
from repro.plan import compile_chain_program, resolve_plan_cache

#: Command-bus width per chain at the 32-bit configuration (Section V-D).
COMMAND_BUS_BITS = 143


class SequencerState(enum.Enum):
    """The chain-controller FSM states (Figure 7, top centre)."""

    IDLE = "idle"
    READ_TTM = "read_ttm"
    GEN_SEARCH = "gen_search"
    GEN_UPDATE = "gen_update"
    REDUCE = "reduce"


@dataclass(frozen=True)
class CommandWord:
    """One decoded command driven onto a chain's command bus.

    Row-indexed bit masks over the subarray's 36 rows: ``search_mask``
    selects the driven rows and ``search_data`` their searched values;
    likewise for the update phase. ``subarray_select`` picks the active
    subarray (bit-serial) or all (bit-parallel).
    """

    search_mask: int = 0
    search_data: int = 0
    update_mask: int = 0
    update_data: int = 0
    update_next_mask: int = 0
    update_next_data: int = 0
    subarray_select: int = -1  # -1 = all subarrays (bit-parallel)
    accumulate: bool = False
    route_next: bool = False
    reduce: bool = False


class TTDecoder:
    """Decodes TTM entries into command words (Figure 7, top right).

    Binds the entry's symbolic operand roles to physical rows: register
    roles come from the dispatched instruction's fields, metadata roles
    from the fixed MetaRow assignment.
    """

    _META_ROWS = {
        "carry": int(MetaRow.CARRY),
        "mask": int(MetaRow.MASK),
        "flag": int(MetaRow.FLAG),
        "scratch": int(MetaRow.SCRATCH),
    }

    def __init__(self, vd: int, vs1: int, vs2: int = 0) -> None:
        for reg in (vd, vs1, vs2):
            if not 0 <= reg < NUM_VREGS:
                raise ConfigError(f"register {reg} out of range")
        self._binding = {"vd": vd, "vs1": vs1, "vs2": vs2, **self._META_ROWS}

    def row_of(self, role: str) -> int:
        try:
            return self._binding[role]
        except KeyError:
            raise ConfigError(f"unknown operand role {role!r}") from None

    def decode(self, entry: TTEntry, subarray: int) -> CommandWord:
        """Shift-and-OR an entry's stored bits into one command word."""
        search_mask = search_data = 0
        for role, bit in entry.search:
            row = self.row_of(role)
            search_mask |= 1 << row
            search_data |= bit << row
        update_mask = update_data = 0
        next_mask = next_data = 0
        for op in entry.updates:
            row = self.row_of(op.role)
            if op.next_subarray:
                next_mask |= 1 << row
                next_data |= op.value << row
            else:
                update_mask |= 1 << row
                update_data |= op.value << row
        return CommandWord(
            search_mask=search_mask,
            search_data=search_data,
            update_mask=update_mask,
            update_data=update_data,
            update_next_mask=next_mask,
            update_next_data=next_data,
            subarray_select=subarray,
            accumulate=entry.accumulate,
            route_next=entry.route_next,
            reduce=entry.reduce,
        )


class ChainControllerFSM:
    """The five-state sequencer walking a truth table over element bits.

    Args:
        table: the instruction's truth table (held in the controller's
            TTM after global distribution).
        decoder: operand-bound TT decoder.
        width: element width in bits.
        msb_first: walk bits from the most significant end (reductions,
            comparisons) instead of LSB-first (arithmetic).
    """

    def __init__(
        self,
        table: TruthTable,
        decoder: TTDecoder,
        width: int,
        msb_first: bool = False,
    ) -> None:
        if width <= 0:
            raise ConfigError("width must be positive")
        self.table = table
        self.decoder = decoder
        self.width = width
        self.msb_first = msb_first
        self.state = SequencerState.IDLE
        self.upc = 0
        self.bit = width - 1 if msb_first else 0

    def run(self) -> Iterator[Tuple[SequencerState, Optional[CommandWord]]]:
        """Generate the (state, command) sequence for one instruction.

        Yields one tuple per FSM transition; commands accompany the
        GEN_SEARCH / GEN_UPDATE / REDUCE states.
        """
        bits = (
            range(self.width - 1, -1, -1)
            if self.msb_first
            else range(self.width)
        )
        for bit in bits:
            self.bit = bit
            self.upc = 0
            for upc, entry in enumerate(self.table.entries):
                self.upc = upc
                self.state = SequencerState.READ_TTM
                yield self.state, None
                word = self.decoder.decode(entry, subarray=bit)
                if entry.has_search:
                    self.state = SequencerState.GEN_SEARCH
                    yield self.state, word
                if entry.has_update:
                    self.state = SequencerState.GEN_UPDATE
                    yield self.state, word
                if entry.reduce:
                    self.state = SequencerState.REDUCE
                    yield self.state, word
        self.state = SequencerState.IDLE
        yield self.state, None


#: Reference truth tables for the instructions whose microcode is fully
#: TTM-expressible (one table walk per bit). They mirror the executable
#: microcode of ``repro.assoc.algorithms``.
TRUTH_TABLES: Dict[str, TruthTable] = {
    "vadd.vv": TruthTable(
        "vadd.vv",
        (
            TTEntry(search=(("vs1", 0), ("vs2", 0), ("carry", 1))),
            TTEntry(search=(("vs1", 0), ("vs2", 1), ("carry", 0)), accumulate=True),
            TTEntry(search=(("vs1", 1), ("vs2", 0), ("carry", 0)), accumulate=True),
            TTEntry(search=(("vs1", 1), ("vs2", 1), ("carry", 1)), accumulate=True),
            TTEntry(search=(("vs1", 1), ("vs2", 1)), route_next=True),
            TTEntry(search=(("vs1", 1), ("carry", 1)), route_next=True, accumulate=True),
            TTEntry(
                search=(("vs2", 1), ("carry", 1)),
                route_next=True,
                accumulate=True,
                updates=(
                    UpdateOp("vd", 1),
                    UpdateOp("carry", 1, next_subarray=True),
                ),
            ),
        ),
    ),
    "vand.vv": TruthTable(
        "vand.vv",
        (
            TTEntry(
                search=(("vs1", 1), ("vs2", 1)),
                updates=(UpdateOp("vd", 1),),
            ),
        ),
    ),
    "vor.vv": TruthTable(
        "vor.vv",
        (
            TTEntry(
                search=(("vs1", 0), ("vs2", 0)),
                updates=(UpdateOp("vd", 0),),
            ),
        ),
    ),
    "vxor.vv": TruthTable(
        "vxor.vv",
        (
            TTEntry(search=(("vs1", 1), ("vs2", 0))),
            TTEntry(
                search=(("vs1", 0), ("vs2", 1)),
                accumulate=True,
                updates=(UpdateOp("vd", 1),),
            ),
        ),
    ),
    "vmslt.vv": TruthTable(
        "vmslt.vv",
        (
            TTEntry(search=(("vs1", 0), ("vs2", 1)), route_next=True),
            TTEntry(search=(("vs1", 0), ("carry", 1)), route_next=True, accumulate=True),
            TTEntry(
                search=(("vs2", 1), ("carry", 1)),
                route_next=True,
                accumulate=True,
                updates=(UpdateOp("carry", 1, next_subarray=True),),
            ),
        ),
    ),
    "vredsum.vs": TruthTable(
        "vredsum.vs",
        (TTEntry(search=(("vs1", 1),), reduce=True),),
    ),
}


def _word_to_key(mask: int, data: int, num_rows: int = 36) -> Dict[int, int]:
    """Expand a command word's (mask, data) pair into a row -> bit map."""
    key = {}
    for row in range(num_rows):
        if (mask >> row) & 1:
            key[row] = (data >> row) & 1
    return key


def _apply_table(
    chain,
    table: TruthTable,
    decoder: TTDecoder,
    width: int,
    msb_first: bool,
    preamble: Tuple[Tuple[int, int], ...],
):
    """Walk the FSM once, driving ``chain``.

    :func:`execute_table` drives only a recorder (the tests drive a live
    chain as the oracle). Returns ``(used_reduce, reduce_values)`` where
    ``reduce_values`` is the per-bit redsum partial list — plan tokens
    under a :class:`~repro.plan.RecordingChain`, ints on a live chain.
    """
    for row, value in preamble:
        chain.update_bit_parallel(row, value, use_tags=False)
    fsm = ChainControllerFSM(table, decoder, width, msb_first=msb_first)
    reduce_values = []
    used_reduce = False
    for state, word in fsm.run():
        if word is None:
            continue
        subarray = word.subarray_select % chain.num_subarrays
        if state is SequencerState.GEN_SEARCH:
            if word.reduce:
                continue  # the REDUCE state performs the echo search
            key = _word_to_key(word.search_mask, word.search_data)
            if word.route_next:
                chain.search_accumulate_next(
                    subarray, key, accumulate=word.accumulate
                )
            else:
                chain.search(subarray, key, accumulate=word.accumulate)
        elif state is SequencerState.GEN_UPDATE:
            local_key = _word_to_key(word.update_mask, word.update_data)
            next_key = _word_to_key(word.update_next_mask, word.update_next_data)
            if local_key and next_key:
                (l_row, l_val), = local_key.items()
                (n_row, n_val), = next_key.items()
                chain.update_prop(subarray, l_row, l_val, n_row, n_val)
            elif local_key:
                (l_row, l_val), = local_key.items()
                chain.update(subarray, l_row, l_val)
            elif next_key:
                (n_row, n_val), = next_key.items()
                chain.update_next(subarray, n_row, n_val)
        elif state is SequencerState.REDUCE:
            used_reduce = True
            key = _word_to_key(word.search_mask, word.search_data)
            (row, _), = key.items()
            reduce_values.append(chain.redsum_step(subarray, row))
    return used_reduce, reduce_values


def _fold_reduce(values) -> int:
    """Fold per-bit redsum partials MSB-first, as the FSM walk did."""
    total = 0
    for value in values:
        total = (total << 1) + int(value)
    return total


def execute_table(
    chain,
    table: TruthTable,
    decoder: TTDecoder,
    width: int,
    msb_first: bool = False,
    preamble: Tuple[Tuple[int, int], ...] = (),
    plan_cache=True,
):
    """Drive a bit-level chain from a truth table through the FSM path.

    This is the architectural execution route: the chain controller's
    sequencer walks the TTM, the decoder produces command words, and the
    commands are applied to the chain's row/column drivers — validating
    that the TTM encoding is sufficient to realise the associative
    algorithms (the executable microcode in ``repro.assoc.algorithms``
    is the reference).

    The walk is compiled into a :class:`~repro.plan.CompiledPlan` keyed
    by (table, binding, width, direction, subarray count), kept by the
    plan cache (a table that does not hash compiles uncached), and
    replayed — the same state transitions and microop charges as
    walking the sequencer on the chain itself.

    Args:
        chain: the bit-level chain to drive.
        table: the instruction's truth table.
        decoder: operand-bound TT decoder.
        width: element width in bits.
        msb_first: bit-walk direction.
        preamble: (row, value) bulk initialisations issued before the
            table walk (the "+2" initialisation updates of Table I).
        plan_cache: ``True`` (default) for the process-wide plan cache,
            ``False``/``None`` to compile every call and keep nothing, or
            an explicit :class:`~repro.plan.PlanCache`.

    Returns:
        The accumulated redsum value when the table engages the
        reduction logic, else ``None``.
    """
    cache = resolve_plan_cache(plan_cache)
    key = (
        "table", chain.num_subarrays, width, bool(msb_first), table,
        tuple(preamble), tuple(sorted(decoder._binding.items())),
    )

    def build():
        return compile_chain_program(
            chain.num_subarrays,
            lambda rec: _apply_table(
                rec, table, decoder, width, msb_first, preamble
            ),
        )

    try:
        hash(key)
    except TypeError:
        plan = build()  # an exotic hand-built table: compile, keep nothing
    else:
        plan = cache.get_or_compile(key, build)
    used_reduce, values = plan.replay(chain)
    return _fold_reduce(values) if used_reduce else None


@dataclass
class VCUStats:
    """Dispatch counters, including the per-mnemonic instruction mix."""

    instructions: int = 0
    csb_cycles: int = 0
    distribution_cycles: int = 0
    energy_j: float = 0.0
    mix: Dict[str, int] = field(default_factory=dict)

    def count(self, mnemonic: str) -> None:
        self.mix[mnemonic] = self.mix.get(mnemonic, 0) + 1


class VCU:
    """Timing/energy model of the vector control unit.

    Args:
        num_chains: chains driven by this VCU (sets the distribution
            H-tree depth and the reduction tree).
        model: instruction timing/energy oracle.
    """

    #: Chains sharing one chain controller (chain groups, Figure 7).
    CHAINS_PER_CONTROLLER = 8

    def __init__(self, num_chains: int, model: InstructionModel) -> None:
        if num_chains <= 0:
            raise ConfigError("num_chains must be positive")
        self.num_chains = num_chains
        self.model = model
        self.reduction_tree = ReductionTree(num_chains)
        self.stats = VCUStats()
        #: Optional :class:`repro.obs.Observer` (set by the system) and a
        #: callable yielding the run's current cycle for trace timestamps.
        self.observer = None
        self.cycle_source = None

    def _observe(self, mnemonic: str, vl: int, cycles: int, total: int,
                 energy_j: float) -> None:
        obs = self.observer
        if obs is None or not obs.enabled:
            return
        obs.counter("vcu.instructions", opcode=mnemonic).inc()
        obs.counter("vcu.cycles", kind="csb").inc(cycles)
        obs.counter("vcu.cycles", kind="distribution").inc(
            self.distribution_cycles
        )
        obs.counter("vcu.energy_j").inc(energy_j)
        ts = self.cycle_source() if self.cycle_source is not None else 0.0
        obs.complete(mnemonic, "microcode", ts=ts, dur=total, tid="vcu", vl=vl)

    @cached_property
    def num_controllers(self) -> int:
        return math.ceil(self.num_chains / self.CHAINS_PER_CONTROLLER)

    @cached_property
    def distribution_cycles(self) -> int:
        """Pipelined H-tree latency from the global unit to controllers.

        One pipeline stage per H-tree level (4-ary), constant per vector
        instruction — and growing with CSB capacity, which is one of the
        scalability headwinds the paper observes for CAPE131k.
        """
        if self.num_controllers == 1:
            return 1
        return max(1, math.ceil(math.log(self.num_controllers, 4)))

    def dispatch(self, mnemonic: str, vl: int, reduction: bool = False) -> int:
        """Dispatch one vector instruction; returns CAPE cycles consumed.

        Args:
            mnemonic: the instruction.
            vl: active vector length (for energy accounting and the
                active-window masking).
            reduction: engage the global reduction tree (redsum and the
                compare post-processing across chains).
        """
        if vl < 0:
            raise CapacityError("vl must be non-negative")
        cycles = self.model.cycles(mnemonic)
        if reduction:
            cycles += self.reduction_tree.num_stages
        total = self.distribution_cycles + cycles
        self.stats.instructions += 1
        self.stats.count(mnemonic)
        self.stats.csb_cycles += cycles
        self.stats.distribution_cycles += self.distribution_cycles
        energy = self.model.energy_per_lane_j(mnemonic) * vl
        self.stats.energy_j += energy
        if self.observer is not None:
            self._observe(mnemonic, vl, cycles, total, energy)
        return total

    def dispatch_raw(
        self, cycles: int, vl: int, energy_per_lane_j: float = 0.0
    ) -> int:
        """Dispatch a microcoded sequence with explicit cycle/energy cost.

        Used for operations outside the Table I set whose cost is derived
        directly from their microoperation structure (e.g. the single-pass
        tag-bit pop count behind ``vcpop.m``).
        """
        total = self.distribution_cycles + cycles
        self.stats.instructions += 1
        self.stats.count("microcoded")
        self.stats.csb_cycles += cycles
        self.stats.distribution_cycles += self.distribution_cycles
        energy = energy_per_lane_j * vl
        self.stats.energy_j += energy
        if self.observer is not None:
            self._observe("microcoded", vl, cycles, total, energy)
        return total
