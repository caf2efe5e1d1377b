"""Recording chain: captures a microcode walk as a flat step stream.

CAPE's VCU is a vertical-microcode machine — for a given (mnemonic, SEW,
operand roles, mask form) the sequencer FSM and truth-table decoder emit
the *same* search/update command stream every time. The
:class:`RecordingChain` duck-types :class:`~repro.csb.chain.Chain` just
far enough for the associative algorithms and the FSM walk to run
against it, recording every chain-level microoperation into a flat list
of ``(method, args)`` steps instead of touching bitcell state.

Values a walk produces and later consumes (a search's tag vector routed
into a bit-parallel select, a serial tag combine loaded back onto the
tag bus, a redsum pop-count) are represented by :class:`Token`
placeholders, so the recorded program is a small dataflow graph that a
:class:`~repro.plan.plan.CompiledPlan` can replay on any real chain.

A recording is plain data: no step holds a callable or a column vector
(a plan has no column count, so a tag load or routed select takes only
a token), and the shifts' element rewrite is a ``move_planes`` step
charged per active lane.

Operand validation mirrors what :class:`~repro.csb.chain.Chain` and the
backends would enforce on first execution, so a malformed program fails
at compile time exactly where the uncompiled walk would have failed.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.circuits.microops import Microop
from repro.common.errors import ConfigError, ProtocolError
from repro.csb.chain import NUM_VREGS, MetaRow, plane_sources
from repro.csb.subarray import MAX_SEARCH_ROWS

#: Wordlines per subarray (32 vector registers + 4 metadata rows).
NUM_ROWS = NUM_VREGS + len(MetaRow)


class Token:
    """Placeholder for a value produced by a recorded step.

    Tokens stand in for the arrays (tag vectors) and scalars (redsum
    pop-counts) a microcode walk threads from one step to another; at
    replay each token resolves to the value the corresponding step
    produced on the live chain.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.index})"


class RecordingChain:
    """A chain-shaped recorder: every microoperation becomes a step.

    Only the surface the microcode layer actually drives is implemented;
    anything else is a genuine error (the plan compiler must never
    silently drop state the real chain would have mutated).
    """

    def __init__(self, num_subarrays: int) -> None:
        if num_subarrays <= 0:
            raise ConfigError("num_subarrays must be positive")
        self.num_subarrays = num_subarrays
        #: Recorded steps: (method name, args tuple, output token index).
        self.steps: List[Tuple[str, tuple, Optional[int]]] = []
        #: Microop charges of the recorded stream, keyed like
        #: :class:`~repro.csb.counter.MicroopStats.counts`: ``charges``
        #: once per replay, ``lane_charges`` once per active lane (the
        #: element rewrite visits every active column).
        self.charges: Counter = Counter()
        self.lane_charges: Counter = Counter()
        self._num_tokens = 0

    # ------------------------------------------------------------------
    # Recording plumbing
    # ------------------------------------------------------------------

    def _emit(self, method: str, *args) -> None:
        self.steps.append((method, args, None))

    def _emit_value(self, method: str, *args) -> Token:
        token = Token(self._num_tokens)
        self._num_tokens += 1
        self.steps.append((method, args, token.index))
        return token

    def _charge(self, op: Microop, bit_parallel: bool, n: int = 1) -> None:
        if n:
            self.charges[(op, bit_parallel)] += n

    @property
    def num_tokens(self) -> int:
        return self._num_tokens

    # ------------------------------------------------------------------
    # Validation (mirrors Chain / backend checks at compile time)
    # ------------------------------------------------------------------

    def _check_subarray(self, subarray: int) -> None:
        if not 0 <= subarray < self.num_subarrays:
            raise ConfigError(
                f"subarray {subarray} out of range [0, {self.num_subarrays})"
            )

    def _check_vreg(self, vreg: int) -> None:
        if not 0 <= vreg < NUM_VREGS:
            raise ConfigError(
                f"vector register {vreg} out of range [0, {NUM_VREGS})"
            )

    def _check_row(self, row: int) -> None:
        if not 0 <= row < NUM_ROWS:
            raise ConfigError(f"row {row} out of range [0, {NUM_ROWS})")

    def _check_token(self, operand) -> None:
        if type(operand) is not Token:  # a plan has no column count
            raise ConfigError(f"expected a token, got {type(operand).__name__}")

    def _check_key(self, key: Mapping[int, int]) -> dict:
        if len(key) > MAX_SEARCH_ROWS:
            raise ProtocolError(
                f"search may drive at most {MAX_SEARCH_ROWS} rows, "
                f"got {len(key)}"
            )
        for row in key:
            self._check_row(row)
        return {int(row): int(bit) & 1 for row, bit in key.items()}

    # ------------------------------------------------------------------
    # Search microoperations
    # ------------------------------------------------------------------

    def search(
        self,
        subarray: int,
        key: Mapping[int, int],
        accumulate: bool = False,
    ) -> Token:
        self._check_subarray(subarray)
        key = self._check_key(key)
        self._charge(Microop.SEARCH, False)
        return self._emit_value("search", subarray, key, bool(accumulate))

    def search_accumulate_next(
        self,
        subarray: int,
        key: Mapping[int, int],
        accumulate: bool = True,
    ) -> Token:
        self._check_subarray(subarray)
        key = self._check_key(key)
        self._charge(Microop.SEARCH, False)
        return self._emit_value(
            "search_accumulate_next", subarray, key, bool(accumulate)
        )

    def search_bit_parallel(
        self,
        keys: Sequence[Mapping[int, int]],
        accumulate: bool = False,
    ) -> Token:
        if len(keys) != self.num_subarrays:
            raise ConfigError(
                f"expected {self.num_subarrays} keys, got {len(keys)}"
            )
        keys = tuple(self._check_key(key) for key in keys)
        self._charge(Microop.SEARCH, True)
        return self._emit_value("search_bit_parallel", keys, bool(accumulate))

    # ------------------------------------------------------------------
    # Update microoperations
    # ------------------------------------------------------------------

    def update(self, subarray: int, row: int, value: int) -> None:
        self._check_subarray(subarray)
        self._check_row(row)
        self._charge(Microop.UPDATE, False)
        self._emit("update", subarray, row, int(value) & 1)

    def update_prop(
        self,
        subarray: int,
        row: int,
        value: int,
        next_row: int,
        next_value: int,
    ) -> None:
        self._check_subarray(subarray)
        self._check_row(row)
        self._check_row(next_row)
        self._charge(Microop.UPDATE_PROP, False)
        self._emit(
            "update_prop", subarray, row, int(value) & 1,
            next_row, int(next_value) & 1,
        )

    def update_next(self, subarray: int, next_row: int, value: int) -> None:
        self._check_subarray(subarray)
        self._check_row(next_row)
        self._charge(Microop.UPDATE, False)
        self._emit("update_next", subarray, next_row, int(value) & 1)

    def update_row_full(self, subarray: int, row: int, value: int) -> None:
        self._check_subarray(subarray)
        self._check_row(row)
        self._charge(Microop.UPDATE, False)
        self._emit("update_row_full", subarray, row, int(value) & 1)

    def update_bit_parallel(
        self, row: int, value: int, use_tags: bool = True
    ) -> None:
        self._check_row(row)
        self._charge(Microop.UPDATE, True)
        self._emit("update_bit_parallel", row, int(value) & 1, bool(use_tags))

    def update_bit_parallel_select(
        self, row: int, value: int, select: Token
    ) -> None:
        self._check_row(row)
        self._check_token(select)
        self._charge(Microop.UPDATE, True)
        self._emit("update_bit_parallel_select", row, int(value) & 1, select)

    def update_bit_parallel_values(
        self, row: int, values: Sequence[int], use_tags: bool = False
    ) -> None:
        self._check_row(row)
        if len(values) != self.num_subarrays:
            raise ConfigError(
                f"expected {self.num_subarrays} values, got {len(values)}"
            )
        self._charge(Microop.UPDATE, True)
        self._emit(
            "update_bit_parallel_values",
            row,
            tuple(int(v) & 1 for v in values),
            bool(use_tags),
        )

    # ------------------------------------------------------------------
    # Tag plumbing (free of microop cost, like the real chain)
    # ------------------------------------------------------------------

    def set_tags(self, subarray: int, tags: Token) -> None:
        self._check_subarray(subarray)
        self._check_token(tags)
        self._emit("set_tags", subarray, tags)

    def clear_tags(self) -> None:
        self._emit("clear_tags")

    def combine_tags_serial(self, limit: Optional[int] = None) -> Token:
        limit = self.num_subarrays if limit is None else int(limit)
        if not 0 <= limit <= self.num_subarrays:
            raise ConfigError(
                f"combine limit {limit} outside [0, {self.num_subarrays}]"
            )
        self._charge(Microop.REDUCE, False, n=limit)
        return self._emit_value("combine_tags_serial", limit)

    def combine_tags_serial_or(self, limit: Optional[int] = None) -> Token:
        limit = self.num_subarrays if limit is None else int(limit)
        if not 0 <= limit <= self.num_subarrays:
            raise ConfigError(
                f"combine limit {limit} outside [0, {self.num_subarrays}]"
            )
        self._charge(Microop.REDUCE, False, n=limit)
        return self._emit_value("combine_tags_serial_or", limit)

    # ------------------------------------------------------------------
    # Reduction / element rewrite
    # ------------------------------------------------------------------

    def redsum_step(self, subarray: int, row: int) -> Token:
        self._check_subarray(subarray)
        self._check_row(row)
        self._charge(Microop.SEARCH, True)
        self._charge(Microop.REDUCE, True)
        return self._emit_value("redsum_step", subarray, row)

    def move_planes(
        self, vd: int, vs1: int, sources: Sequence[Optional[int]]
    ) -> None:
        self._check_vreg(vd)
        self._check_vreg(vs1)
        sources = plane_sources(sources, self.num_subarrays)
        self.lane_charges[(Microop.READ, True)] += 1
        self.lane_charges[(Microop.WRITE, True)] += 1
        self._emit("move_planes", vd, vs1, sources)
