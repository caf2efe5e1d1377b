"""Microcoded associative algorithms for CAPE's vector instructions.

Each function realises one RISC-V vector instruction as the paper's
search/update choreography over a bit-level :class:`~repro.csb.Chain`:

* Logic instructions are *bit-parallel*: one search-update pass drives the
  same rows of every subarray at once (3-4 cycles total, Table I).
* Arithmetic is *bit-serial*: a truth-table walk per bit with carry/borrow
  propagation through the inter-subarray tag routing. `vadd`/`vsub` spend
  8 microoperations per bit plus 2 initialisation updates (8n + 2).
* Comparisons produce RVV-style mask values (bit 0 of the destination
  register), using either the bit-parallel search plus a bit-serial tag
  combine (`vmseq`) or a borrow chain (`vmslt`).
* `vmul` walks the add truth table a quadratic number of times
  (Horner/shift-and-add, conditioned on the multiplier bit broadcast into
  the MASK metadata row).

Functional correctness of every algorithm is property-tested against plain
integer arithmetic. Microoperation counts are *measured* by running these
algorithms; the instruction model compares them against the paper's closed
forms (see ``instruction_model.py`` and EXPERIMENTS.md for the cases where
our reconstructed microcode spends more cycles than the published counts).

Masked variants implement RVV semantics: inactive elements of the
destination are left unchanged. The mask must first be replicated into the
MASK metadata row of every subarray with :func:`broadcast_mask`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

import numpy as np

from repro.common.errors import ConfigError
from repro.csb.chain import Chain, MetaRow
from repro.csb.subarray import Subarray


def _resolve_width(chain: Chain, width: Optional[int]) -> int:
    width = chain.num_subarrays if width is None else width
    if not 1 <= width <= chain.num_subarrays:
        raise ConfigError(
            f"width {width} outside [1, {chain.num_subarrays}]"
        )
    return width


def _guard(masked: bool) -> Dict[int, int]:
    """Search-key fragment restricting matches to active (masked-on) lanes."""
    return {int(MetaRow.MASK): 1} if masked else {}


# ---------------------------------------------------------------------------
# Mask plumbing
# ---------------------------------------------------------------------------

def broadcast_mask(chain: Chain, vm: int) -> None:
    """Replicate mask register ``vm`` (its bit 0) into every MASK row.

    A mask value has one bit per element, held in bit 0 of a vector
    register (subarray 0). Bit-parallel instructions need the mask visible
    in *every* subarray, so the VCU echoes it onto the chain's column bus:
    clear the MASK rows, search the mask bit, commit the broadcast (3
    microoperations).
    """
    chain.update_bit_parallel(int(MetaRow.MASK), 0, use_tags=False)
    tags = chain.search(0, {vm: 1})
    chain.update_bit_parallel_select(int(MetaRow.MASK), 1, tags)


# ---------------------------------------------------------------------------
# Moves / broadcast
# ---------------------------------------------------------------------------

def vmv_vv(chain: Chain, vd: int, vs1: int, masked: bool = False) -> None:
    """``vmv.v.v vd, vs1`` — bit-parallel register copy (3 microops)."""
    if vd == vs1:
        return
    _clear_dest(chain, vd, masked)
    key = {vs1: 1, **_guard(masked)}
    chain.search_bit_parallel([key] * chain.num_subarrays)
    chain.update_bit_parallel(vd, 1, use_tags=True)


def vmv_vx(chain: Chain, vd: int, scalar: int, masked: bool = False) -> None:
    """``vmv.v.x vd, rs1`` — broadcast a scalar to every element.

    Each subarray's write drivers carry one bit of the scalar, so the
    whole broadcast is a single bit-parallel update (plus the masked-lane
    selection when a mask is active).
    """
    bits = [(scalar >> i) & 1 for i in range(chain.num_subarrays)]
    if masked:
        key = {int(MetaRow.MASK): 1}
        chain.search_bit_parallel([key] * chain.num_subarrays)
        chain.update_bit_parallel_values(vd, bits, use_tags=True)
    else:
        chain.update_bit_parallel_values(vd, bits, use_tags=False)


# ---------------------------------------------------------------------------
# Logic instructions (bit-parallel)
# ---------------------------------------------------------------------------

def _clear_dest(chain: Chain, vd: int, masked: bool, value: int = 0) -> None:
    """Initialise the destination: bulk write, restricted to active lanes.

    Unmasked: one full-column bit-parallel update. Masked: select active
    lanes via the MASK rows first so inactive elements stay unchanged.
    """
    if masked:
        key = {int(MetaRow.MASK): 1}
        chain.search_bit_parallel([key] * chain.num_subarrays)
        chain.update_bit_parallel(vd, value, use_tags=True)
    else:
        chain.update_bit_parallel(vd, value, use_tags=False)


def vand_vv(chain: Chain, vd: int, vs1: int, vs2: int, masked: bool = False) -> None:
    """``vand.vv`` — clear vd, search (a=1, b=1), set matching bits (3 cycles)."""
    _require_not_aliased("vand.vv", vd, vs1, vs2)
    _clear_dest(chain, vd, masked)
    key = {vs1: 1, vs2: 1, **_guard(masked)}
    chain.search_bit_parallel([key] * chain.num_subarrays)
    chain.update_bit_parallel(vd, 1, use_tags=True)


def vor_vv(chain: Chain, vd: int, vs1: int, vs2: int, masked: bool = False) -> None:
    """``vor.vv`` — preset vd to 1, search (a=0, b=0), clear (3 cycles)."""
    _require_not_aliased("vor.vv", vd, vs1, vs2)
    _clear_dest(chain, vd, masked, value=1)
    key = {vs1: 0, vs2: 0, **_guard(masked)}
    chain.search_bit_parallel([key] * chain.num_subarrays)
    chain.update_bit_parallel(vd, 0, use_tags=True)


def vxor_vv(chain: Chain, vd: int, vs1: int, vs2: int, masked: bool = False) -> None:
    """``vxor.vv`` — clear vd, two accumulated searches, one set (4 cycles)."""
    _require_not_aliased("vxor.vv", vd, vs1, vs2)
    _clear_dest(chain, vd, masked)
    g = _guard(masked)
    keys1 = [{vs1: 1, vs2: 0, **g}] * chain.num_subarrays
    keys2 = [{vs1: 0, vs2: 1, **g}] * chain.num_subarrays
    chain.search_bit_parallel(keys1)
    chain.search_bit_parallel(keys2, accumulate=True)
    chain.update_bit_parallel(vd, 1, use_tags=True)


# ---------------------------------------------------------------------------
# Bit-serial addition / subtraction
# ---------------------------------------------------------------------------

def _add_core(
    chain: Chain,
    dest: int,
    a_row: int,
    b_row: int,
    width: int,
    masked: bool,
    borrow: bool,
) -> None:
    """The 8-cycles-per-bit add/sub truth-table walk into a fresh ``dest``.

    Per bit ``i`` (all rows live in subarray ``i``; the carry/borrow for
    bit ``i+1`` is committed into subarray ``i+1`` through the tag routing,
    matching "arithmetic instructions update two subarrays simultaneously,
    but only one row per subarray"):

    * four searches accumulate the sum=1 cases (odd parity of a, b, carry)
      into the local tags,
    * three searches accumulate the carry-out cases — the majority function
      of (a, b, carry) for add, of (NOT a, b, borrow) for subtract — into
      the next subarray's tags,
    * one dual-subarray update commits ``dest[i]`` and ``carry[i+1]``.

    Initialisation (the "+2" of Table I's 8n + 2): bulk-clear ``dest`` and
    the carry rows. ``dest`` must not alias ``a_row``/``b_row`` — callers
    route aliasing cases through the SCRATCH row.
    """
    carry = int(MetaRow.CARRY)
    g = _guard(masked)
    if masked:
        # Clear dest/carry on active lanes only (3 init microops).
        key = {int(MetaRow.MASK): 1}
        chain.search_bit_parallel([key] * chain.num_subarrays)
        chain.update_bit_parallel(dest, 0, use_tags=True)
        chain.update_bit_parallel(carry, 0, use_tags=True)
    else:
        chain.update_bit_parallel(dest, 0, use_tags=False)
        chain.update_bit_parallel(carry, 0, use_tags=False)

    sum_patterns = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))
    a_for_carry = 0 if borrow else 1
    for i in range(width):
        for n, (pa, pb, pc) in enumerate(sum_patterns):
            key = {a_row: pa, b_row: pb, carry: pc, **g}
            chain.search(i, key, accumulate=n > 0)
        carry_patterns = (
            {a_row: a_for_carry, b_row: 1, **g},
            {a_row: a_for_carry, carry: 1, **g},
            {b_row: 1, carry: 1, **g},
        )
        for n, key in enumerate(carry_patterns):
            chain.search_accumulate_next(i, key, accumulate=n > 0)
        chain.update_prop(i, dest, 1, carry, 1)


def _copy_register(chain: Chain, dest: int, src: int, masked: bool = False) -> None:
    """Bit-parallel copy ``dest <- src`` (3 microops), like ``vmv.v.v``."""
    _clear_dest(chain, dest, masked)
    key = {src: 1, **_guard(masked)}
    chain.search_bit_parallel([key] * chain.num_subarrays)
    chain.update_bit_parallel(dest, 1, use_tags=True)


def _add_like(
    chain: Chain,
    vd: int,
    vs1: int,
    vs2: int,
    width: Optional[int],
    masked: bool,
    borrow: bool,
) -> None:
    width = _resolve_width(chain, width)
    scratch = int(MetaRow.SCRATCH)
    if vd in (vs1, vs2):
        # In-place form: compute into SCRATCH, then copy back (3 extra).
        _add_core(chain, scratch, vs1, vs2, width, masked, borrow)
        _copy_register(chain, vd, scratch, masked)
    else:
        _add_core(chain, vd, vs1, vs2, width, masked, borrow)


def vadd_vv(
    chain: Chain,
    vd: int,
    vs1: int,
    vs2: int,
    width: Optional[int] = None,
    masked: bool = False,
) -> None:
    """``vadd.vv vd, vs1, vs2`` — bit-serial addition, 8n + 2 microops."""
    _add_like(chain, vd, vs1, vs2, width, masked, borrow=False)


def vsub_vv(
    chain: Chain,
    vd: int,
    vs1: int,
    vs2: int,
    width: Optional[int] = None,
    masked: bool = False,
) -> None:
    """``vsub.vv vd, vs1, vs2`` — bit-serial subtraction, 8n + 2 microops.

    Same structure as addition: difference = a XOR b XOR borrow; the
    borrow-out is the majority of (NOT a, b, borrow).
    """
    _add_like(chain, vd, vs1, vs2, width, masked, borrow=True)


def vadd_vx(
    chain: Chain,
    vd: int,
    vs1: int,
    scalar: int,
    width: Optional[int] = None,
    masked: bool = False,
) -> None:
    """``vadd.vx vd, vs1, rs1`` — add a scalar to every element.

    The sequencer folds the scalar's bit into the truth table, halving the
    searched cases per bit relative to ``vadd.vv`` (4-5 microops per bit).
    """
    width = _resolve_width(chain, width)
    carry = int(MetaRow.CARRY)
    g = _guard(masked)
    scratch = int(MetaRow.SCRATCH)
    in_place = vd == vs1
    dest = scratch if in_place else vd
    _clear_dest(chain, dest, masked)
    chain.update_bit_parallel(carry, 0, use_tags=False)
    for i in range(width):
        b = (scalar >> i) & 1
        # sum = a XOR b XOR c = 1 cases, with b fixed.
        if b == 0:
            sum_patterns = ({vs1: 0, carry: 1}, {vs1: 1, carry: 0})
            carry_patterns = ({vs1: 1, carry: 1},)
        else:
            sum_patterns = ({vs1: 0, carry: 0}, {vs1: 1, carry: 1})
            carry_patterns = ({vs1: 1}, {carry: 1})
        for n, key in enumerate(sum_patterns):
            chain.search(i, {**key, **g}, accumulate=n > 0)
        for n, key in enumerate(carry_patterns):
            chain.search_accumulate_next(i, {**key, **g}, accumulate=n > 0)
        chain.update_prop(i, dest, 1, carry, 1)
    if in_place:
        _copy_register(chain, vd, scratch, masked)


# ---------------------------------------------------------------------------
# Multiplication (bit-serial, quadratic truth-table traversal)
# ---------------------------------------------------------------------------

def _shift_left_one(chain: Chain, vreg: int, width: int) -> None:
    """Shift a register left by one bit via the inter-subarray tag routing.

    Walks bits from MSB down: bit ``i`` is echoed into subarray ``i+1``'s
    tags and committed there; bit 0 is then cleared. 3 microops per bit.
    """
    for i in range(width - 2, -1, -1):
        chain.search_accumulate_next(i, {vreg: 1}, accumulate=False)
        chain.update_row_full((i + 1) % chain.num_subarrays, vreg, 0)
        chain.update_next(i, vreg, 1)
    chain.update_row_full(0, vreg, 0)


def vmul_vv(
    chain: Chain,
    vd: int,
    vs1: int,
    vs2: int,
    width: Optional[int] = None,
) -> None:
    """``vmul.vv vd, vs1, vs2`` — low half of the product (Horner form).

    For each multiplier bit, most significant first: shift the accumulator
    left, broadcast the multiplier bit into the MASK rows, and run a
    masked add of the multiplicand — re-traversing the add truth table a
    quadratic number of times, which is what makes multiplication the most
    expensive CAPE instruction (Table I: 4n^2 - 4n cycles, >3,000 searches
    and updates at n=32). Low-half semantics hold for signed and unsigned
    operands alike. ``vd`` must not alias either source.
    """
    width = _resolve_width(chain, width)
    if vd in (vs1, vs2):
        raise ConfigError("vmul.vv requires vd distinct from vs1/vs2")
    mask_row = int(MetaRow.MASK)
    scratch = int(MetaRow.SCRATCH)
    chain.update_bit_parallel(vd, 0, use_tags=False)
    for j in range(width - 1, -1, -1):
        _shift_left_one(chain, vd, width)
        # Broadcast multiplier bit j into every subarray's MASK row.
        chain.update_bit_parallel(mask_row, 0, use_tags=False)
        tags = chain.search(j, {vs2: 1})
        chain.update_bit_parallel_select(mask_row, 1, tags)
        # vd += vs1 where MASK, via a fresh sum in SCRATCH.
        _add_core(chain, scratch, vd, vs1, width, masked=True, borrow=False)
        _copy_register(chain, vd, scratch, masked=True)


# ---------------------------------------------------------------------------
# Comparisons (mask-producing)
# ---------------------------------------------------------------------------

def vmseq_vx(
    chain: Chain,
    vd: int,
    vs1: int,
    scalar: int,
    width: Optional[int] = None,
) -> None:
    """``vmseq.vx vd, vs1, rs1`` — equality against a scalar.

    One bit-parallel search (subarray ``i`` drives the scalar's bit ``i``)
    followed by the bit-serial combine of the per-subarray tags into a
    single match bit per element (Table I: n + 1 cycles).
    """
    width = _resolve_width(chain, width)
    # Mask results are tail-agnostic: only bit 0 (the mask bit) is defined,
    # so no full-register clear is needed.
    chain.update_row_full(0, vd, 0)
    keys = []
    for i in range(chain.num_subarrays):
        if i < width:
            keys.append({vs1: (scalar >> i) & 1})
        else:
            keys.append({})  # excluded slice: matchlines stay precharged
    chain.search_bit_parallel(keys)
    combined = chain.combine_tags_serial(limit=width)
    chain.set_tags(0, combined)
    chain.update(0, vd, 1)


def vmseq_vv(
    chain: Chain,
    vd: int,
    vs1: int,
    vs2: int,
    width: Optional[int] = None,
) -> None:
    """``vmseq.vv vd, vs1, vs2`` — element equality of two vectors.

    Two bit-parallel searches accumulate per-subarray *mismatch* tags;
    the bit-serial OR combine yields mismatch per element, which clears a
    preset result bit (Table I: n + 4 cycles).
    """
    width = _resolve_width(chain, width)
    # Tail-agnostic mask destination: preset only the mask bit.
    chain.update_row_full(0, vd, 1)
    keys1 = [{vs1: 1, vs2: 0}] * chain.num_subarrays
    keys2 = [{vs1: 0, vs2: 1}] * chain.num_subarrays
    chain.search_bit_parallel(keys1)
    chain.search_bit_parallel(keys2, accumulate=True)
    mismatch = chain.combine_tags_serial_or(limit=width)
    chain.set_tags(0, mismatch)
    chain.update(0, vd, 0)


def _borrow_chain(chain: Chain, vs1: int, vs2: int, width: int) -> None:
    """Run the borrow recurrence of ``vs1 - vs2`` through the carry rows.

    borrow(i+1) = majority(NOT a_i, b_i, borrow_i), realised with three
    two-row searches routed into the next subarray plus one update there —
    matching Table I's two active search rows for ``vmslt``.
    """
    carry = int(MetaRow.CARRY)
    for i in range(width):
        chain.search_accumulate_next(i, {vs1: 0, vs2: 1}, accumulate=False)
        chain.search_accumulate_next(i, {vs1: 0, carry: 1})
        chain.search_accumulate_next(i, {vs2: 1, carry: 1})
        chain.update_next(i, carry, 1)


def _walk_tags_to_zero(chain: Chain, start: int) -> None:
    """Move a tag vector from subarray ``start`` to subarray 0, one hop at
    a time through the FLAG row (3 microops per hop; only needed when the
    element width is smaller than the chain's subarray count)."""
    flag = int(MetaRow.FLAG)
    k = start
    while k != 0:
        chain.update_row_full(k, flag, 0)
        chain.update(k, flag, 1)
        chain.search_accumulate_next(k, {flag: 1}, accumulate=False)
        k = (k + 1) % chain.num_subarrays


def vmslt_vv(
    chain: Chain,
    vd: int,
    vs1: int,
    vs2: int,
    width: Optional[int] = None,
    signed: bool = True,
) -> None:
    """``vmslt.vv vd, vs1, vs2`` — (signed) less-than, mask result.

    Runs the subtract borrow chain without storing the difference; the
    final borrow is the unsigned less-than outcome. For the signed form
    the outcome is XOR-corrected with the operands' sign bits
    (lt_signed = borrow XOR sign(a) XOR sign(b)). Linear in the element
    width, like Table I's 3n + 6.
    """
    width = _resolve_width(chain, width)
    carry = int(MetaRow.CARRY)
    flag = int(MetaRow.FLAG)
    chain.update_bit_parallel(carry, 0, use_tags=False)
    chain.update_row_full(0, vd, 0)
    _borrow_chain(chain, vs1, vs2, width)
    m = width % chain.num_subarrays
    if signed:
        # flip = sign(a) XOR sign(b), landed in subarray m's tags.
        chain.search_accumulate_next(width - 1, {vs1: 1, vs2: 0}, accumulate=False)
        chain.search_accumulate_next(width - 1, {vs1: 0, vs2: 1})
        chain.update_row_full(m, flag, 0)
        chain.update_next(width - 1, flag, 1)
        # lt = borrow XOR flip.
        chain.search(m, {carry: 1, flag: 0})
        chain.search(m, {carry: 0, flag: 1}, accumulate=True)
    else:
        chain.search(m, {carry: 1})
    _walk_tags_to_zero(chain, m)
    chain.update(0, vd, 1)


def vmsltu_vv(
    chain: Chain,
    vd: int,
    vs1: int,
    vs2: int,
    width: Optional[int] = None,
) -> None:
    """``vmsltu.vv`` — unsigned less-than (borrow chain, no sign fixup)."""
    vmslt_vv(chain, vd, vs1, vs2, width, signed=False)


# ---------------------------------------------------------------------------
# Merge (select)
# ---------------------------------------------------------------------------

def vmerge_vvm(
    chain: Chain,
    vd: int,
    vs1: int,
    vs2: int,
    vm: int = 0,
) -> None:
    """``vmerge.vvm vd, vs1, vs2, v0`` — vd = mask ? vs1 : vs2.

    After the mask broadcast, four bit-parallel search-update pairs cover
    the truth table {(m=1, a), (m=0, b)} for both bit polarities.
    """
    _require_not_aliased("vmerge.vvm", vd, vs1, vs2)
    mask_row = int(MetaRow.MASK)
    broadcast_mask(chain, vm)
    cases = (
        ({mask_row: 1, vs1: 1}, 1),
        ({mask_row: 1, vs1: 0}, 0),
        ({mask_row: 0, vs2: 1}, 1),
        ({mask_row: 0, vs2: 0}, 0),
    )
    for key, value in cases:
        chain.search_bit_parallel([key] * chain.num_subarrays)
        chain.update_bit_parallel(vd, value, use_tags=True)


# ---------------------------------------------------------------------------
# Shifts (controller-assisted element rewrite)
# ---------------------------------------------------------------------------

def _shift(chain: Chain, vd: int, vs1: int, width: int, source) -> None:
    """Shift via the controller's element rewrite path.

    Reads and writes access one (row, column) bitcell of *all* subarrays
    at once (a whole element, Section VI-A), so the chain controller can
    rewrite a register column-by-column: 2 x num_cols microoperations for
    any shift amount — cheaper than walking the tag-routing network once
    per position. Result bit ``i`` is source bit ``source(i)``, or 0
    where that falls outside ``[0, width)`` or ``i`` does; on bit-sliced
    storage that is a move of bit-planes (:meth:`Chain.move_planes`).
    """
    chain.move_planes(vd, vs1, tuple(
        source(i) if i < width and 0 <= source(i) < width else None
        for i in range(chain.num_subarrays)
    ))


def vsll_vi(chain: Chain, vd: int, vs1: int, shamt: int, width: Optional[int] = None) -> None:
    """``vsll.vi vd, vs1, shamt`` — logical shift left by an immediate."""
    width = _resolve_width(chain, width)
    _check_shamt(shamt, width)
    _shift(chain, vd, vs1, width, lambda i: i - shamt)


def vsrl_vi(chain: Chain, vd: int, vs1: int, shamt: int, width: Optional[int] = None) -> None:
    """``vsrl.vi vd, vs1, shamt`` — logical shift right by an immediate."""
    width = _resolve_width(chain, width)
    _check_shamt(shamt, width)
    _shift(chain, vd, vs1, width, lambda i: i + shamt)


def vsra_vi(chain: Chain, vd: int, vs1: int, shamt: int, width: Optional[int] = None) -> None:
    """``vsra.vi vd, vs1, shamt`` — arithmetic shift right by an immediate
    (the sign plane fills the vacated high bits)."""
    width = _resolve_width(chain, width)
    _check_shamt(shamt, width)
    _shift(chain, vd, vs1, width, lambda i: min(i + shamt, width - 1))


def _check_shamt(shamt: int, width: int) -> None:
    if not 0 <= shamt < width:
        raise ConfigError(f"shift amount {shamt} outside [0, {width})")


# ---------------------------------------------------------------------------
# Min / max (compare + merge composition)
# ---------------------------------------------------------------------------

def _merge_core(chain: Chain, vd: int, vs1: int, vs2: int) -> None:
    """The four bit-parallel merge cases, assuming MASK rows are loaded.

    Safe when ``vd`` aliases either source: the aliasing cases degenerate
    to writes of the bit value already stored.
    """
    mask_row = int(MetaRow.MASK)
    cases = (
        ({mask_row: 1, vs1: 1}, 1),
        ({mask_row: 1, vs1: 0}, 0),
        ({mask_row: 0, vs2: 1}, 1),
        ({mask_row: 0, vs2: 0}, 0),
    )
    for key, value in cases:
        chain.search_bit_parallel([key] * chain.num_subarrays)
        chain.update_bit_parallel(vd, value, use_tags=True)


def _minmax(
    chain: Chain,
    vd: int,
    vs1: int,
    vs2: int,
    width: Optional[int],
    signed: bool,
    take_smaller: bool,
) -> None:
    """min/max = a compare into the SCRATCH mask plus a merge.

    The sequencer keeps the compare outcome in the SCRATCH metadata row
    (vmslt's internal rows are CARRY and FLAG, so SCRATCH is free),
    broadcasts it into the MASK rows, and merges.
    """
    width = _resolve_width(chain, width)
    scratch = int(MetaRow.SCRATCH)
    vmslt_vv(chain, scratch, vs1, vs2, width, signed=signed)
    # Broadcast the mask bit (bit 0 of the scratch row) into MASK rows.
    chain.update_bit_parallel(int(MetaRow.MASK), 0, use_tags=False)
    tags = chain.search(0, {scratch: 1})
    chain.update_bit_parallel_select(int(MetaRow.MASK), 1, tags)
    if take_smaller:
        _merge_core(chain, vd, vs1, vs2)   # a < b ? a : b
    else:
        _merge_core(chain, vd, vs2, vs1)   # a < b ? b : a


def vmin_vv(chain, vd, vs1, vs2, width=None):
    """``vmin.vv`` — signed element-wise minimum."""
    _minmax(chain, vd, vs1, vs2, width, signed=True, take_smaller=True)


def vmax_vv(chain, vd, vs1, vs2, width=None):
    """``vmax.vv`` — signed element-wise maximum."""
    _minmax(chain, vd, vs1, vs2, width, signed=True, take_smaller=False)


def vminu_vv(chain, vd, vs1, vs2, width=None):
    """``vminu.vv`` — unsigned element-wise minimum."""
    _minmax(chain, vd, vs1, vs2, width, signed=False, take_smaller=True)


def vmaxu_vv(chain, vd, vs1, vs2, width=None):
    """``vmaxu.vv`` — unsigned element-wise maximum."""
    _minmax(chain, vd, vs1, vs2, width, signed=False, take_smaller=False)


# ---------------------------------------------------------------------------
# Additional compares / reverse subtract
# ---------------------------------------------------------------------------

def vmsne_vv(
    chain: Chain,
    vd: int,
    vs1: int,
    vs2: int,
    width: Optional[int] = None,
) -> None:
    """``vmsne.vv`` — inequality mask (vmseq with inverted polarity)."""
    width = _resolve_width(chain, width)
    chain.update_row_full(0, vd, 0)
    keys1 = [{vs1: 1, vs2: 0}] * chain.num_subarrays
    keys2 = [{vs1: 0, vs2: 1}] * chain.num_subarrays
    chain.search_bit_parallel(keys1)
    chain.search_bit_parallel(keys2, accumulate=True)
    mismatch = chain.combine_tags_serial_or(limit=width)
    chain.set_tags(0, mismatch)
    chain.update(0, vd, 1)


def vrsub_vx(
    chain: Chain,
    vd: int,
    vs1: int,
    scalar: int,
    width: Optional[int] = None,
) -> None:
    """``vrsub.vx vd, vs1, rs1`` — reverse subtract: vd = scalar - vs1.

    The sequencer broadcasts the scalar into the SCRATCH row (one
    bit-parallel update) and runs the subtract truth-table walk with
    SCRATCH as the minuend.
    """
    width = _resolve_width(chain, width)
    scratch = int(MetaRow.SCRATCH)
    bits = [(scalar >> i) & 1 for i in range(chain.num_subarrays)]
    chain.update_bit_parallel_values(scratch, bits, use_tags=False)
    if vd == vs1:
        # SCRATCH is the minuend, so the in-place spill path is taken by
        # computing into the destination through a fresh walk: use the
        # MASK row as the temporary destination.
        tmp = int(MetaRow.MASK)
        _add_core(chain, tmp, scratch, vs1, width, masked=False, borrow=True)
        _copy_register(chain, vd, tmp)
    else:
        _add_core(chain, vd, scratch, vs1, width, masked=False, borrow=True)


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def vredsum_partial(chain: Chain, vs1: int, width: Optional[int] = None) -> int:
    """``vredsum.vs`` — this chain's partial sum (Figure 6 echo/pop-count).

    The global tree combines partials across chains; see ``CSB.redsum``.
    Elements are summed under their unsigned encoding, which is congruent
    to the signed sum modulo 2^width — the architected destination value.
    """
    width = _resolve_width(chain, width)
    return chain.redsum(vs1, width)


# ---------------------------------------------------------------------------
# Figure 1 walkthrough: associative increment on a raw subarray
# ---------------------------------------------------------------------------

def increment_figure1(subarray: Subarray, bit_rows, carry_row: int) -> None:
    """The paper's Figure 1: vector increment as search-update pairs.

    Operates in the classic CAPP single-array layout (rows = bits of each
    element plus a carry row, columns = elements). Per bit, LSB first:

    1. search (bit=0, carry=1) -> update bit<-1, carry<-0
    2. search (bit=1, carry=1) -> update bit<-0 (carry stays 1)

    The carry row is bulk-initialised to 1 (the "+1" being added).
    """
    all_cols = np.ones(subarray.num_cols, dtype=np.uint8)
    subarray.update(carry_row, 1, column_select=all_cols)
    for row in bit_rows:
        tags = subarray.search({row: 0, carry_row: 1})
        subarray.update(row, 1, column_select=tags)
        subarray.update(carry_row, 0, column_select=tags)
        tags = subarray.search({row: 1, carry_row: 1})
        subarray.update(row, 0, column_select=tags)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _require_not_aliased(name: str, vd: int, *sources: int) -> None:
    if vd in sources:
        raise ConfigError(f"{name} does not support vd aliasing a source")


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry entry tying a mnemonic to its microcode and Table I row.

    Attributes:
        mnemonic: RISC-V vector instruction name (e.g. ``vadd.vv``).
        category: Table I grouping (Arith. / Logic / Comp. / Other).
        func: the microcode routine (chain-level callable).
        tt_entries: truth-table entry count reported in Table I.
        search_rows: maximum rows active during a search.
        update_rows: maximum rows written per subarray during an update.
        paper_cycles: closed-form total cycle count from Table I, as a
            function of the element width n.
        reduction_cycles: closed-form reduction cycles (0 or n).
        paper_energy_pj: per-lane energy reported in Table I at n=32.
        bit_parallel: True when execution is bit-parallel (cycle count
            independent of the element width).
    """

    mnemonic: str
    category: str
    func: Callable
    tt_entries: int
    search_rows: int
    update_rows: int
    paper_cycles: Callable[[int], int]
    reduction_cycles: Callable[[int], int]
    paper_energy_pj: float
    bit_parallel: bool = False


ALGORITHMS: Dict[str, AlgorithmInfo] = {
    info.mnemonic: info
    for info in (
        AlgorithmInfo(
            "vadd.vv", "Arith.", vadd_vv, 5, 3, 1,
            lambda n: 8 * n + 2, lambda n: 0, 8.4,
        ),
        AlgorithmInfo(
            "vsub.vv", "Arith.", vsub_vv, 5, 3, 1,
            lambda n: 8 * n + 2, lambda n: 0, 8.4,
        ),
        AlgorithmInfo(
            "vmul.vv", "Arith.", vmul_vv, 4, 4, 1,
            lambda n: 4 * n * n - 4 * n, lambda n: 0, 99.9,
        ),
        AlgorithmInfo(
            "vredsum.vs", "Arith.", vredsum_partial, 1, 1, 0,
            lambda n: n, lambda n: n, 0.4,
        ),
        AlgorithmInfo(
            "vand.vv", "Logic", vand_vv, 1, 2, 1,
            lambda n: 3, lambda n: 0, 0.4, bit_parallel=True,
        ),
        AlgorithmInfo(
            "vor.vv", "Logic", vor_vv, 1, 2, 1,
            lambda n: 3, lambda n: 0, 0.4, bit_parallel=True,
        ),
        AlgorithmInfo(
            "vxor.vv", "Logic", vxor_vv, 2, 2, 1,
            lambda n: 4, lambda n: 0, 0.5, bit_parallel=True,
        ),
        AlgorithmInfo(
            "vmseq.vx", "Comp.", vmseq_vx, 1, 1, 0,
            lambda n: n + 1, lambda n: n, 0.4,
        ),
        AlgorithmInfo(
            "vmseq.vv", "Comp.", vmseq_vv, 2, 2, 1,
            lambda n: n + 4, lambda n: n, 0.5,
        ),
        AlgorithmInfo(
            "vmslt.vv", "Comp.", vmslt_vv, 5, 2, 1,
            lambda n: 3 * n + 6, lambda n: 0, 3.2,
        ),
        AlgorithmInfo(
            "vmerge.vv", "Other", vmerge_vvm, 4, 3, 1,
            lambda n: 4, lambda n: 0, 0.5, bit_parallel=True,
        ),
        # Instructions beyond Table I's illustrative subset; their cycle
        # forms come from our measured microcode (documented in
        # EXPERIMENTS.md).
        AlgorithmInfo(
            "vadd.vx", "Arith.", vadd_vx, 3, 2, 1,
            lambda n: 5 * n + 2, lambda n: 0, 5.0,
        ),
        AlgorithmInfo(
            "vmsltu.vv", "Comp.", vmsltu_vv, 3, 2, 1,
            lambda n: 4 * n + 4, lambda n: 0, 3.2,
        ),
        AlgorithmInfo(
            "vmv.v.v", "Other", vmv_vv, 1, 1, 1,
            lambda n: 3, lambda n: 0, 0.4, bit_parallel=True,
        ),
        AlgorithmInfo(
            "vmv.v.x", "Other", vmv_vx, 1, 0, 1,
            lambda n: 1, lambda n: 0, 0.2, bit_parallel=True,
        ),
        # Shifts use the controller's element read-modify-write path:
        # two microops per column regardless of the shift amount.
        AlgorithmInfo(
            "vsll.vi", "Arith.", vsll_vi, 0, 0, 0,
            lambda n: 64, lambda n: 0, 5.2,
        ),
        AlgorithmInfo(
            "vsrl.vi", "Arith.", vsrl_vi, 0, 0, 0,
            lambda n: 64, lambda n: 0, 5.2,
        ),
        AlgorithmInfo(
            "vsra.vi", "Arith.", vsra_vi, 0, 0, 0,
            lambda n: 64, lambda n: 0, 5.2,
        ),
        # Min/max compose the borrow-chain compare with a merge pass.
        AlgorithmInfo(
            "vmin.vv", "Arith.", vmin_vv, 8, 2, 1,
            lambda n: 3 * n + 17, lambda n: 0, 4.5,
        ),
        AlgorithmInfo(
            "vmax.vv", "Arith.", vmax_vv, 8, 2, 1,
            lambda n: 3 * n + 17, lambda n: 0, 4.5,
        ),
        AlgorithmInfo(
            "vminu.vv", "Arith.", vminu_vv, 8, 2, 1,
            lambda n: 3 * n + 15, lambda n: 0, 4.5,
        ),
        AlgorithmInfo(
            "vmaxu.vv", "Arith.", vmaxu_vv, 8, 2, 1,
            lambda n: 3 * n + 15, lambda n: 0, 4.5,
        ),
        AlgorithmInfo(
            "vmsne.vv", "Comp.", vmsne_vv, 2, 2, 1,
            lambda n: n + 4, lambda n: n, 0.5,
        ),
        AlgorithmInfo(
            "vrsub.vx", "Arith.", vrsub_vx, 5, 3, 1,
            lambda n: 8 * n + 3, lambda n: 0, 8.5,
        ),
    )
}
