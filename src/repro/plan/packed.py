"""Packed bit planes: the one lowered kernel set behind every plan replay.

A lowered :class:`Program` runs on the packed planes that are a
:class:`~repro.csb.bitplane.BitplaneBackend`'s storage: each
``(subarray, row)`` bit plane, and each subarray's tag row, is one
Python int whose bit ``c`` is column ``c``. A search is then a few
word-wide ANDs and an update one masked OR or AND-NOT, whatever the
column count — the bulk-bitwise mapping of associative microoperations
used by DRAMA and the FPGA CAM processors, with Python's arbitrary-width
ints as the machine word.

:func:`run_program` is the single replay routine for per-instruction
plans, fused superplans and stacked gang replay: it runs the kernels on
the backend's plane and tag lists in place. Nothing is packed on entry
or unpacked on exit, so what reads the backend between replays (syncs,
validation, host peeks, fault hooks) sees every write at once.

A :class:`Program` is plain data. Every kernel, the shifts' element
rewrite included (a move of bit-planes), is an int operation on packed
planes whose payload holds slots (:func:`~repro.csb.bitplane.slot`),
constants and token indices, so :func:`run_program` is a pure loop that
calls nothing back; and every replay charges by one rule,
:meth:`Program.charges_over`.

Exactness: 0/1 lanes and int bits obey the same Boolean algebra, and
the kernels keep the backend's storage invariant — no kernel sets a bit
at or above ``C``: the active window ``A`` and every plane are at most
``F = 2**C - 1``, and every complement is written ``F ^ x`` or
``m & ~x`` with ``m <= F``.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.csb.bitplane import slot as _slot

#: Largest row union a batched search group may compile into one
#: lookup-table expression (real microcode unions stay at <= 4 rows).
MAX_LUT_ROWS = 10


def _row_slots(row: int, num_subarrays: int) -> Tuple[int, ...]:
    """The slots of one row across every subarray."""
    return tuple(_slot(sub, row) for sub in range(num_subarrays))


# ---------------------------------------------------------------------------
# Lookup-table groups as bitwise expressions
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def lut_expression(k: int, table: int) -> str:
    """A bitwise expression equal to a ``k``-input truth table.

    Bit ``i`` of ``table`` is the output for the input assignment whose
    bit ``j`` is input ``j``. The expression names input ``j`` as
    ``{j}`` (a :meth:`str.format` field) and the all-ones plane as
    ``F``; it is built by Shannon decomposition on the highest input,
    folding constant cofactors and complementary cofactors into
    AND/OR/XOR, and it never complements except as ``F ^ x`` or
    ``m & ~x`` with ``m`` itself bounded — so on inputs below ``F`` the
    value stays below ``F``.
    """
    if k < 0 or not 0 <= table < 1 << (1 << k):
        raise ConfigError(f"table {table:#x} is not a {k}-input truth table")
    if table == 0:
        return "0"
    if table == (1 << (1 << k)) - 1:
        return "F"
    half = 1 << (k - 1)
    ones = (1 << half) - 1
    lo, hi = table & ones, table >> half
    if lo == hi:
        return lut_expression(k - 1, lo)
    v = "{%d}" % (k - 1)
    e0, e1 = lut_expression(k - 1, lo), lut_expression(k - 1, hi)
    if e0 == "0":
        return v if e1 == "F" else f"({v} & {e1})"
    if e1 == "0":
        return f"(F ^ {v})" if e0 == "F" else f"({e0} & ~{v})"
    if e1 == "F":
        return f"({v} | {e0})"
    if e0 == "F":
        return f"({e1} | (F ^ {v}))"
    if hi == lo ^ ones:
        return f"({v} ^ {e0})"
    return f"(({v} & {e1}) | ({e0} & ~{v}))"


@functools.lru_cache(maxsize=None)
def compile_lut(k: int, table: int, slots: Tuple[int, ...]) -> Callable:
    """``fn(P, F)``: :func:`lut_expression` with input ``j`` read from
    ``P[slots[j]]``, compiled once per table and slot binding."""
    expr = lut_expression(k, table).format(*[f"P[{s}]" for s in slots])
    return eval(f"lambda P, F: {expr}")


@functools.lru_cache(maxsize=None)
def _lut_table(rows: Tuple[int, ...], keys: Tuple[tuple, ...]) -> int:
    """The truth table over ``rows`` (input ``j`` = ``rows[j]``) that is 1
    wherever any search key (a tuple of ``(row, want)`` items) of an
    accumulating group matches."""
    table = 0
    for key in keys:
        care = want = 0
        for row, bit in key:
            j = rows.index(row)
            care |= 1 << j
            want |= bit << j
        for index in range(1 << len(rows)):
            if index & care == want:
                table |= 1 << index
    return table


# ---------------------------------------------------------------------------
# Replay state
# ---------------------------------------------------------------------------


class _State:
    """One replay: the backend's planes ``P`` and tags ``T`` (its own
    lists, mutated in place), window ``A`` (and its complement ``NA``,
    only ever ANDed into a bounded plane), all-ones ``F``, and the token
    environment."""

    __slots__ = ("P", "T", "A", "NA", "F", "env")

    def __init__(self, program: "Program", backend, active: int) -> None:
        self.P = backend.planes
        self.T = backend.tags
        self.F = backend.full
        self.A = active
        self.NA = ~active
        self.env = [None] * program.num_tokens


# ---------------------------------------------------------------------------
# Kernels. Each takes (payload, state) and leaves the backend's planes and
# tags exactly as the corresponding Chain method leaves them (minus
# accounting, applied in bulk by Program.charges_over). Plane operands are
# slots; column operands are token indices into the environment.
# ---------------------------------------------------------------------------


def _k_search(p, st: _State) -> None:
    dest, head, pos, neg, accumulate, out, routed = p
    P = st.P
    match = st.F if head is None else P[head]
    for i in pos:
        match &= P[i]
    for i in neg:
        match &= ~P[i]
    T = st.T
    if accumulate:
        T[dest] |= match
    else:
        T[dest] = match
    if out is not None:
        st.env[out] = match if routed else T[dest]


def _k_lut(p, st: _State) -> None:
    st.T[p[0]] = p[2](st.P, st.F)


def _k_search_bp(p, st: _State) -> None:
    terms, accumulate, out = p
    P, T, F = st.P, st.T, st.F
    for sub, (head, pos, neg) in enumerate(terms):
        match = F if head is None else P[head]
        for i in pos:
            match &= P[i]
        for i in neg:
            match &= ~P[i]
        T[sub] = T[sub] | match if accumulate else match
    if out is not None:
        st.env[out] = tuple(T)


def _k_update(p, st: _State) -> None:
    i, sub, value = p
    select = st.T[sub] & st.A
    if value:
        st.P[i] |= select
    else:
        st.P[i] &= ~select


def _k_update_prop(p, st: _State) -> None:
    i, sub, value, j, nxt, next_value = p
    P, T, A = st.P, st.T, st.A
    here = T[sub] & A
    there = T[nxt] & A
    if value:
        P[i] |= here
    else:
        P[i] &= ~here
    if next_value:
        P[j] |= there
    else:
        P[j] &= ~there


def _k_update_full(p, st: _State) -> None:
    i, value = p
    if value:
        st.P[i] |= st.A
    else:
        st.P[i] &= st.NA


def _k_update_bp(p, st: _State) -> None:
    slots, values, use_tags = p
    P, A = st.P, st.A
    if use_tags:
        T = st.T
        for sub, i in enumerate(slots):
            select = T[sub] & A
            P[i] = P[i] | select if values[sub] else P[i] & ~select
    else:
        NA = st.NA
        for sub, i in enumerate(slots):
            P[i] = P[i] | A if values[sub] else P[i] & NA


def _k_update_bp_select(p, st: _State) -> None:
    slots, value, token = p
    select = st.env[token] & st.A
    P = st.P
    if value:
        for i in slots:
            P[i] |= select
    else:
        keep = ~select
        for i in slots:
            P[i] &= keep


def _k_set_tags(p, st: _State) -> None:
    sub, token = p
    st.T[sub] = st.env[token]


def _k_clear_tags(p, st: _State) -> None:
    T = st.T
    T[:] = [0] * len(T)


def _k_combine_and(p, st: _State) -> None:
    limit, out = p
    combined = st.F
    T = st.T
    for sub in range(limit):
        combined &= T[sub]
    st.env[out] = combined


def _k_combine_or(p, st: _State) -> None:
    limit, out = p
    combined = 0
    T = st.T
    for sub in range(limit):
        combined |= T[sub]
    st.env[out] = combined


def _k_redsum_step(p, st: _State) -> None:
    sub, i, out = p
    plane = st.P[i]
    st.T[sub] = plane
    if out is not None:
        st.env[out] = (plane & st.A).bit_count()


def _k_move(p, st: _State) -> None:
    """The shifts' element rewrite: in the window, plane ``dst[i]`` takes
    plane ``src[i]`` (0 where it is ``None``); every source is read
    before any plane is written."""
    dst, src = p
    P, A, NA = st.P, st.A, st.NA
    moved = [0 if j is None else P[j] & A for j in src]
    for i, value in zip(dst, moved):
        P[i] = P[i] & NA | value


class Program:
    """A lowered kernel stream and what one replay charges."""

    __slots__ = ("kernels", "num_subarrays", "num_tokens", "charges",
                 "lane_charges")

    def __init__(
        self,
        kernels: Sequence[tuple],
        num_subarrays: int,
        num_tokens: int,
        charges: Mapping,
        lane_charges: Mapping,
    ) -> None:
        self.kernels = tuple(kernels)
        self.num_subarrays = num_subarrays
        self.num_tokens = num_tokens
        #: Microop charges keyed like ``MicroopStats.counts``: ``charges``
        #: once per replay, ``lane_charges`` once per active lane.
        self.charges = dict(charges)
        self.lane_charges = dict(lane_charges)

    def charges_over(self, lanes: int) -> Mapping:
        """What one replay over ``lanes`` active lanes charges — the rule
        every lowered replay charges by."""
        if not (lanes and self.lane_charges):
            return self.charges
        total = Counter(self.charges)
        for key, n in self.lane_charges.items():
            total[key] += n * lanes
        return total


def run_program(program: Program, backend, active: int) -> list:
    """Replay ``program`` in place on a plain bit-plane backend's planes
    and tags; returns the token environment.

    ``active`` is the packed active window
    (:func:`~repro.csb.bitplane.pack_bits`). Charging is the caller's,
    by :meth:`Program.charges_over`.
    """
    st = _State(program, backend, active)
    for fn, p in program.kernels:
        fn(p, st)
    return st.env


def _terms(sub: int, key: dict) -> Tuple[Optional[int], tuple, tuple]:
    """A search key as ``(head, pos, neg)``: the slots it drives to 1 —
    the first as ``head`` (``None`` if there is none), which seeds the
    match, the rest as ``pos`` — and the slots it drives to 0."""
    pos = sorted(_slot(sub, row) for row, want in key.items() if want)
    neg = tuple(sorted(_slot(sub, row) for row, want in key.items() if not want))
    return (pos[0] if pos else None), tuple(pos[1:]), neg


def _lower_search(sub: int, dest: int, key: dict, accumulate: bool,
                  out, routed: bool) -> tuple:
    """Kernel of one (possibly routed) search."""
    return (_k_search, (dest, *_terms(sub, key), accumulate, out,
                        routed and out is not None))


def _lower_lut(sub: int, dest: int, keys: Sequence[dict]) -> tuple:
    """Kernel of an accumulating search group over one subarray."""
    rows = tuple(sorted({row for key in keys for row in key}))
    table = _lut_table(rows, tuple(tuple(key.items()) for key in keys))
    slots = tuple(_slot(sub, row) for row in rows)
    return (_k_lut, (dest, slots, compile_lut(len(rows), table, slots)))


def lower(recorder, consumed) -> Program:
    """Translate a :class:`~repro.plan.recorder.RecordingChain`'s step
    stream into packed-plane kernels.

    Consecutive accumulate-search runs over one subarray compile into a
    single lookup-table expression; token outputs nobody ``consumed``
    are dropped; token operands become their indices.
    """
    S = recorder.num_subarrays
    kernels: List[Tuple] = []
    group: List[dict] = []   # search keys of the accumulating run
    group_rows: set = set()  # the rows those keys drive
    group_dest = group_src = None

    def flush() -> None:
        nonlocal group_dest, group_src
        if len(group) == 1:
            kernels.append(_lower_search(
                group_src, group_dest, group[0], False, None, False
            ))
        elif group:
            kernels.append(_lower_lut(group_src, group_dest, group))
        group.clear()
        group_rows.clear()
        group_dest = group_src = None

    for method, args, out in recorder.steps:
        out = out if (out is not None and out in consumed) else None
        if method in ("search", "search_accumulate_next"):
            sub, key, accumulate = args
            dest = sub if method == "search" else (sub + 1) % S
            if out is None:
                if group and accumulate and sub == group_src \
                        and dest == group_dest \
                        and len(group_rows.union(key)) <= MAX_LUT_ROWS:
                    group.append(key)
                    group_rows.update(key)
                    continue
                flush()
                if not accumulate:
                    group.append(key)
                    group_rows.update(key)
                    group_src, group_dest = sub, dest
                    continue
            flush()
            kernels.append(_lower_search(
                sub, dest, key, accumulate, out, method != "search"
            ))
            continue
        flush()
        if method == "search_bit_parallel":
            keys, accumulate = args
            terms = tuple(_terms(s, key) for s, key in enumerate(keys))
            kernels.append((_k_search_bp, (terms, accumulate, out)))
        elif method == "update":
            sub, row, value = args
            kernels.append((_k_update, (_slot(sub, row), sub, value)))
        elif method == "update_prop":
            sub, row, value, next_row, next_value = args
            nxt = (sub + 1) % S
            kernels.append((
                _k_update_prop,
                (_slot(sub, row), sub, value,
                 _slot(nxt, next_row), nxt, next_value),
            ))
        elif method == "update_next":
            sub, next_row, value = args
            nxt = (sub + 1) % S
            kernels.append((_k_update, (_slot(nxt, next_row), nxt, value)))
        elif method == "update_row_full":
            sub, row, value = args
            kernels.append((_k_update_full, (_slot(sub, row), value)))
        elif method == "update_bit_parallel":
            row, value, use_tags = args
            kernels.append((
                _k_update_bp,
                (_row_slots(row, S), (value,) * S, use_tags),
            ))
        elif method == "update_bit_parallel_values":
            row, values, use_tags = args
            kernels.append(
                (_k_update_bp, (_row_slots(row, S), values, use_tags))
            )
        elif method == "update_bit_parallel_select":
            row, value, select = args
            kernels.append(
                (_k_update_bp_select, (_row_slots(row, S), value, select.index))
            )
        elif method == "set_tags":
            sub, tags = args
            kernels.append((_k_set_tags, (sub, tags.index)))
        elif method == "clear_tags":
            kernels.append((_k_clear_tags, None))
        elif method in ("combine_tags_serial", "combine_tags_serial_or"):
            # Pure: an unconsumed combine leaves no state behind.
            if out is not None:
                fn = (_k_combine_and if method == "combine_tags_serial"
                      else _k_combine_or)
                kernels.append((fn, (args[0], out)))
        elif method == "redsum_step":
            sub, row = args
            kernels.append((_k_redsum_step, (sub, _slot(sub, row), out)))
        elif method == "move_planes":
            vd, vs1, sources = args
            kernels.append((_k_move, (
                _row_slots(vd, S),
                tuple(None if j is None else _slot(j, vs1) for j in sources),
            )))
        else:  # pragma: no cover - recorder and plan must stay in sync
            raise AssertionError(f"unloweable step {method!r}")
    flush()
    return Program(
        kernels, S, recorder.num_tokens, recorder.charges,
        recorder.lane_charges,
    )

