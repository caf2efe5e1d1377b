"""Packed bit planes: the one lowered kernel set behind every plan replay.

A lowered :class:`Program` runs on *packed planes*: each ``(subarray,
row)`` bit plane of a :class:`~repro.csb.bitplane.BitplaneBackend`, and
each subarray's tag row, is one Python int whose bit ``c`` is column
``c``. A search is then a few word-wide ANDs and an update one masked OR
or AND-NOT, whatever the column count — the bulk-bitwise mapping of
associative microoperations used by DRAMA and the FPGA CAM processors,
with Python's arbitrary-width ints as the machine word.

:func:`run_program` is the single replay routine for per-instruction
plans, fused superplans and stacked gang replay: it packs the rows the
program touches (one ``np.packbits`` call), runs the kernels, and writes
back only the rows and tag registers the program wrote. The backend's
``(S, R, C)`` uint8 storage is unchanged, so everything that reads it
between replays (syncs, validation, host peeks, fault hooks) is too.

Exactness: 0/1 uint8 lanes and int bits obey the same Boolean algebra,
and no kernel ever sets a bit at or above ``C``: the active window ``A``
and every packed plane are at most ``F = 2**C - 1``, and every
complement is written ``F ^ x`` or ``m & ~x`` with ``m <= F``.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.plan.recorder import NUM_ROWS, Token

#: Largest row union a batched search group may compile into one
#: lookup-table expression (real microcode unions stay at <= 4 rows).
MAX_LUT_ROWS = 10


def _slot(sub: int, row: int) -> int:
    """Index of plane ``(sub, row)`` in the packed-plane list."""
    return sub * NUM_ROWS + row


def _row_slots(row: int, num_subarrays: int) -> Tuple[int, ...]:
    """The slots of one row across every subarray."""
    return tuple(_slot(sub, row) for sub in range(num_subarrays))


def pack_bits(bits) -> int:
    """One 0/1 column vector as an int (bit ``c`` = column ``c``)."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _pack_rows(array: np.ndarray, nbytes: int) -> List[int]:
    """Every last-axis row of a 0/1 array as an int, in C order."""
    buf = np.packbits(array, axis=-1, bitorder="little").tobytes()
    return [
        int.from_bytes(buf[i:i + nbytes], "little")
        for i in range(0, len(buf), nbytes)
    ]


def _unpack_rows(values, shape, num_cols: int, nbytes: int) -> np.ndarray:
    """Inverse of :func:`_pack_rows`: ints back to a 0/1 array."""
    buf = b"".join([v.to_bytes(nbytes, "little") for v in values])
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(*shape, nbytes)
    return np.unpackbits(packed, axis=-1, count=num_cols, bitorder="little")


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
    """One replay: packed planes ``P``, tags ``T``, window ``A`` (and its
    complement ``NA``, only ever ANDed into a bounded plane), all-ones
    ``F``, the token environment, and the backend it writes back to."""

    __slots__ = ("P", "T", "A", "NA", "F", "env", "rmw", "_program",
                 "_backend", "_nbytes")

    def __init__(self, program: "Program", backend, active: int, rmw) -> None:
        num_cols = backend.num_cols
        self.F = (1 << num_cols) - 1
        self.A = active
        self.NA = ~active
        self.env = [None] * program.num_tokens
        self.rmw = rmw
        self._program = program
        self._backend = backend
        self._nbytes = (num_cols + 7) >> 3
        self.P = [0] * (program.num_subarrays * NUM_ROWS)
        self.T = [0] * program.num_subarrays
        self.load(program.rows, program.in_slots)
        if program.tags:
            tags = _pack_rows(backend.tags[program.tags, :], self._nbytes)
            for sub, value in zip(program.tags, tags):
                self.T[sub] = value

    def load(self, rows, slots) -> None:
        """Pack ``rows`` of every subarray into their slots."""
        if rows:
            planes = _pack_rows(self._backend.bits[:, rows, :], self._nbytes)
            P = self.P
            for i, value in zip(slots, planes):
                P[i] = value

    def store(self) -> None:
        """Write the rows and tag registers the program writes back."""
        program, backend = self._program, self._backend
        num_cols, nbytes = backend.num_cols, self._nbytes
        rows = program.rows_out
        if rows:
            P = self.P
            backend.bits[:, rows, :] = _unpack_rows(
                [P[i] for i in program.out_slots],
                (program.num_subarrays, len(rows)), num_cols, nbytes,
            )
        tags = program.tags_out
        if tags:
            T = self.T
            backend.tags[tags, :] = _unpack_rows(
                [T[sub] for sub in tags], (len(tags),), num_cols, nbytes
            )

    def value(self, operand) -> int:
        """A token's packed value, or a literal column vector packed."""
        if type(operand) is Token:
            return self.env[operand.index]
        operand = np.asarray(operand, dtype=np.uint8)
        if operand.shape != (self._backend.num_cols,):
            raise ConfigError(
                f"column vector expects {self._backend.num_cols} bits, "
                f"got {operand.shape}"
            )
        return pack_bits(operand & 1)


# ---------------------------------------------------------------------------
# Kernels. Each takes (payload, state) and leaves the packed state exactly
# as the corresponding Chain method leaves the backend (minus accounting,
# which the plan applies in bulk). Plane operands are slots (see _slot()).
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
    slots, value, select = p
    select = st.value(select) & st.A
    P = st.P
    if value:
        for i in slots:
            P[i] |= select
    else:
        keep = ~select
        for i in slots:
            P[i] &= keep


def _k_set_tags(p, st: _State) -> None:
    sub, tags = p
    st.T[sub] = st.value(tags)


def _k_clear_tags(p, st: _State) -> None:
    st.T = [0] * len(st.T)


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


def _k_rmw(p, st: _State) -> None:
    """The shifts' element rewrite: a barrier through the backend."""
    vd, vs1, fn, width = p
    st.store()
    st.rmw(vd, vs1, fn, width)
    st.load([vd], _row_slots(vd, st._program.num_subarrays))


def _k_new_env(p, st: _State) -> None:
    """Instruction boundary in a fused stream: fresh token environment."""
    st.env = [None] * p


def effects(fn, p, num_subarrays: int) -> Tuple[tuple, tuple, tuple, tuple]:
    """``(planes read, planes written, tags read, tags written)`` of one
    kernel; planes as slots, tags as subarray indices."""
    every = range(num_subarrays)
    if fn is _k_search:
        dest, head, pos, neg, accumulate = p[:5]
        return _reads(head, pos, neg), (), (dest,) if accumulate else (), \
            (dest,)
    if fn is _k_lut:
        return p[1], (), (), (p[0],)
    if fn is _k_search_bp:
        terms, accumulate = p[:2]
        reads = tuple(i for term in terms for i in _reads(*term))
        return reads, (), every if accumulate else (), every
    if fn is _k_update:
        return (p[0],), (p[0],), (p[1],), ()
    if fn is _k_update_prop:
        return (p[0], p[3]), (p[0], p[3]), (p[1], p[4]), ()
    if fn is _k_update_full:
        return (p[0],), (p[0],), (), ()
    if fn is _k_update_bp:
        return p[0], p[0], every if p[2] else (), ()
    if fn is _k_update_bp_select:
        return p[0], p[0], (), ()
    if fn is _k_set_tags:
        return (), (), (), (p[0],)
    if fn is _k_clear_tags:
        return (), (), (), every
    if fn is _k_combine_and or fn is _k_combine_or:
        return (), (), range(p[0]), ()
    if fn is _k_redsum_step:
        return (p[1],), (), (), (p[0],)
    if fn is _k_rmw:
        vd, vs1 = p[:2]
        dst = _row_slots(vd, num_subarrays)
        return _row_slots(vs1, num_subarrays) + dst, dst, (), ()
    if fn is _k_new_env:
        return (), (), (), ()
    raise AssertionError(f"unknown kernel {fn!r}")  # pragma: no cover


def new_env(num_tokens: int) -> tuple:
    """Kernel opening a fresh token environment (instruction boundary)."""
    return (_k_new_env, num_tokens)


class Program:
    """A lowered kernel stream plus the planes and tags it touches.

    The row set (packed on entry), the written-row set (written back on
    exit) and the tag sets are derived once here from the kernels'
    :func:`effects`, so replay never rediscovers them.
    """

    __slots__ = ("kernels", "num_subarrays", "num_tokens", "rows",
                 "rows_out", "in_slots", "out_slots", "tags", "tags_out")

    def __init__(
        self, kernels: Sequence[tuple], num_subarrays: int, num_tokens: int
    ) -> None:
        self.kernels = tuple(kernels)
        self.num_subarrays = num_subarrays
        self.num_tokens = num_tokens
        planes, planes_out, tags, tags_out = set(), set(), set(), set()
        for fn, p in self.kernels:
            reads, writes, tag_reads, tag_writes = effects(fn, p, num_subarrays)
            planes.update(reads)
            planes_out.update(writes)
            tags.update(tag_reads)
            tags_out.update(tag_writes)
        #: Every tag register the program touches is packed on entry, so
        #: a register written back always holds a defined value.
        tags |= tags_out
        subs = range(num_subarrays)
        self.rows = sorted({i % NUM_ROWS for i in planes | planes_out})
        self.rows_out = sorted({i % NUM_ROWS for i in planes_out})
        self.in_slots = tuple(_slot(s, r) for s in subs for r in self.rows)
        self.out_slots = tuple(_slot(s, r) for s in subs for r in self.rows_out)
        self.tags = sorted(tags)
        self.tags_out = sorted(tags_out)


def run_program(program: Program, backend, active: int, rmw) -> list:
    """Replay ``program`` on a plain bit-plane backend; returns the token
    environment.

    ``active`` is the packed active window (:func:`pack_bits`); ``rmw``
    is called as ``rmw(vd, vs1, fn, width)`` for the shifts' element
    rewrite after the packed state is written back, and must apply the
    rewrite (and its dynamic charges) to the backend.
    """
    st = _State(program, backend, active, rmw)
    for fn, p in program.kernels:
        fn(p, st)
    st.store()
    return st.env


def _terms(sub: int, key: dict) -> Tuple[Optional[int], tuple, tuple]:
    """A search key as ``(head, pos, neg)``: the slots it drives to 1 —
    the first as ``head`` (``None`` if there is none), which seeds the
    match, the rest as ``pos`` — and the slots it drives to 0."""
    pos = sorted(_slot(sub, row) for row, want in key.items() if want)
    neg = tuple(sorted(_slot(sub, row) for row, want in key.items() if not want))
    return (pos[0] if pos else None), tuple(pos[1:]), neg


def _reads(head: Optional[int], pos: tuple, neg: tuple) -> tuple:
    """The slots a ``(head, pos, neg)`` search term reads."""
    return (() if head is None else (head,)) + pos + neg


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


def lower(steps, consumed, num_subarrays: int, num_tokens: int) -> Program:
    """Translate a recorded step stream into packed-plane kernels.

    Consecutive accumulate-search runs over one subarray compile into a
    single lookup-table expression; token outputs nobody ``consumed``
    are dropped.
    """
    S = num_subarrays
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

    for method, args, out in steps:
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
                (_k_update_bp_select, (_row_slots(row, S), value, select))
            )
        elif method == "set_tags":
            kernels.append((_k_set_tags, args))
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
        elif method == "rmw_register":
            kernels.append((_k_rmw, args))
        else:  # pragma: no cover - recorder and plan must stay in sync
            raise AssertionError(f"unloweable step {method!r}")
    flush()
    return Program(kernels, S, num_tokens)

