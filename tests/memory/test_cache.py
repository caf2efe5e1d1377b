"""Set-associative cache: hits, LRU, writebacks, MESI hooks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.memory.cache import Cache, MESIState


def test_first_access_misses_then_hits():
    cache = Cache(1024, assoc=2, line_bytes=64)
    hit, _ = cache.access(0x100, False)
    assert not hit
    hit, _ = cache.access(0x100, False)
    assert hit


def test_same_line_different_words_hit():
    cache = Cache(1024, assoc=2, line_bytes=64)
    cache.access(0x100, False)
    hit, _ = cache.access(0x13C, False)  # same 64B line
    assert hit


def test_lru_eviction_order():
    # 2-way, one set per way group: addresses mapping to the same set.
    cache = Cache(2 * 64, assoc=2, line_bytes=64)  # 1 set, 2 ways
    cache.access(0 * 64, False)
    cache.access(1 * 64, False)
    cache.access(0 * 64, False)       # refresh line 0
    cache.access(2 * 64, False)       # evicts line 1 (LRU)
    hit, _ = cache.access(0 * 64, False)
    assert hit
    hit, _ = cache.access(1 * 64, False)
    assert not hit


def test_dirty_eviction_reports_writeback():
    cache = Cache(2 * 64, assoc=2, line_bytes=64)
    cache.access(0, True)             # dirty
    cache.access(64, False)
    _, wb = cache.access(128, False)  # evicts dirty line 0
    assert wb == 0
    assert cache.stats.writebacks == 1


def test_clean_eviction_has_no_writeback():
    cache = Cache(2 * 64, assoc=2, line_bytes=64)
    cache.access(0, False)
    cache.access(64, False)
    _, wb = cache.access(128, False)
    assert wb is None


def test_write_sets_modified_state():
    cache = Cache(1024, assoc=2, line_bytes=64)
    cache.access(0x40, True)
    assert cache.lookup(0x40) == MESIState.MODIFIED
    cache2 = Cache(1024, assoc=2, line_bytes=64)
    cache2.access(0x40, False)
    assert cache2.lookup(0x40) == MESIState.EXCLUSIVE


def test_invalidate_via_set_state():
    cache = Cache(1024, assoc=2, line_bytes=64)
    cache.access(0x40, False)
    cache.set_state(0x40, MESIState.INVALID)
    assert cache.lookup(0x40) is None
    assert cache.stats.invalidations_received == 1
    hit, _ = cache.access(0x40, False)
    assert not hit


def test_flush_writes_back_dirty_lines():
    cache = Cache(1024, assoc=2, line_bytes=64)
    cache.access(0x00, True)
    cache.access(0x40, True)
    cache.access(0x80, False)
    assert cache.flush() == 2
    assert cache.flush() == 0  # idempotent


def test_occupancy_counts_valid_lines():
    cache = Cache(1024, assoc=2, line_bytes=64)
    for i in range(5):
        cache.access(i * 64, False)
    assert cache.occupancy == 5
    cache.set_state(0, MESIState.INVALID)
    assert cache.occupancy == 4


def test_geometry_validated():
    with pytest.raises(ConfigError):
        Cache(1000, assoc=3, line_bytes=64)  # not divisible
    with pytest.raises(ConfigError):
        Cache(0, assoc=1)


def test_miss_rate_statistic():
    cache = Cache(1024, assoc=2, line_bytes=64)
    cache.access(0, False)
    cache.access(0, False)
    assert cache.stats.miss_rate == pytest.approx(0.5)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 4095), min_size=1, max_size=200))
def test_occupancy_never_exceeds_capacity(addrs):
    cache = Cache(512, assoc=2, line_bytes=64)  # 8 lines total
    for addr in addrs:
        cache.access(addr, False)
    assert cache.occupancy <= 8


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**16), st.booleans()), min_size=1, max_size=300))
def test_accesses_equals_hits_plus_misses(ops):
    cache = Cache(2048, assoc=4, line_bytes=64)
    for addr, is_write in ops:
        cache.access(addr, is_write)
    assert cache.stats.accesses == len(ops)
    assert cache.stats.hits + cache.stats.misses == len(ops)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 2**14), min_size=1, max_size=100))
def test_rereferenced_address_always_hits_immediately(addrs):
    cache = Cache(4096, assoc=4, line_bytes=64)
    for addr in addrs:
        cache.access(addr, False)
        hit, _ = cache.access(addr, False)
        assert hit


class _MinTickCache:
    """Oracle: the min-tick LRU the ordered-dict sets replaced.

    Every line carries the tick of its last touch; a fill first drops
    the set's INVALID lines, then evicts the way with the smallest tick.
    """

    def __init__(self, size_bytes, assoc, line_bytes):
        self.assoc, self.line_bytes = assoc, line_bytes
        self.num_sets = size_bytes // (assoc * line_bytes)
        self.stats = {"hits": 0, "misses": 0, "evictions": 0,
                      "writebacks": 0, "invalidations_received": 0}
        self.sets = {}  # set -> tag -> [state, dirty, lru]
        self.tick = 0
        self.last_victim = None

    def _locate(self, addr):
        line_addr = addr // self.line_bytes
        return line_addr % self.num_sets, line_addr // self.num_sets

    def lookup(self, addr):
        set_idx, tag = self._locate(addr)
        line = self.sets.get(set_idx, {}).get(tag)
        if line and line[0] != MESIState.INVALID:
            return line[0]
        return None

    def access(self, addr, is_write):
        self.tick += 1
        set_idx, tag = self._locate(addr)
        lines = self.sets.setdefault(set_idx, {})
        line = lines.get(tag)
        if line is not None and line[0] != MESIState.INVALID:
            self.stats["hits"] += 1
            line[2] = self.tick
            if is_write:
                line[0], line[1] = MESIState.MODIFIED, True
            return True, None
        self.stats["misses"] += 1
        for t in [t for t, l in lines.items() if l[0] == MESIState.INVALID]:
            del lines[t]
        writeback = None
        self.last_victim = None
        if len(lines) >= self.assoc:
            victim_tag = min(lines, key=lambda t: lines[t][2])
            victim = lines.pop(victim_tag)
            self.stats["evictions"] += 1
            victim_addr = (victim_tag * self.num_sets + set_idx) * self.line_bytes
            self.last_victim = victim_addr
            if victim[1]:
                self.stats["writebacks"] += 1
                writeback = victim_addr
        state = MESIState.MODIFIED if is_write else MESIState.EXCLUSIVE
        lines[tag] = [state, is_write, self.tick]
        return False, writeback

    def set_state(self, addr, state):
        set_idx, tag = self._locate(addr)
        line = self.sets.get(set_idx, {}).get(tag)
        if line is None:
            return
        if state == MESIState.INVALID:
            self.stats["invalidations_received"] += 1
            line[1] = False
        line[0] = state

    def flush(self):
        count = 0
        for lines in self.sets.values():
            for line in lines.values():
                if line[1] and line[0] != MESIState.INVALID:
                    count += 1
                    line[1] = False
                    if line[0] == MESIState.MODIFIED:
                        line[0] = MESIState.EXCLUSIVE
        self.stats["writebacks"] += count
        return count


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(1, 16), (2, 16), (4, 16), (2, 64), (4, 32), (1, 64)]),
    st.integers(1, 4),
    st.data(),
)
def test_lru_matches_min_tick_oracle(geometry, num_sets, data):
    assoc, line_bytes = geometry
    size = num_sets * assoc * line_bytes
    # Twice as many distinct lines as the cache holds, so hits, LRU
    # refreshes, invalidations of resident lines and evictions interleave.
    span = 2 * size
    addrs = st.integers(0, span - 1)
    steps = data.draw(st.lists(
        st.one_of(
            st.tuples(st.just("access"), addrs, st.booleans()),
            st.tuples(st.just("invalidate"), addrs, st.none()),
            st.tuples(st.just("flush"), st.none(), st.none()),
        ),
        min_size=30, max_size=100,
    ))
    cache = Cache(size, assoc=assoc, line_bytes=line_bytes)
    oracle = _MinTickCache(size, assoc, line_bytes)
    for kind, addr, is_write in steps:
        if kind == "access":
            assert cache.access(addr, is_write) == oracle.access(addr, is_write)
            assert cache.last_victim == oracle.last_victim
        elif kind == "invalidate":
            cache.set_state(addr, MESIState.INVALID)
            oracle.set_state(addr, MESIState.INVALID)
        else:
            assert cache.flush() == oracle.flush()
        stats = cache.stats
        assert {name: getattr(stats, name) for name in oracle.stats} == oracle.stats
        for probe in range(0, span, line_bytes):
            assert cache.lookup(probe) == oracle.lookup(probe)
