"""Deterministic fault injection into the backend and transfer paths.

The :class:`FaultInjector` is one device's fault state machine: it owns
that device's slice of a :class:`~repro.faults.plan.FaultPlan`, counts
the events faults key off (searches, CSB operations, VMU transfers,
charged cycles), and mutates real state at the planned instants — no
randomness at injection time, so a run replays bit-for-bit.

Injection sites:

* **CSB state and kernels** — :class:`FaultyBackend` wraps an
  :class:`~repro.csb.backend.ExecutionBackend` and re-asserts stuck
  bitcells after every mutation, forces killed chains' bitcells and tags
  to zero, and flips tag latches after scheduled searches. Because the
  wrapper mutates the *underlying storage* (never shadow copies), every
  reader of the CSB's fused backend — the ganged chain, host peeks,
  re-syncs — sees the same faulty bits.
* **VMU transfers** — :meth:`FaultInjector.filter_transfer` corrupts
  in-flight load/store values; :meth:`FaultInjector.corrupt_slab`
  flips a bit of a written spill slab in memory (caught by the parity
  words on restore).
* **The charging path** — :meth:`FaultInjector.charge` kills the whole
  device once its cumulative cycles cross a
  :class:`~repro.faults.plan.DeviceKill` threshold, raising
  :class:`~repro.common.errors.DeviceFailedError` from then on.

Repair hooks: the engine calls :meth:`FaultInjector.remap_chain` to
retire a permanently-faulty chain onto one of the device's spare
chains (``spare_chains`` budget); a remapped chain's faults stop being
asserted — the spare is clean silicon.

Injector state deliberately survives :meth:`CAPESystem.reset`: silicon
defects do not heal between jobs.
"""

from __future__ import annotations

from collections import Counter
from typing import List, NamedTuple, Optional

import numpy as np

from repro.common.errors import DeviceFailedError, FaultInjectionError
from repro.faults.plan import (
    ChainKill,
    DeviceKill,
    FaultPlan,
    StuckBit,
    TagFlip,
    TransferFault,
)
from repro.memory.mainmem import WORD_BYTES

__all__ = ["FaultInjector", "FaultyBackend"]


class _StuckSite(NamedTuple):
    """A stuck bit resolved to one backend's coordinates."""

    sub: int
    row: int
    col: int
    value: int
    chain: int
    fault: StuckBit


class _KillSite(NamedTuple):
    """A chain kill resolved to one backend's column set."""

    chain: int
    at_op: int
    cols: np.ndarray
    fault: ChainKill


class _FlipSite(NamedTuple):
    """A tag flip resolved to one backend's (sub, col)."""

    at_search: int
    sub: int
    col: int
    fault: TagFlip


class FaultInjector:
    """One device's deterministic fault state (see module docstring).

    Args:
        plan: the device's slice of a fault plan (typically
            ``plan.for_device(i)``).
        observer: optional :class:`repro.obs.Observer`; every injected
            fault lands in the ``faults.injected`` counter family (one
            label per fault kind) plus a ``fault:<kind>`` trace instant.
            The system attaches its own (device-labelled) observer when
            the injector is bound.
        spare_chains: spare chains available for remapping permanently
            faulty chains (Section IV peripherals are per-chain, so a
            spare substitutes wholesale).
    """

    def __init__(
        self,
        plan: FaultPlan,
        observer=None,
        spare_chains: int = 2,
    ) -> None:
        if spare_chains < 0:
            raise FaultInjectionError("spare_chains must be non-negative")
        self.plan = plan
        self.observer = observer
        self.spare_chains = spare_chains
        self.spares_used = 0
        #: Chains retired onto spares; their faults are no longer asserted.
        self.remapped: set = set()
        # -- event counters faults key off --------------------------------
        self.searches = 0
        self.csb_ops = 0
        self.cycles_seen = 0.0
        self.transfers: Counter = Counter()
        #: Injected-fault tally by kind (mirrors the obs counter family).
        self.injected: Counter = Counter()
        self.dead = False
        self._announced: set = set()
        # -- partition the plan by site -----------------------------------
        self._stuck = list(plan.of_type(StuckBit))
        self._flips = list(plan.of_type(TagFlip))
        self._kills = list(plan.of_type(ChainKill))
        self._transfer = {}
        for f in plan.of_type(TransferFault):
            self._transfer.setdefault(f.kind, []).append(f)
        kills = plan.of_type(DeviceKill)
        self._kill_fault = (
            min(kills, key=lambda k: k.at_cycle) if kills else None
        )
        self._kill_at = (
            self._kill_fault.at_cycle if self._kill_fault else None
        )
        self._num_chains: Optional[int] = None

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    @property
    def has_csb_faults(self) -> bool:
        """Any faults that require wrapping the execution backend?"""
        return bool(self._stuck or self._flips or self._kills)

    @property
    def protect_slabs(self) -> bool:
        """Should context spills carry parity words? (Any live plan.)"""
        return not self.plan.empty

    @property
    def spares_free(self) -> int:
        return self.spare_chains - self.spares_used

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def announce(self, fault, kind: str, **labels) -> None:
        """Record one fault's first firing (idempotent per fault)."""
        if fault in self._announced:
            return
        self._announced.add(fault)
        self.injected[kind] += 1
        obs = self.observer
        if obs is not None and obs.enabled:
            obs.counter("faults.injected", kind=kind).inc()
            obs.instant(f"fault:{kind}", "faults", **labels)

    # ------------------------------------------------------------------
    # Device death (charging path)
    # ------------------------------------------------------------------

    def charge(self, cycles: float) -> None:
        """Account charged cycles; raise once the kill threshold passes."""
        if self._kill_at is None:
            return
        self.cycles_seen += cycles
        if not self.dead and self.cycles_seen >= self._kill_at:
            self.dead = True
            self.announce(self._kill_fault, "device_kill")
        if self.dead:
            raise DeviceFailedError(
                f"device died at {self.cycles_seen:,.0f} charged cycles "
                f"(DeviceKill threshold {self._kill_at:,.0f})"
            )

    # ------------------------------------------------------------------
    # VMU transfer corruption
    # ------------------------------------------------------------------

    def filter_transfer(self, kind: str, values: np.ndarray) -> np.ndarray:
        """Corrupt in-flight transfer values per the plan (load/store)."""
        pending = self._transfer.get(kind)
        if not pending:
            return values
        self.transfers[kind] += 1
        n = self.transfers[kind]
        due = [f for f in pending if f.at_transfer <= n]
        if not due:
            return values
        values = np.array(values, dtype=np.int64, copy=True)
        for f in due:
            if len(values):
                values[f.element % len(values)] ^= np.int64(1) << f.bit
            self.announce(f, "transfer", path=kind)
            pending.remove(f)
        return values

    def corrupt_slab(self, memory, addr: int, data_words: int) -> None:
        """Flip a bit of a just-written spill slab, in memory."""
        pending = self._transfer.get("spill")
        if not pending or data_words <= 0:
            return
        self.transfers["spill"] += 1
        n = self.transfers["spill"]
        due = [f for f in pending if f.at_transfer <= n]
        for f in due:
            word_addr = addr + WORD_BYTES * (f.element % data_words)
            memory.write_word(
                word_addr, memory.read_word(word_addr) ^ (1 << f.bit)
            )
            self.announce(f, "slab", addr=word_addr)
            pending.remove(f)

    # ------------------------------------------------------------------
    # CSB backend wrapping
    # ------------------------------------------------------------------

    def bind_csb(
        self, num_chains: int, num_subarrays: int, num_rows: int,
        total_cols: int,
    ) -> None:
        """Validate the CSB-site faults against a concrete CSB shape."""
        self._num_chains = num_chains
        for s in self._stuck:
            if s.element >= total_cols or s.bit >= num_subarrays \
                    or s.row >= num_rows:
                raise FaultInjectionError(
                    f"{s} outside CSB shape ({num_subarrays} subarrays x "
                    f"{num_rows} rows x {total_cols} elements)"
                )
        for t in self._flips:
            if t.element >= total_cols or t.bit >= num_subarrays:
                raise FaultInjectionError(
                    f"{t} outside CSB shape ({num_subarrays} subarrays x "
                    f"{total_cols} elements)"
                )
        for k in self._kills:
            if k.chain >= num_chains:
                raise FaultInjectionError(
                    f"{k} outside CSB of {num_chains} chains"
                )

    def wrap_fused(self, base, num_chains: int) -> "FaultyBackend":
        """Wrap the fused (all-chains) backend; element = fused column."""
        stuck = [
            _StuckSite(s.bit, s.row, s.element, s.value,
                       s.element % num_chains, s)
            for s in self._stuck
        ]
        kills = [
            _KillSite(k.chain, k.at_op,
                      np.arange(k.chain, base.num_cols, num_chains), k)
            for k in self._kills
        ]
        flips = [
            _FlipSite(t.at_search, t.bit, t.element, t)
            for t in self._flips
        ]
        return FaultyBackend(base, self, stuck, kills, flips)

    # ------------------------------------------------------------------
    # Repair bookkeeping (driven by the engine)
    # ------------------------------------------------------------------

    def faulty_chains(self) -> List[int]:
        """Chains with live *permanent* faults, candidates for remap."""
        if self._num_chains is None:
            return []
        chains = {s.element % self._num_chains for s in self._stuck}
        chains.update(
            k.chain for k in self._kills if self.csb_ops >= k.at_op
        )
        return sorted(c for c in chains if c not in self.remapped)

    def remap_chain(self, chain: int) -> bool:
        """Retire ``chain`` onto a spare; False when the budget is spent."""
        if chain in self.remapped:
            return True
        if self.spares_used >= self.spare_chains:
            return False
        self.spares_used += 1
        self.remapped.add(chain)
        return True

    # ------------------------------------------------------------------

    def report(self) -> dict:
        """Injection/health summary for serving reports."""
        return {
            "injected": dict(self.injected),
            "dead": self.dead,
            "remapped_chains": sorted(self.remapped),
            "spares_free": self.spares_free,
            "searches": self.searches,
            "csb_ops": self.csb_ops,
            "transfers": dict(self.transfers),
        }


class FaultyBackend:
    """An :class:`ExecutionBackend` decorator that injects CSB faults.

    Read paths delegate untouched (``__getattr__``); mutating kernels
    delegate and then *re-assert* the plan's faults into the underlying
    storage — stuck bits forced back, killed chains zeroed — so every
    reader (host peeks, the ganged chain, re-syncs) observes the same
    faulty silicon. Searches are counted and scheduled tag flips land
    both in the latched tags and the returned outcome.
    """

    def __init__(
        self,
        base,
        injector: FaultInjector,
        stuck: List[_StuckSite],
        kills: List[_KillSite],
        flips: List[_FlipSite],
    ) -> None:
        self._base = base
        self._injector = injector
        self._stuck = stuck
        self._kills = kills
        self._flips = sorted(flips, key=lambda s: s.at_search)
        self.name = base.name
        self.num_subarrays = base.num_subarrays
        self.num_rows = base.num_rows
        self.num_cols = base.num_cols

    def __getattr__(self, name: str):
        return getattr(self._base, name)

    def __repr__(self) -> str:
        return f"FaultyBackend({self._base!r})"

    # -- fault assertion -----------------------------------------------

    def _assert_state(self) -> None:
        """Force the plan's persistent faults back into storage."""
        inj = self._injector
        for s in self._stuck:
            if s.chain in inj.remapped:
                continue
            self._base.force_bit(s.sub, s.row, s.col, s.value)
            inj.announce(s.fault, "stuck_bit")
        self._apply_kills()

    def _apply_kills(self) -> None:
        inj = self._injector
        for k in self._kills:
            if inj.csb_ops < k.at_op or k.chain in inj.remapped:
                continue
            self._base.zero_columns(k.cols)
            inj.announce(k.fault, "chain_kill", chain=k.chain)

    def _due_flips(self) -> List[_FlipSite]:
        inj = self._injector
        due = [s for s in self._flips if s.at_search <= inj.searches]
        for s in due:
            self._flips.remove(s)
        return due

    def _flip_tag(self, sub: int, col: int) -> None:
        tags = self._base.tags_of(sub)
        tags[col] ^= 1
        self._base.set_tags(sub, tags)

    # -- host-side state writes (sync path) ------------------------------

    def set_element_bits(self, row, col, bits) -> None:
        self._base.set_element_bits(row, col, bits)
        self._assert_state()

    def set_register_planes(self, row, bits) -> None:
        self._base.set_register_planes(row, bits)
        self._assert_state()

    # -- kernels ----------------------------------------------------------

    def match(self, sub, key):
        self._injector.csb_ops += 1
        out = np.array(self._base.match(sub, key), copy=True)
        self._apply_kills()
        for k in self._kills:
            if self._injector.csb_ops >= k.at_op \
                    and k.chain not in self._injector.remapped:
                out[k.cols] = 0
        return out

    def search(self, sub, key, accumulate: bool = False):
        inj = self._injector
        inj.csb_ops += 1
        out = np.array(
            self._base.search(sub, key, accumulate=accumulate), copy=True
        )
        self._apply_kills()
        inj.searches += 1
        for k in self._kills:
            if inj.csb_ops >= k.at_op and k.chain not in inj.remapped:
                out[k.cols] = 0
        for site in self._due_flips():
            self._flip_tag(site.sub, site.col)
            if site.sub == sub:
                out[site.col] ^= 1
            inj.announce(site.fault, "tag_flip")
        return out

    def search_all(self, keys, accumulate: bool = False):
        inj = self._injector
        inj.csb_ops += 1
        out = np.array(
            self._base.search_all(keys, accumulate=accumulate), copy=True
        )
        self._apply_kills()
        inj.searches += 1
        for k in self._kills:
            if inj.csb_ops >= k.at_op and k.chain not in inj.remapped:
                out[:, k.cols] = 0
        for site in self._due_flips():
            self._flip_tag(site.sub, site.col)
            out[site.sub, site.col] ^= 1
            inj.announce(site.fault, "tag_flip")
        return out

    def update(self, sub, row, value, select) -> None:
        self._injector.csb_ops += 1
        self._base.update(sub, row, value, select)
        self._assert_state()

    def update_all(self, row, value, select) -> None:
        self._injector.csb_ops += 1
        self._base.update_all(row, value, select)
        self._assert_state()

    def update_all_values(self, row, values, select) -> None:
        self._injector.csb_ops += 1
        self._base.update_all_values(row, values, select)
        self._assert_state()

    def move_planes(self, dst_row, src_row, sources, active) -> None:
        self._injector.csb_ops += 1
        self._base.move_planes(dst_row, src_row, sources, active)
        self._assert_state()

    # -- tag writes -------------------------------------------------------

    def set_tags(self, sub, tags) -> None:
        self._base.set_tags(sub, tags)
        self._apply_kills()

    def or_tags(self, sub, tags) -> None:
        self._base.or_tags(sub, tags)
        self._apply_kills()
