"""Zero-copy shared-memory data plane for the serving tier.

The serving tier's original wire format pickles every numpy payload and
result array into the duplex pipe — one full copy serialized, one full
copy deserialized, per array, per dispatch.  This module replaces the
*bytes* with *descriptors*: arrays travel as :class:`ShmRef` tuples
``(segment, offset, shape, dtype)`` pointing into POSIX shared memory,
so the only per-array cost is a single ``memcpy`` into a mapped slab on
the sending side and a view (or one copy out) on the receiving side.

Layout of the data plane (all segments are **parent-owned**):

* :class:`SlabArena` — a ref-counted bump allocator over fixed-size
  shared-memory slabs, used by the parent for request payloads and
  golden vectors.  Blocks are freed when the frame they rode on is
  *provably done* (reply arrived, drop proven by the FIFO detectors,
  worker death) and an empty slab is recycled in place, so segment
  names stay stable and the worker-side mapping cache stays small.
* Per-worker **reply rings** — one segment per worker into which the
  worker's :class:`WorkerWire` copies result arrays.  Flow control is a
  pair of monotonic byte counters: the worker bumps ``head`` as it
  writes, the parent piggybacks its cumulative ``consumed`` mark (the
  *ack*) on every outgoing frame, and the worker only writes into
  ``head - acked <= capacity`` space.  A full ring degrades to inline
  pickling of that array — never blocking, never deadlocking.
* :class:`SegmentCache` — the attach side.  Mappings are cached by
  segment name and explicitly *unregistered* from the multiprocessing
  resource tracker, because only the creating parent may unlink.

Because the parent owns every segment and POSIX keeps a mapping alive
across ``unlink``, :meth:`HostWire.close` is leak-proof even when a
worker dies mid-read via ``os._exit``: the name disappears from
``/dev/shm`` immediately and the memory itself goes away when the last
mapping (parent's or the dying worker's) closes.

Fallback rules — the wire is *transparent*; every fallback is counted
(``serve.wire.fallbacks``) but never changes results:

* arrays smaller than :data:`DEFAULT_MIN_BYTES` (4 KiB) stay inline —
  the descriptor + mapping overhead beats pickling only for big arrays;
* object/structured dtypes stay inline (not shareable as flat bytes);
* an exhausted arena or reply ring falls back to inline pickling for
  the arrays that did not fit;
* ``wire="auto"`` resolves to ``"pickle"`` wholesale on platforms
  where shared memory is unavailable.
"""

from __future__ import annotations

import dataclasses
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigError

try:  # pragma: no cover - exercised only on no-shm platforms
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

__all__ = [
    "DEFAULT_MIN_BYTES",
    "HostWire",
    "SegmentCache",
    "ShmRef",
    "SlabArena",
    "WIRE_MODES",
    "WorkerWire",
    "payload_nbytes",
    "resolve_wire_mode",
    "shm_available",
]

WIRE_MODES = ("auto", "shm", "pickle")

#: Arrays below this many bytes ride inline — a descriptor plus a
#: worker-side mapping lookup costs more than pickling a tiny array.
DEFAULT_MIN_BYTES = 4096

_SLAB_BYTES = 4 << 20
_ARENA_MAX_BYTES = 256 << 20
_REPLY_RING_BYTES = 4 << 20
_ALIGN = 64

_shm_probe: Optional[bool] = None


def _align(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


def shm_available() -> bool:
    """True when ``multiprocessing.shared_memory`` works on this host."""

    global _shm_probe
    if _shm_probe is None:
        if shared_memory is None:
            _shm_probe = False
        else:
            try:
                seg = shared_memory.SharedMemory(create=True, size=_ALIGN)
                seg.close()
                seg.unlink()
                _shm_probe = True
            except Exception:
                _shm_probe = False
    return _shm_probe


def resolve_wire_mode(mode: str) -> str:
    """Resolve a ``wire=`` knob to a concrete ``"shm"`` or ``"pickle"``."""

    if mode not in WIRE_MODES:
        raise ConfigError(
            f"wire must be one of {WIRE_MODES}, got {mode!r}"
        )
    if mode == "auto":
        return "shm" if shm_available() else "pickle"
    if mode == "shm" and not shm_available():
        raise ConfigError(
            "wire='shm' requested but multiprocessing.shared_memory is "
            "unavailable on this platform; use wire='auto' or 'pickle'"
        )
    return mode


@dataclass(frozen=True)
class ShmRef:
    """A picklable descriptor for an array living in shared memory.

    ``mark`` is the reply-ring flow-control counter *after* this block
    (zero for request-arena blocks): the parent acks the highest mark
    it has copied out, releasing ring space back to the worker.
    """

    segment: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str
    mark: int = 0

    @property
    def nbytes(self) -> int:
        n = np.dtype(self.dtype).itemsize
        for dim in self.shape:
            n *= dim
        return n


def _shareable(arr: np.ndarray) -> bool:
    return not (arr.dtype.hasobject or arr.dtype.names)


def _walk_encode(
    obj: Any, alloc: Callable[[np.ndarray], Optional[ShmRef]]
) -> Any:
    if isinstance(obj, np.ndarray):
        if obj.nbytes >= DEFAULT_MIN_BYTES and _shareable(obj):
            ref = alloc(obj)
            if ref is not None:
                return ref
        return obj
    if isinstance(obj, dict):
        return {k: _walk_encode(v, alloc) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_walk_encode(v, alloc) for v in obj]
    if isinstance(obj, tuple):
        return tuple(_walk_encode(v, alloc) for v in obj)
    return obj


def _walk_decode(obj: Any, resolve: Callable[[ShmRef], np.ndarray]) -> Any:
    if isinstance(obj, ShmRef):
        return resolve(obj)
    if isinstance(obj, dict):
        return {k: _walk_decode(v, resolve) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_walk_decode(v, resolve) for v in obj]
    if isinstance(obj, tuple):
        return tuple(_walk_decode(v, resolve) for v in obj)
    return obj


def _has_refs(obj: Any) -> bool:
    if isinstance(obj, ShmRef):
        return True
    if isinstance(obj, dict):
        return any(_has_refs(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_has_refs(v) for v in obj)
    return False


def payload_nbytes(obj: Any) -> int:
    """Approximate payload size in bytes: array bytes + 8 per scalar.

    This is the accounting figure behind ``payload_bytes_in/out`` — it
    deliberately measures the *data*, not the pickled envelope, so the
    number is comparable across wire modes.
    """

    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, ShmRef):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, str)):
        return len(obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(v) for v in obj)
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return 8
    return 0


def _new_segment(size: int, prefix: str) -> "shared_memory.SharedMemory":
    while True:
        name = f"{prefix}-{uuid.uuid4().hex[:12]}"
        try:
            return shared_memory.SharedMemory(create=True, size=size, name=name)
        except FileExistsError:  # pragma: no cover - uuid collision
            continue


def _attach_segment(name: str) -> "shared_memory.SharedMemory":
    # Only the creating parent may own cleanup. Attaching must not
    # register with the resource tracker at all: with a fork context
    # the tracker *process* is shared, so an attach-then-unregister
    # would strip the parent's own registration and its unlink-time
    # unregister would then error inside the tracker daemon. Python
    # 3.11 has no ``track=`` knob, so registration is suppressed for
    # the duration of the attach.
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class _Slab:
    __slots__ = ("shm", "offset", "live")

    def __init__(self, shm: "shared_memory.SharedMemory") -> None:
        self.shm = shm
        self.offset = 0
        self.live = 0


class SlabArena:
    """Parent-owned ref-counted bump allocator over shared-memory slabs.

    ``alloc`` copies an array into the first slab with room (creating a
    new slab up to ``max_bytes`` total) and returns ``(ref, token)``;
    ``free(token)`` drops the block's refcount and recycles the slab in
    place once every block on it is free.  Exhaustion returns ``None``
    — the caller falls back to inline pickling for that array.
    """

    def __init__(
        self,
        prefix: str = "cape-wire",
        slab_bytes: int = _SLAB_BYTES,
        max_bytes: int = _ARENA_MAX_BYTES,
    ) -> None:
        self._prefix = prefix
        self._slab_bytes = slab_bytes
        self._max_bytes = max_bytes
        self._slabs: List[_Slab] = []
        self._total = 0
        self._closed = False

    def alloc(self, arr: np.ndarray) -> Optional[Tuple[ShmRef, _Slab]]:
        if self._closed:
            return None
        arr = np.ascontiguousarray(arr)
        size = _align(arr.nbytes)
        slab = None
        for candidate in self._slabs:
            if candidate.offset + size <= candidate.shm.size:
                slab = candidate
                break
        if slab is None:
            seg_size = max(self._slab_bytes, size)
            if self._total + seg_size > self._max_bytes:
                return None
            try:
                seg = _new_segment(seg_size, self._prefix)
            except OSError:
                return None
            self._total += seg_size
            slab = _Slab(seg)
            self._slabs.append(slab)
        offset = slab.offset
        dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=slab.shm.buf, offset=offset)
        dst[...] = arr
        slab.offset += size
        slab.live += 1
        ref = ShmRef(slab.shm.name, offset, tuple(arr.shape), str(arr.dtype))
        return ref, slab

    def free(self, token: _Slab) -> None:
        token.live -= 1
        if token.live <= 0:
            token.live = 0
            token.offset = 0

    def segment_names(self) -> Tuple[str, ...]:
        return tuple(slab.shm.name for slab in self._slabs)

    def close(self) -> None:
        self._closed = True
        slabs, self._slabs = self._slabs, []
        for slab in slabs:
            try:
                slab.shm.close()
                slab.shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self._total = 0


class SegmentCache:
    """Attach-side mapping cache: segment name -> open ``SharedMemory``."""

    def __init__(self) -> None:
        self._segments: Dict[str, "shared_memory.SharedMemory"] = {}

    def view(self, ref: ShmRef) -> np.ndarray:
        seg = self._segments.get(ref.segment)
        if seg is None:
            seg = _attach_segment(ref.segment)
            self._segments[ref.segment] = seg
        arr = np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf, offset=ref.offset
        )
        arr.flags.writeable = False
        return arr

    def close(self) -> None:
        segments, self._segments = self._segments, {}
        for seg in segments.values():
            try:
                seg.close()
            except Exception:  # pragma: no cover
                pass


class _RingWriter:
    """Worker-side writer half of a parent-owned reply ring."""

    def __init__(self, name: str) -> None:
        self._seg = _attach_segment(name)
        self.capacity = self._seg.size
        self.head = 0
        self.acked = 0

    def note_ack(self, mark: int) -> None:
        if mark > self.acked:
            self.acked = mark

    def put(self, arr: np.ndarray) -> Optional[ShmRef]:
        arr = np.ascontiguousarray(arr)
        size = _align(arr.nbytes)
        if size == 0 or size > self.capacity:
            return None
        start = self.head
        # Blocks never straddle the wrap; skipped pad bytes are freed
        # by the same ack that frees the block written after them.
        if (start % self.capacity) + size > self.capacity:
            start += self.capacity - (start % self.capacity)
        if start + size - self.acked > self.capacity:
            return None
        offset = start % self.capacity
        dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=self._seg.buf, offset=offset)
        dst[...] = arr
        self.head = start + size
        return ShmRef(
            self._seg.name, offset, tuple(arr.shape), str(arr.dtype), mark=self.head
        )

    def close(self) -> None:
        try:
            self._seg.close()
        except Exception:  # pragma: no cover
            pass


class WorkerWire:
    """The worker-process side of the data plane.

    Decodes :class:`ShmRef` leaves in incoming specs into zero-copy
    (read-only) views, and encodes outgoing reply arrays into this
    worker's reply ring when one was provisioned.
    """

    def __init__(self, reply_segment: Optional[str] = None) -> None:
        self._cache = SegmentCache()
        self._ring = _RingWriter(reply_segment) if reply_segment else None

    def note_ack(self, mark: int) -> None:
        if self._ring is not None and mark:
            self._ring.note_ack(mark)

    def decode_spec(self, spec: Any) -> Any:
        payload = spec.payload
        golden = spec.golden
        changed = False
        if _has_refs(payload):
            payload = _walk_decode(payload, self._cache.view)
            changed = True
        if _has_refs(golden):
            golden = _walk_decode(golden, self._cache.view)
            changed = True
        if not changed:
            return spec
        return dataclasses.replace(spec, payload=payload, golden=golden)

    def encode_reply(self, reply: Any) -> Any:
        if self._ring is None or not isinstance(reply, dict):
            return reply
        return _walk_encode(reply, self._ring.put)

    def close(self) -> None:
        self._cache.close()
        if self._ring is not None:
            self._ring.close()


class HostWire:
    """The parent side: arena + reply rings + codec + accounting.

    One instance per :class:`~repro.serve.pool.ServePool` run or
    :class:`~repro.serve.gateway.Gateway` lifetime.  ``stats`` is a
    plain dict (``mode/frames/batched_jobs/bytes_out/bytes_in/
    shm_hits/fallbacks``) that survives :meth:`close` so reports can
    read it after shutdown; the same figures stream into the observer
    as ``serve.wire.*`` counters when one is enabled.
    """

    def __init__(self, mode: str = "auto", observer: Any = None) -> None:
        self.mode = resolve_wire_mode(mode)
        self.shm = self.mode == "shm"
        self._observer = observer if observer is not None and observer.enabled else None
        self._arena = SlabArena() if self.shm else None
        self._reply_rings: Dict[int, "shared_memory.SharedMemory"] = {}
        self._cache = SegmentCache()
        self.consumed: Dict[int, int] = {}
        self.stats: Dict[str, Any] = {
            "mode": self.mode,
            "frames": 0,
            "batched_jobs": 0,
            "bytes_out": 0,
            "bytes_in": 0,
            "shm_hits": 0,
            "fallbacks": 0,
        }

    # -- worker provisioning -------------------------------------------------

    def reply_segment_for(self, worker_id: int) -> Optional[str]:
        """Create (or return) worker ``worker_id``'s reply ring segment."""

        if not self.shm:
            return None
        seg = self._reply_rings.get(worker_id)
        if seg is None:
            seg = _new_segment(_REPLY_RING_BYTES, f"cape-ring-{worker_id}")
            self._reply_rings[worker_id] = seg
            self.consumed[worker_id] = 0
        return seg.name

    def ack_for(self, worker_id: int) -> int:
        return self.consumed.get(worker_id, 0)

    # -- encode / decode -----------------------------------------------------

    def encode_spec(self, spec: Any) -> Tuple[Any, Tuple[_Slab, ...]]:
        """Encode a spec's payload/golden arrays into the arena.

        Returns ``(wire_spec, tokens)``; the caller must :meth:`free`
        the tokens once the frame carrying the spec is provably done.
        """

        if self._arena is None:
            return spec, ()
        tokens: List[_Slab] = []
        hits = 0
        fallbacks = 0
        shm_bytes = 0

        def alloc(arr: np.ndarray) -> Optional[ShmRef]:
            nonlocal hits, fallbacks, shm_bytes
            out = self._arena.alloc(arr)
            if out is None:
                fallbacks += 1
                return None
            ref, token = out
            tokens.append(token)
            hits += 1
            shm_bytes += ref.nbytes
            return ref

        payload = _walk_encode(spec.payload, alloc)
        golden = _walk_encode(spec.golden, alloc)
        if not tokens and not fallbacks:
            return spec, ()
        self.stats["shm_hits"] += hits
        self.stats["fallbacks"] += fallbacks
        self.stats["bytes_out"] += shm_bytes
        if self._observer is not None:
            self._observer.counter("serve.wire.shm_hits", direction="out").inc(hits)
            if fallbacks:
                self._observer.counter("serve.wire.fallbacks", direction="out").inc(
                    fallbacks
                )
            self._observer.counter("serve.wire.bytes", direction="out").inc(shm_bytes)
        if not tokens:
            return spec, ()
        return (
            dataclasses.replace(spec, payload=payload, golden=golden),
            tuple(tokens),
        )

    def decode_reply(self, worker_id: int, reply: Any) -> Any:
        """Copy ring arrays out of a reply and advance the ack mark."""

        if not self.shm or not isinstance(reply, dict) or not _has_refs(reply):
            return reply
        shm_bytes = 0
        hits = 0

        def resolve(ref: ShmRef) -> np.ndarray:
            nonlocal shm_bytes, hits
            arr = np.array(self._cache.view(ref))
            if ref.mark:
                mark = self.consumed.get(worker_id, 0)
                if ref.mark > mark:
                    self.consumed[worker_id] = ref.mark
            shm_bytes += arr.nbytes
            hits += 1
            return arr

        decoded = _walk_decode(reply, resolve)
        self.stats["shm_hits"] += hits
        self.stats["bytes_in"] += shm_bytes
        if self._observer is not None:
            self._observer.counter("serve.wire.shm_hits", direction="in").inc(hits)
            self._observer.counter("serve.wire.bytes", direction="in").inc(shm_bytes)
        return decoded

    def note_frame(self, jobs: int) -> None:
        """Account one outgoing wire frame carrying ``jobs`` members."""

        self.stats["frames"] += 1
        self.stats["batched_jobs"] += jobs
        if self._observer is not None:
            self._observer.counter("serve.wire.frames", mode=self.mode).inc()
            self._observer.histogram("serve.batch.size").observe(float(jobs))

    def free(self, tokens: Tuple[_Slab, ...]) -> None:
        if self._arena is not None:
            for token in tokens:
                self._arena.free(token)

    # -- lifecycle -----------------------------------------------------------

    def segment_names(self) -> Tuple[str, ...]:
        names: Tuple[str, ...] = ()
        if self._arena is not None:
            names += self._arena.segment_names()
        names += tuple(seg.name for seg in self._reply_rings.values())
        return names

    def close(self) -> None:
        """Unlink every owned segment.  Safe to call more than once."""

        self._cache.close()
        if self._arena is not None:
            self._arena.close()
        rings, self._reply_rings = self._reply_rings, {}
        for seg in rings.values():
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
