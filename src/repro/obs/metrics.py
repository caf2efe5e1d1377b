"""Hierarchical counter/metrics registry (the ``obs.metrics`` surface).

Every instrumented layer — VCU, VMU, the CSB execution backends, the
interpreter, and the runtime scheduler/pool — publishes into one
:class:`MetricsRegistry` through cheap get-or-create handles. A metric
*family* is a dotted name (``csb.microops``, ``vcu.instructions``); a
*series* is one family + one label set (``op="search"``, ``flavor="bp"``,
``backend="bitplane"``, ``device="CAPE32k#0"``). Handles are plain
objects with one hot method (`inc`/`set`/`observe`), so call sites cache
them and pay a dict lookup only on first use.

Naming scheme (shared with the stats dataclasses, see
``docs/OBSERVABILITY.md``): snake_case names with unit suffixes —
``*_cycles``, ``*_seconds``, ``*_j`` (joules), ``*_bytes`` — and plain
nouns for event counts.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigError

#: A canonicalised label set: sorted (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonicalise a label mapping into a hashable, order-free key."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonic counter series (float-valued; energy sums allowed)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(f"counter {self.name} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}{dict(self.labels)}={self.value})"


class Gauge:
    """A point-in-time value series (queue depth, occupancy)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __repr__(self) -> str:
        return f"Gauge({self.name}{dict(self.labels)}={self.value})"


class Histogram:
    """A distribution series with power-of-two buckets.

    Tracks count/sum/min/max plus a coarse bucket map (upper bound of
    each power-of-two bucket -> observations), enough for queue-depth
    and latency distributions without a full reservoir.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max", "buckets")
    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[float, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        bound = 1.0
        while bound < value:
            bound *= 2.0
        self.buckets[bound] = self.buckets.get(bound, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def value(self) -> float:
        """Uniform accessor used by snapshots: the observation sum."""
        return self.total

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}{dict(self.labels)} "
            f"n={self.count} mean={self.mean:.3g})"
        )


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

#: A snapshot: (family, label key) -> numeric value.
Snapshot = Dict[Tuple[str, LabelKey], float]


class MetricsRegistry:
    """All metric families of one observer, keyed by name and labels."""

    def __init__(self) -> None:
        #: family name -> (kind, {label key -> metric instance})
        self._families: Dict[str, Tuple[str, Dict[LabelKey, object]]] = {}

    # -- get-or-create handles -----------------------------------------

    def _get(self, kind: str, name: str, labels: Mapping[str, object]):
        key = label_key(labels)
        family = self._families.get(name)
        if family is None:
            family = (kind, {})
            self._families[name] = family
        elif family[0] != kind:
            raise ConfigError(
                f"metric {name!r} is a {family[0]}, not a {kind}"
            )
        series = family[1].get(key)
        if series is None:
            series = _KINDS[kind](name, key)
            family[1][key] = series
        return series

    def counter(self, name: str, **labels: object) -> Counter:
        """Get or create the counter series ``name{labels}``."""
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get or create the gauge series ``name{labels}``."""
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        """Get or create the histogram series ``name{labels}``."""
        return self._get("histogram", name, labels)

    # -- queries --------------------------------------------------------

    def series(self, name: str) -> List[Tuple[Dict[str, str], object]]:
        """All (labels, metric) series of one family."""
        family = self._families.get(name)
        if family is None:
            return []
        return [(dict(key), metric) for key, metric in sorted(family[1].items())]

    def value(self, name: str, **labels: object) -> float:
        """Exact series value, or 0 if it was never created."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        metric = family[1].get(label_key(labels))
        return metric.value if metric is not None else 0.0

    def total(self, name: str, **label_filter: object) -> float:
        """Sum of every series of a family matching the label filter."""
        want = {k: str(v) for k, v in label_filter.items()}
        total = 0.0
        for labels, metric in self.series(name):
            if all(labels.get(k) == v for k, v in want.items()):
                total += metric.value
        return total

    def names(self) -> List[str]:
        return sorted(self._families)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return sum(len(f[1]) for f in self._families.values())

    # -- export / diff --------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Flat numeric copy of every series, for before/after diffing."""
        out: Snapshot = {}
        for name, (_, series) in self._families.items():
            for key, metric in series.items():
                out[(name, key)] = metric.value
        return out

    def as_dict(self) -> Dict[str, List[dict]]:
        """JSON-able export: one entry per series, grouped by family."""
        out: Dict[str, List[dict]] = {}
        for name in self.names():
            kind = self._families[name][0]
            entries = []
            for labels, metric in self.series(name):
                entry = {"labels": labels, "value": metric.value}
                if kind == "histogram":
                    entry.update(
                        count=metric.count,
                        mean=metric.mean,
                        min=metric.min,
                        max=metric.max,
                    )
                entries.append(entry)
            out[name] = entries
        return out

    def clear(self) -> None:
        self._families.clear()


def diff_snapshots(after: Snapshot, before: Snapshot) -> Snapshot:
    """Per-series deltas between two snapshots (new series included)."""
    out: Snapshot = {}
    for key, value in after.items():
        delta = value - before.get(key, 0.0)
        if delta:
            out[key] = delta
    return out
