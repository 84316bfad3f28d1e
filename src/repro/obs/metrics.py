"""The process-wide metrics registry.

Labelled counters, gauges and histograms over plain dicts -- no
dependency, no background thread.  Three properties the rest of the
stack leans on:

- **Cheap when off.**  Every instrument checks the global telemetry
  switch (:mod:`repro.obs.state`) before touching its lock, so an
  uninstrumented run pays one attribute read per call site.
- **Cheap when on.**  A histogram observation bumps one bucket of a
  mutable per-series record; the cumulative Prometheus counts are summed
  only when a snapshot or :meth:`Histogram.state` reads them.
- **Picklable snapshots that merge.**  :meth:`MetricsRegistry.snapshot`
  returns a plain-data :class:`MetricsSnapshot` that crosses process
  boundaries (``BatchRunner`` ships one back per worker item) and
  :meth:`MetricsRegistry.merge` folds it into the parent: counters and
  histograms add, gauges take the incoming value.
- **Prometheus exposition.**  :func:`render_prometheus` serialises a
  snapshot into the text format (``# HELP``/``# TYPE`` per metric,
  ``_bucket``/``_sum``/``_count`` series per histogram) that
  ``/v1/metrics`` serves under content negotiation.

Metric names use Prometheus conventions directly (lowercase,
underscores, counters end in ``_total``) so nothing needs renaming at
exposition time.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.obs.state import STATE

#: Default latency buckets (seconds): microbenchmarks to minutes.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigError(
            f"invalid metric name {name!r} (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
        )
    return name


@dataclass(frozen=True)
class _HistogramState:
    """One histogram series: cumulative bucket counts + sum + count."""

    bucket_counts: Tuple[int, ...]
    sum: float
    count: int


class _HistogramSeries:
    """A live histogram series: per-bucket (not cumulative) counts."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0

    def add(self, state: _HistogramState) -> None:
        """Fold in a frozen (cumulative) state, e.g. a worker's."""
        below = 0
        for i, cumulative in enumerate(state.bucket_counts[: len(self.counts)]):
            self.counts[i] += cumulative - below
            below = cumulative
        self.sum += state.sum
        self.count += state.count

    def freeze(self) -> _HistogramState:
        return _HistogramState(tuple(accumulate(self.counts)), self.sum, self.count)


class _Instrument:
    """Shared label plumbing for the three instrument kinds."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        lock: threading.Lock,
    ):
        self.name = _check_name(name)
        self.help = str(help)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ConfigError(f"invalid metric label name {label!r}")
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._series: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        names = self.labelnames
        if len(labels) == len(names):
            try:
                return tuple([str(labels[name]) for name in names]) if names else ()
            except KeyError:
                pass
        raise ConfigError(
            f"metric {self.name} takes labels "
            f"({', '.join(names) or 'none'}), "
            f"got ({', '.join(sorted(labels)) or 'none'})"
        )

    def _frozen_series(self) -> Dict[Tuple[str, ...], object]:
        """A plain-data copy of every series (call under the lock)."""
        return dict(self._series)


class Counter(_Instrument):
    """A monotone, labelled counter."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not STATE.metrics_on:
            return
        if amount < 0:
            raise ConfigError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))


class Gauge(_Instrument):
    """A labelled value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        if not STATE.metrics_on:
            return
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not STATE.metrics_on:
            return
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))


class Histogram(_Instrument):
    """A labelled distribution with cumulative buckets."""

    kind = "histogram"

    def __init__(self, name, help, labelnames, lock, buckets=DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ConfigError(f"histogram {name} needs at least one bucket")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        self.observe_many((value,), **labels)

    def observe_many(self, values: Iterable[float], **labels) -> None:
        """:meth:`observe` each value in order, under one label lookup
        and one lock acquisition."""
        if not STATE.metrics_on:
            return
        key = self._key(labels)
        bounds = self.buckets
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(bounds))
            for value in values:
                value = float(value)
                # The one bucket whose bound first admits the value (none
                # for NaN or above the last bound: only ``+Inf``, i.e.
                # count).
                first = bisect_left(bounds, value)
                if first < len(bounds) and value <= bounds[first]:
                    series.counts[first] += 1
                series.sum += value
                series.count += 1

    def state(self, **labels) -> _HistogramState:
        key = self._key(labels)
        with self._lock:
            found = self._series.get(key)
            if found is not None:
                return found.freeze()
        return _HistogramState((0,) * len(self.buckets), 0.0, 0)

    def _frozen_series(self) -> Dict[Tuple[str, ...], object]:
        return {key: series.freeze() for key, series in self._series.items()}

    def count(self, **labels) -> int:
        return self.state(**labels).count


@dataclass(frozen=True)
class MetricsSnapshot:
    """A picklable, plain-data copy of a registry's state.

    ``metrics`` maps metric name to a dict with ``kind``, ``help``,
    ``labelnames``, ``series`` (label-values tuple -> float or
    :class:`_HistogramState`) and, for histograms, ``buckets``.
    """

    metrics: Dict[str, dict] = field(default_factory=dict)

    def names(self) -> List[str]:
        return sorted(self.metrics)


class MetricsRegistry:
    """A named family of instruments with get-or-create semantics.

    ``counter``/``gauge``/``histogram`` are idempotent: asking twice for
    the same name returns the same instrument, and asking with a
    conflicting kind or label set is a :class:`~repro.errors.ConfigError`
    (two modules silently disagreeing about a metric is a bug).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Instrument] = {}

    # -- get-or-create ---------------------------------------------------------

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ConfigError(
                        f"metric {name} is already registered as a "
                        f"{existing.kind} with labels "
                        f"({', '.join(existing.labelnames) or 'none'})"
                    )
                return existing
            instrument = cls(name, help, tuple(labelnames), self._lock, **kwargs)
            self._metrics[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=tuple(buckets)
        )

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    # -- snapshot / merge ------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """A picklable copy of everything collected so far."""
        out: Dict[str, dict] = {}
        with self._lock:
            for name, instrument in self._metrics.items():
                entry = {
                    "kind": instrument.kind,
                    "help": instrument.help,
                    "labelnames": instrument.labelnames,
                    "series": instrument._frozen_series(),
                }
                if isinstance(instrument, Histogram):
                    entry["buckets"] = instrument.buckets
                out[name] = entry
        return MetricsSnapshot(out)

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a (worker's) snapshot into this registry.

        Counters and histograms add; gauges take the incoming value
        (the worker's reading is newer by construction).  Instruments
        the snapshot knows and this registry does not are created.
        Merging ignores the global on/off switch: a shipped snapshot
        was collected while metrics were on somewhere.
        """
        for name, entry in snapshot.metrics.items():
            kind = entry["kind"]
            if kind == "counter":
                instrument = self.counter(name, entry["help"], entry["labelnames"])
            elif kind == "gauge":
                instrument = self.gauge(name, entry["help"], entry["labelnames"])
            elif kind == "histogram":
                instrument = self.histogram(
                    name, entry["help"], entry["labelnames"], entry["buckets"]
                )
            else:  # pragma: no cover - snapshots only hold the three kinds
                raise ConfigError(f"unknown metric kind {kind!r} in snapshot")
            with self._lock:
                series = instrument._series
                for key, incoming in entry["series"].items():
                    if kind == "gauge":
                        series[key] = incoming
                    elif kind == "counter":
                        series[key] = series.get(key, 0.0) + incoming
                    else:
                        if key not in series:
                            series[key] = _HistogramSeries(len(instrument.buckets))
                        series[key].add(incoming)

    def reset(self) -> None:
        """Zero every series (instruments stay registered)."""
        with self._lock:
            for instrument in self._metrics.values():
                instrument._series.clear()


#: The process-wide default registry (what :func:`metrics` returns).
_REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-wide registry every instrumented module shares."""
    return _REGISTRY


# -- Prometheus exposition -----------------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(labelnames: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, values)
    )
    return "{" + pairs + "}"


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """Serialise a snapshot in the Prometheus text exposition format.

    Every metric gets a ``# HELP`` and ``# TYPE`` line; histogram series
    expand into cumulative ``_bucket{le=...}`` lines plus ``_sum`` and
    ``_count``.  Series are sorted, so two renders of equal snapshots
    are byte-identical.
    """
    lines: List[str] = []
    for name in sorted(snapshot.metrics):
        entry = snapshot.metrics[name]
        kind = entry["kind"]
        labelnames = tuple(entry["labelnames"])
        lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {kind}")
        series = entry["series"]
        if kind == "histogram":
            buckets = tuple(entry["buckets"])
            for key in sorted(series):
                state = series[key]
                # Stored bucket counts are already cumulative (observe
                # increments every bucket whose bound admits the value).
                for bound, in_bucket in zip(buckets, state.bucket_counts):
                    le_labels = _labels_text(
                        labelnames + ("le",), key + (_format_value(bound),)
                    )
                    lines.append(f"{name}_bucket{le_labels} {in_bucket}")
                inf_labels = _labels_text(labelnames + ("le",), key + ("+Inf",))
                lines.append(f"{name}_bucket{inf_labels} {state.count}")
                label_text = _labels_text(labelnames, key)
                lines.append(f"{name}_sum{label_text} {repr(float(state.sum))}")
                lines.append(f"{name}_count{label_text} {state.count}")
        else:
            for key in sorted(series):
                label_text = _labels_text(labelnames, key)
                lines.append(f"{name}{label_text} {_format_value(series[key])}")
    return "\n".join(lines) + ("\n" if lines else "")
