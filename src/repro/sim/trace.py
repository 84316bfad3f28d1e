"""Waveform recording.

:class:`Trace` stores (time, value) samples of one quantity;
:class:`TraceSet` groups traces from a simulation run and exports them to
CSV for the figure-regeneration benches (Fig. 5 of the paper is produced
from such a trace of the supercapacitor voltage).

:meth:`TraceSet.to_payload` and :meth:`TraceSet.from_payload` are the
only code that knows how traces are encoded in result payloads.  Result
schema 2 writes every column as base64 of little-endian float64 and
each distinct time vector once; schema 1 (decimal lists, one time list
per trace) is still read.
"""

from __future__ import annotations

import base64
import bisect
import io
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import SimulationError

#: Sample columns are exact little-endian float64.
_COLUMN = np.dtype("<f8")


class Trace:
    """Time-stamped samples of one scalar quantity.

    Samples must be appended in non-decreasing time order.  Equal-time
    appends overwrite the previous sample, which keeps step-discontinuities
    representable without zero-width artefacts.
    """

    def __init__(self, name: str):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def append(self, time: float, value: float) -> None:
        """Record ``value`` at ``time`` (monotone non-decreasing times)."""
        if self._times and time < self._times[-1]:
            raise SimulationError(
                f"trace {self.name!r}: time went backwards "
                f"({time!r} < {self._times[-1]!r})"
            )
        if self._times and time == self._times[-1]:
            self._values[-1] = value
            return
        self._times.append(time)
        self._values.append(value)

    @property
    def times(self) -> np.ndarray:
        """Sample times as an array."""
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        """Sample values as an array."""
        return np.asarray(self._values, dtype=float)

    def at(self, time: float) -> float:
        """Zero-order-hold lookup: value of the last sample at or before ``time``."""
        if not self._times:
            raise SimulationError(f"trace {self.name!r} is empty")
        idx = bisect.bisect_right(self._times, time) - 1
        if idx < 0:
            return self._values[0]
        return self._values[idx]

    def interp(self, time: float) -> float:
        """Linear interpolation at ``time`` (clamped at the ends)."""
        if not self._times:
            raise SimulationError(f"trace {self.name!r} is empty")
        value = float(np.interp(time, self._times, self._values))
        if not np.isfinite(value):
            # A subnormal gap between samples overflows the slope in
            # (v1-v0)/(t1-t0); a gap that small is below any meaningful
            # time resolution, so the step lookup is the honest answer
            # (and stays within the sampled value range).
            return float(self.at(time))
        return value

    def resample(self, times: Sequence[float]) -> np.ndarray:
        """Linearly interpolate the trace onto the given time grid."""
        if not self._times:
            raise SimulationError(f"trace {self.name!r} is empty")
        grid = np.asarray(times, dtype=float)
        out = np.interp(grid, self._times, self._values)
        bad = ~np.isfinite(out)
        if bad.any():
            # Same subnormal-gap overflow as interp(): fall back to the
            # zero-order-hold sample at each affected grid point.
            out[bad] = [self.at(t) for t in grid[bad]]
        return out

    def min(self) -> float:
        """Smallest recorded value."""
        return float(np.min(self.values))

    def max(self) -> float:
        """Largest recorded value."""
        return float(np.max(self.values))

    def mean(self) -> float:
        """Time-weighted mean value (trapezoidal; falls back to sample mean)."""
        t, v = self.times, self.values
        if len(t) < 2 or t[-1] == t[0]:
            return float(np.mean(v))
        return float(np.trapezoid(v, t) / (t[-1] - t[0]))

    def time_above(self, threshold: float) -> float:
        """Total time the (linearly interpolated) trace spends above ``threshold``."""
        t, v = self.times, self.values
        if len(t) < 2:
            return 0.0
        total = 0.0
        for i in range(len(t) - 1):
            t0, t1, v0, v1 = t[i], t[i + 1], v[i], v[i + 1]
            dt = t1 - t0
            if dt <= 0.0:
                continue
            if v0 > threshold and v1 > threshold:
                total += dt
            elif (v0 > threshold) != (v1 > threshold) and v1 != v0:
                frac_above = abs(max(v0, v1) - threshold) / abs(v1 - v0)
                total += dt * frac_above
        return total


class TraceSet:
    """A named collection of traces with shared CSV export."""

    def __init__(self) -> None:
        self._traces: Dict[str, Trace] = {}

    def trace(self, name: str) -> Trace:
        """Return the trace called ``name``, creating it on first use."""
        if name not in self._traces:
            self._traces[name] = Trace(name)
        return self._traces[name]

    def __contains__(self, name: str) -> bool:
        return name in self._traces

    def alias(self, name: str, existing: str) -> None:
        """Expose the trace called ``existing`` under ``name`` as well.

        Backends record under their native names (the MNA hook traces
        node ``"v(vdc)"``); an alias lets adapters also publish the
        canonical cross-backend name (``"v_store"``) without copying.
        """
        if existing not in self._traces:
            raise SimulationError(f"no trace named {existing!r} to alias")
        self._traces[name] = self._traces[existing]

    def __getitem__(self, name: str) -> Trace:
        return self._traces[name]

    def names(self) -> List[str]:
        """Names of all traces, sorted."""
        return sorted(self._traces)

    def to_payload(self) -> dict:
        """Plain-JSON representation of every trace (result schema 2).

        Each trace's ``"values"`` is base64 of its samples as
        little-endian float64.  The alphabetically first trace with a
        given time vector carries it as ``"times"`` (same encoding); a
        later trace with bit-identical times names that trace in
        ``"times_of"`` instead.  Aliased names (see :meth:`alias`) are
        ``{"alias": ...}`` references to the first name that owns the
        samples, so shared traces stay shared after a round-trip and
        payloads carry each sample column once.
        """
        payload: Dict[str, dict] = {}
        owner_by_id: Dict[int, str] = {}
        owner_by_times: Dict[bytes, str] = {}
        for name in self.names():
            trace = self._traces[name]
            owner = owner_by_id.setdefault(id(trace), name)
            if owner != name:
                payload[name] = {"alias": owner}
                continue
            times = np.asarray(trace._times, dtype=_COLUMN).tobytes()
            values = np.asarray(trace._values, dtype=_COLUMN).tobytes()
            entry = {"values": _encode(values)}
            owner = owner_by_times.setdefault(times, name)
            if owner == name:
                entry["times"] = _encode(times)
            else:
                entry["times_of"] = owner
            payload[name] = entry
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, dict], schema: int = 2) -> "TraceSet":
        """Rebuild a trace set from :meth:`to_payload` output.

        ``schema`` is the result schema the payload was written under;
        schema 1 traces hold parallel decimal ``"times"``/``"values"``
        lists.  Decoded samples obey :meth:`Trace.append`'s rules: a
        length mismatch or a time going backwards raises
        :class:`~repro.errors.SimulationError`, and equal times keep the
        last value.
        """
        column, empty = (_floats, []) if schema == 1 else (_decode, "")
        times = {
            name: column(name, entry.get("times", empty))
            for name, entry in payload.items()
            if "alias" not in entry and "times_of" not in entry
        }
        traces = cls()
        aliases = []
        for name in sorted(payload):
            entry = payload[name]
            if "alias" in entry:
                aliases.append((name, entry["alias"]))
                continue
            owner = entry.get("times_of", name)
            if owner not in times:
                raise SimulationError(
                    f"trace {name!r} takes its times from {owner!r}, "
                    f"which carries none"
                )
            values = column(name, entry.get("values", empty))
            traces._traces[name] = _column_trace(name, times[owner], values)
        for name, existing in aliases:
            traces.alias(name, existing)
        return traces

    def to_csv(self, times: Sequence[float]) -> str:
        """Resample every trace onto ``times`` and render a CSV string."""
        names = self.names()
        buf = io.StringIO()
        buf.write("time," + ",".join(names) + "\n")
        columns = [self._traces[n].resample(times) for n in names]
        for i, t in enumerate(times):
            row = ",".join(f"{col[i]:.9g}" for col in columns)
            buf.write(f"{t:.9g},{row}\n")
        return buf.getvalue()


def _encode(column: bytes) -> str:
    """Base64 text of a float64 column's bytes."""
    return base64.b64encode(column).decode("ascii")


def _decode(name: str, text: str) -> np.ndarray:
    """The float64 column that :func:`_encode` wrote as ``text``."""
    try:
        return np.frombuffer(base64.b64decode(text, validate=True), dtype=_COLUMN)
    except (TypeError, ValueError) as exc:
        raise SimulationError(
            f"trace {name!r} payload column is not base64 float64: {exc}"
        ) from exc


def _floats(name: str, samples: Sequence[float]) -> np.ndarray:
    """A schema-1 decimal list as a float64 column."""
    return np.fromiter(map(float, samples), dtype=float, count=len(samples))


def _column_trace(name: str, times: np.ndarray, values: np.ndarray) -> Trace:
    """A trace of ``times``/``values`` built by :meth:`Trace.append`'s rules."""
    if len(times) != len(values):
        raise SimulationError(
            f"trace {name!r} payload has {len(times)} times "
            f"but {len(values)} values"
        )
    backwards = np.flatnonzero(times[1:] < times[:-1])
    if backwards.size:
        i = int(backwards[0]) + 1
        raise SimulationError(
            f"trace {name!r}: time went backwards "
            f"({float(times[i])!r} < {float(times[i - 1])!r})"
        )
    same = times[1:] == times[:-1]
    if same.any():
        # A run of equal times is one sample: append keeps the run's
        # first time and its last value.
        times = times[np.concatenate(([True], ~same))]
        values = values[np.concatenate((~same, [True]))]
    trace = Trace(name)
    trace._times = times.tolist()
    trace._values = values.tolist()
    return trace
