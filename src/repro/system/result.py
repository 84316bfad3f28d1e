"""Simulation results and the energy audit.

:class:`EnergyBreakdown` tracks where every joule went; its
:meth:`~EnergyBreakdown.imbalance` must be ~0 for any correct backend
(property-tested).  :class:`SystemResult` is what a run returns: the
figure of merit (transmission count), traces for the Fig. 5-style plots,
the per-session tuning log and the audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Mapping, Optional, Tuple, Union

from repro.control.session import SessionResult
from repro.documents import (
    canonical_json,
    check_document,
    format_json,
    parse_json,
    read_json,
    write_json,
)
from repro.errors import ReproError
from repro.sim.trace import TraceSet
from repro.system.config import SystemConfig

#: Version stamp written into every result JSON payload.  Bump when the
#: layout changes incompatibly; ``SystemResult.from_payload`` (and hence
#: the on-disk result store) refuses unknown versions.  Schema 2 encodes
#: traces as exact float64 columns (see :meth:`TraceSet.to_payload`);
#: schema 1, whose traces are decimal lists, is still read.
RESULT_SCHEMA = 2
#: The oldest result schema :meth:`SystemResult.from_payload` reads.
OLDEST_RESULT_SCHEMA = 1


@dataclass
class EnergyBreakdown:
    """Joules by source and sink over a run."""

    initial_stored: float = 0.0
    final_stored: float = 0.0
    harvested: float = 0.0
    clipped: float = 0.0  # harvest rejected at the storage voltage clamp
    node_tx: float = 0.0
    node_sleep: float = 0.0
    mcu_sleep: float = 0.0
    mcu_active: float = 0.0
    accelerometer: float = 0.0
    actuator: float = 0.0
    shortfall: float = 0.0  # demanded but unavailable (store empty)

    @property
    def consumed(self) -> float:
        """Total energy drawn from the store."""
        return (
            self.node_tx
            + self.node_sleep
            + self.mcu_sleep
            + self.mcu_active
            + self.accelerometer
            + self.actuator
            - self.shortfall
        )

    @property
    def tuning_overhead(self) -> float:
        """Energy spent on the tuning subsystem (MCU active + peripherals)."""
        return self.mcu_active + self.accelerometer + self.actuator

    def imbalance(self) -> float:
        """Energy-conservation residual; ~0 for a correct simulation."""
        return (
            self.initial_stored + self.harvested - self.consumed - self.final_stored
        )

    def to_payload(self) -> dict:
        """Plain-JSON dictionary of every energy account."""
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_payload(cls, payload: Mapping) -> "EnergyBreakdown":
        """Rebuild a breakdown from :meth:`to_payload` output."""
        return cls(**{f.name: float(payload.get(f.name, 0.0)) for f in fields(cls)})

    def rows(self) -> List[Tuple[str, float]]:
        """(label, joules) rows for reports."""
        return [
            ("initial stored", self.initial_stored),
            ("harvested", self.harvested),
            ("clipped at clamp", self.clipped),
            ("node transmissions", self.node_tx),
            ("node sleep", self.node_sleep),
            ("MCU sleep", self.mcu_sleep),
            ("MCU active", self.mcu_active),
            ("accelerometer", self.accelerometer),
            ("actuator", self.actuator),
            ("final stored", self.final_stored),
        ]


@dataclass
class TuningEvent:
    """One watchdog wake-up and what its session did."""

    time: float
    result: SessionResult
    duration: float
    energy: float

    def to_payload(self) -> dict:
        """Plain-JSON dictionary (the session nests its own payload)."""
        return {
            "time": float(self.time),
            "duration": float(self.duration),
            "energy": float(self.energy),
            "session": self.result.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "TuningEvent":
        """Rebuild an event from :meth:`to_payload` output."""
        return cls(
            time=float(payload.get("time", 0.0)),
            result=SessionResult.from_payload(payload.get("session", {})),
            duration=float(payload.get("duration", 0.0)),
            energy=float(payload.get("energy", 0.0)),
        )


@dataclass
class SystemResult:
    """Outcome of one system simulation."""

    config: SystemConfig
    horizon: float
    transmissions: int
    breakdown: EnergyBreakdown
    traces: TraceSet = field(default_factory=TraceSet)
    tuning_events: List[TuningEvent] = field(default_factory=list)
    final_voltage: float = 0.0
    final_position: float = 0.0

    @property
    def transmissions_per_hour(self) -> float:
        """Figure of merit normalised to one hour."""
        if self.horizon <= 0.0:
            return 0.0
        return self.transmissions * 3600.0 / self.horizon

    def retune_count(self) -> int:
        """Number of wake-ups that actually moved the actuator."""
        return sum(1 for ev in self.tuning_events if ev.result.retuned)

    # -- serialisation --------------------------------------------------------

    def to_payload(self) -> dict:
        """Plain-JSON dictionary (includes the schema version).

        The payload is fully round-trippable: config, headline metrics,
        the complete energy audit, every tuning event and every recorded
        trace come back intact through :meth:`from_payload`.  This is the
        canonical on-disk form used by the result store
        (:mod:`repro.store`) and by ``repro-wsn run-scenario --out``.
        """
        return {
            "schema": RESULT_SCHEMA,
            "config": self.config.to_payload(),
            "horizon": float(self.horizon),
            "transmissions": int(self.transmissions),
            "final_voltage": float(self.final_voltage),
            "final_position": float(self.final_position),
            "breakdown": self.breakdown.to_payload(),
            "tuning_events": [ev.to_payload() for ev in self.tuning_events],
            "traces": self.traces.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SystemResult":
        """Rebuild a result from :meth:`to_payload` output.

        Schemas 1 and 2 are read, and unversioned payloads count as
        schema 1; unknown versions and non-object payloads raise
        :class:`~repro.errors.DesignError`.
        """
        schema = check_document(
            payload, "result", RESULT_SCHEMA, oldest=OLDEST_RESULT_SCHEMA
        )
        return cls(
            config=SystemConfig.from_payload(payload.get("config", {})),
            horizon=float(payload.get("horizon", 0.0)),
            transmissions=int(payload.get("transmissions", 0)),
            breakdown=EnergyBreakdown.from_payload(payload.get("breakdown", {})),
            traces=TraceSet.from_payload(payload.get("traces", {}), schema),
            tuning_events=[
                TuningEvent.from_payload(ev)
                for ev in payload.get("tuning_events", [])
            ],
            final_voltage=float(payload.get("final_voltage", 0.0)),
            final_position=float(payload.get("final_position", 0.0)),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON text of :meth:`to_payload`."""
        return format_json(self.to_payload(), indent)

    @classmethod
    def from_json(cls, text: str) -> "SystemResult":
        """Parse :meth:`to_json` output."""
        return cls.from_payload(parse_json(text, "result file"))

    def save(self, path: Union[str, Path]) -> None:
        """Write the result to a JSON file."""
        write_json(path, self.to_payload())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SystemResult":
        """Read a result from a JSON file."""
        return cls.from_payload(read_json(path, "result file"))

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"config: {self.config.describe()}",
            f"horizon: {self.horizon:.0f} s",
            f"transmissions: {self.transmissions}",
            f"retunes: {self.retune_count()} of {len(self.tuning_events)} wake-ups",
            f"final supercap voltage: {self.final_voltage:.3f} V",
            "energy (mJ):",
        ]
        for label, joules in self.breakdown.rows():
            lines.append(f"  {label:<22s} {joules * 1e3:10.2f}")
        lines.append(f"  imbalance              {self.breakdown.imbalance() * 1e3:10.5f}")
        return "\n".join(lines)


def same_result(held: str, incoming: str) -> bool:
    """Whether two stored payload texts of one content key agree.

    Equal bytes agree.  Texts of different schemas also agree when the
    older one re-encodes (:meth:`SystemResult.from_payload`, then
    :meth:`~SystemResult.to_payload` as canonical JSON) to exactly the
    current-schema text, so a format change never looks like divergent
    rows to a merge.  Anything else, including decoded values that
    differ and malformed text, disagrees -- except a JSON object whose
    result schema this library cannot read: it may be a newer, valid
    result, so the ``DesignError`` naming that schema propagates.
    """
    if held == incoming:
        return True
    try:
        docs = [parse_json(text, "result row") for text in (held, incoming)]
    except ReproError:
        return False
    if not all(isinstance(doc, Mapping) for doc in docs):
        return False
    schemas = [
        check_document(doc, "result", RESULT_SCHEMA, oldest=OLDEST_RESULT_SCHEMA)
        for doc in docs
    ]
    if schemas[0] == schemas[1] or RESULT_SCHEMA not in schemas:
        return False
    current = schemas.index(RESULT_SCHEMA)
    try:
        older = SystemResult.from_payload(docs[1 - current])
        reencoded = canonical_json(older.to_payload())
    except (ReproError, AttributeError, KeyError, TypeError, ValueError):
        return False
    return reencoded == (held, incoming)[current]
