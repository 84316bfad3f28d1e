"""System configuration: the three optimisation parameters (Table V).

==============================  ===============  =============
Description                     Value range      Coded symbol
==============================  ===============  =============
Microcontroller clock (Hz)      125 k - 8 M      x1
Watchdog wake-up period (s)     60 - 600         x2
Transmission interval (s)       0.005 - 10       x3
==============================  ===============  =============

The original design (Table VI, first column) is 4 MHz / 320 s / 5 s.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Sequence

from repro.errors import ConfigError
from repro.rsm.coding import Parameter, ParameterSpace

#: Table V ranges.
CLOCK_RANGE_HZ = (125e3, 8e6)
WATCHDOG_RANGE_S = (60.0, 600.0)
TX_INTERVAL_RANGE_S = (0.005, 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """One operating point of the node firmware.

    Parameters
    ----------
    clock_hz:
        Microcontroller clock frequency.
    watchdog_s:
        Watchdog wake-up period (Algorithm 1, step 2).
    tx_interval_s:
        Transmission interval when the supercap is above 2.8 V (Table II).
    """

    clock_hz: float = 4e6
    watchdog_s: float = 320.0
    tx_interval_s: float = 5.0

    def __post_init__(self) -> None:
        if self.clock_hz <= 0.0:
            raise ConfigError("clock frequency must be > 0")
        if self.watchdog_s <= 0.0:
            raise ConfigError("watchdog period must be > 0")
        if self.tx_interval_s <= 0.0:
            raise ConfigError("transmission interval must be > 0")

    def as_vector(self) -> "list[float]":
        """Natural-units vector in Table V order."""
        return [self.clock_hz, self.watchdog_s, self.tx_interval_s]

    @staticmethod
    def from_vector(values: Sequence[float]) -> "SystemConfig":
        """Build a config from a Table V-ordered natural vector."""
        if len(values) != 3:
            raise ConfigError(f"expected 3 values, got {len(values)}")
        return SystemConfig(
            clock_hz=float(values[0]),
            watchdog_s=float(values[1]),
            tx_interval_s=float(values[2]),
        )

    def to_payload(self) -> dict:
        """Plain-JSON dictionary (scenario and result documents embed it)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SystemConfig":
        """Rebuild from :meth:`to_payload` output; a missing knob defaults."""
        return cls(
            **{f.name: float(payload.get(f.name, f.default)) for f in fields(cls)}
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"clock={self.clock_hz / 1e6:g} MHz, watchdog={self.watchdog_s:g} s, "
            f"tx_interval={self.tx_interval_s:g} s"
        )


#: The paper's original design (Table VI).
ORIGINAL_DESIGN = SystemConfig(clock_hz=4e6, watchdog_s=320.0, tx_interval_s=5.0)


def paper_parameter_space() -> ParameterSpace:
    """The Table V design space with the paper's coded symbols."""
    return ParameterSpace(
        [
            Parameter("clock_hz", *CLOCK_RANGE_HZ, coded_symbol="x1", unit="Hz"),
            Parameter("watchdog_s", *WATCHDOG_RANGE_S, coded_symbol="x2", unit="s"),
            Parameter(
                "tx_interval_s", *TX_INTERVAL_RANGE_S, coded_symbol="x3", unit="s"
            ),
        ]
    )


def config_from_coded(coded: Sequence[float]) -> SystemConfig:
    """Coded [-1, 1]^3 point -> :class:`SystemConfig` (clipped to bounds)."""
    space = paper_parameter_space()
    natural = space.to_natural(space.clip_coded(list(coded)))
    return SystemConfig.from_vector(list(natural))
