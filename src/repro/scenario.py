"""Declarative, serialisable simulation scenarios.

A :class:`Scenario` is the library's unit of work: one fully specified
node simulation (firmware configuration, physical-system overrides,
excitation profile, horizon, seed, backend) as an immutable value object.
Because scenarios are plain data they can be

- hashed (the :class:`~repro.core.batch.BatchRunner` cache key),
- pickled (fanned out to ``concurrent.futures`` workers),
- round-tripped through JSON (``repro-wsn run-scenario FILE.json``).

``run(scenario)`` (:mod:`repro.backends`) executes one regardless of
backend fidelity.  A small library of named scenarios
(:func:`named_scenario`) covers the paper's evaluation conditions plus
the stress cases used by examples and benches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, List, Mapping, Optional, Union

from repro.documents import (
    canonical_json,
    check_document,
    check_options,
    format_json,
    parse_json,
    read_json,
    write_json,
)
from repro.errors import ConfigError
from repro.registry import Registry
from repro.system.components import SystemParts, paper_system
from repro.system.config import ORIGINAL_DESIGN, SystemConfig
from repro.system.vibration import VibrationProfile

#: Version stamp written into every scenario JSON payload.
SCENARIO_SCHEMA = 1


@dataclass(frozen=True)
class PartsSpec:
    """Declarative overrides for :func:`repro.system.components.paper_system`.

    A scenario cannot carry a live :class:`SystemParts` (parts are mutable
    and stateful -- the actuator moves during a run), so it carries this
    spec instead and every backend builds *fresh* mutable parts (actuator,
    store, node) per run; the immutable physics (tuning map and LUT) is
    the one pair :func:`paper_system` shares per process.  The defaults
    reproduce ``paper_system()`` exactly.
    """

    v_init: float = 2.65
    initial_frequency: float = 64.0
    initial_position: Optional[int] = None

    def __post_init__(self) -> None:
        # Normalise numpy scalars etc. so payloads stay JSON-serialisable.
        object.__setattr__(self, "v_init", float(self.v_init))
        object.__setattr__(self, "initial_frequency", float(self.initial_frequency))
        if self.initial_position is not None:
            object.__setattr__(self, "initial_position", int(self.initial_position))
        if self.v_init <= 0.0:
            raise ConfigError("initial storage voltage must be > 0")
        if self.initial_frequency <= 0.0:
            raise ConfigError("initial frequency must be > 0")

    def build(self) -> SystemParts:
        """Assemble a fresh calibrated system with these overrides."""
        return paper_system(
            v_init=self.v_init,
            initial_position=self.initial_position,
            initial_frequency=self.initial_frequency,
        )

    def to_payload(self) -> dict:
        return {
            "v_init": self.v_init,
            "initial_frequency": self.initial_frequency,
            "initial_position": self.initial_position,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "PartsSpec":
        pos = payload.get("initial_position")
        return cls(
            v_init=float(payload.get("v_init", 2.65)),
            initial_frequency=float(payload.get("initial_frequency", 64.0)),
            initial_position=None if pos is None else int(pos),
        )


@dataclass(frozen=True)
class Scenario:
    """One fully specified simulation run.

    Parameters
    ----------
    config:
        The firmware operating point (Table V parameters).
    parts:
        Physical-system overrides, or ``None`` for the calibrated default
        system.
    profile:
        Excitation profile, or ``None`` for the backend's default (the
        paper profile for the envelope backend, constant 64 Hz for the
        detailed backend -- matching each simulator's constructor).
    horizon:
        Simulated seconds.
    seed:
        Measurement-noise seed.  ``None`` asks the
        :class:`~repro.core.batch.BatchRunner` to derive a deterministic
        per-scenario seed from its own base seed; direct ``run()`` treats
        ``None`` as an unseeded (non-reproducible) stream, exactly like
        the simulator constructors.
    backend:
        Registered backend name (``"envelope"`` or ``"detailed"``).
    options:
        Backend-specific keyword arguments (e.g. ``dt_max`` /
        ``record_traces`` for the envelope backend, ``points_per_cycle``
        for the detailed one).  Values must be JSON scalars; ``None``
        means no options.
    name:
        Optional label carried through reports and batch summaries.
    """

    config: SystemConfig = ORIGINAL_DESIGN
    parts: Optional[PartsSpec] = None
    profile: Optional[VibrationProfile] = None
    horizon: float = 3600.0
    seed: Optional[int] = 0
    backend: str = "envelope"
    options: Mapping[str, object] = field(default_factory=dict)
    name: str = field(default="", compare=False)
    #: :meth:`cache_key`'s memo: not an argument, never compared, hashed,
    #: shown, pickled or serialised, and fresh in every ``replace()``.
    _cache_key: Optional[str] = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        # Normalise numpy scalars (np.int64 seeds from rng.integers are
        # common) so hashing and JSON serialisation never trip on types,
        # and copy the options so later caller-side mutation cannot
        # change this frozen value's hash behind its back.
        object.__setattr__(self, "horizon", float(self.horizon))
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "options", check_options("scenario", self.options))
        if self.horizon <= 0.0:
            raise ConfigError("scenario horizon must be positive")
        if not self.backend or not isinstance(self.backend, str):
            raise ConfigError("scenario backend must be a non-empty string")

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def __getstate__(self) -> dict:
        # A pickled copy derives its own key on first use.
        return {**self.__dict__, "_cache_key": None}

    # -- derived values -------------------------------------------------------

    def with_seed(self, seed: Optional[int]) -> "Scenario":
        """Copy of this scenario with a different seed."""
        return replace(self, seed=seed)

    def build_parts(self) -> Optional[SystemParts]:
        """Fresh parts for one run (``None`` = backend default)."""
        return None if self.parts is None else self.parts.build()

    def describe(self) -> str:
        """One-line human-readable summary."""
        label = f"{self.name}: " if self.name else ""
        return (
            f"{label}{self.config.describe()}, backend={self.backend}, "
            f"horizon={self.horizon:g} s, seed={self.seed}"
        )

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON dictionary (includes the schema version)."""
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "backend": self.backend,
            "config": self.config.to_payload(),
            "parts": None if self.parts is None else self.parts.to_payload(),
            "profile": None if self.profile is None else self.profile.to_payload(),
            "horizon": self.horizon,
            "seed": self.seed,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output.

        Unversioned payloads are accepted as schema 1; unknown versions
        and non-object payloads raise :class:`~repro.errors.DesignError`.
        """
        check_document(payload, "scenario", SCENARIO_SCHEMA)
        parts = payload.get("parts")
        profile = payload.get("profile")
        seed = payload.get("seed", 0)
        return cls(
            config=SystemConfig.from_payload(payload.get("config", {})),
            parts=None if parts is None else PartsSpec.from_payload(parts),
            profile=None if profile is None else VibrationProfile.from_payload(profile),
            horizon=float(payload.get("horizon", 3600.0)),
            seed=None if seed is None else int(seed),
            backend=str(payload.get("backend", "envelope")),
            options=payload.get("options"),
            name=str(payload.get("name", "")),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON text of :meth:`to_dict`."""
        return format_json(self.to_dict(), indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse :meth:`to_json` output."""
        return cls.from_dict(parse_json(text, "scenario file"))

    def save(self, path: Union[str, Path]) -> None:
        """Write the scenario to a JSON file."""
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Scenario":
        """Read a scenario from a JSON file."""
        return cls.from_dict(read_json(path, "scenario file"))

    def cache_key(self) -> str:
        """Content hash: equal-valued scenarios share one key.

        The cosmetic ``name`` label is excluded (as it is from ``==``),
        so re-labelled copies of the same simulation dedupe and hit the
        batch cache.  The scenario is frozen, so the hash is computed
        once per instance.
        """
        if self._cache_key is None:
            payload = self.to_dict()
            del payload["name"]
            key = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
            object.__setattr__(self, "_cache_key", key)
        return self._cache_key


# -- named scenario library ---------------------------------------------------


def _paper() -> Scenario:
    """The paper's section-V evaluation: 60 mg, +5 Hz every 25 minutes."""
    return Scenario(
        name="paper",
        config=ORIGINAL_DESIGN,
        profile=VibrationProfile.paper_profile(),
    )


def _bursty() -> Scenario:
    """Alternating strong/weak excitation: 120 s at 100 mg, 480 s at 20 mg."""
    from repro.units import mg_to_mps2
    from repro.system.vibration import VibrationSegment

    segments = []
    t = 0.0
    f = 64.0
    while t < 3600.0:
        segments.append(VibrationSegment(t, f, mg_to_mps2(100.0)))
        segments.append(VibrationSegment(t + 120.0, f, mg_to_mps2(20.0)))
        t += 600.0
        f += 1.0
    return Scenario(
        name="bursty",
        config=ORIGINAL_DESIGN,
        profile=VibrationProfile(segments),
    )


def _low_vibration() -> Scenario:
    """Weak constant excitation (30 mg at 64 Hz): harvest-starved node."""
    return Scenario(
        name="low-vibration",
        config=ORIGINAL_DESIGN,
        profile=VibrationProfile.constant(64.0, accel_mg=30.0),
    )


def _cold_start() -> Scenario:
    """Storage below every policy threshold: the node must charge first."""
    return Scenario(
        name="cold-start",
        config=ORIGINAL_DESIGN,
        parts=PartsSpec(v_init=2.45),
        profile=VibrationProfile.paper_profile(),
    )


def _long_horizon() -> Scenario:
    """Four hours of the paper profile (frequency keeps stepping)."""
    horizon = 4.0 * 3600.0
    return Scenario(
        name="long-horizon",
        config=ORIGINAL_DESIGN,
        profile=VibrationProfile.paper_profile(horizon=horizon),
        horizon=horizon,
    )


#: Factories for the named scenarios (each call returns a fresh value).
SCENARIO_LIBRARY: Registry[Callable[[], Scenario]] = Registry("scenario")
SCENARIO_LIBRARY.update({
    "paper": _paper,
    "bursty": _bursty,
    "low-vibration": _low_vibration,
    "cold-start": _cold_start,
    "long-horizon": _long_horizon,
})


def scenario_names() -> List[str]:
    """Names accepted by :func:`named_scenario` (deterministic library).

    Stochastic family names (:func:`repro.system.stochastic.family_names`)
    are *also* accepted by :func:`named_scenario` -- they resolve to the
    family's canonical instance -- but are listed separately because one
    name covers a whole distribution of scenarios.
    """
    return SCENARIO_LIBRARY.names()


def named_scenario(name: str) -> Scenario:
    """Instantiate a library scenario by name.

    Accepts both the deterministic :data:`SCENARIO_LIBRARY` names and the
    stochastic family names from
    :data:`repro.system.stochastic.FAMILY_LIBRARY`; a family name yields
    its canonical instance (first replicate at family seed 0), so
    ``repro-wsn run-scenario factory-floor`` works like any other name.
    """
    try:
        factory = SCENARIO_LIBRARY[name]
    except KeyError:
        from repro.system.stochastic import FAMILY_LIBRARY, named_family

        if name in FAMILY_LIBRARY:
            return named_family(name).expand(n=1, seed=0)[0]
        known = ", ".join(scenario_names())
        families = ", ".join(FAMILY_LIBRARY.names())
        raise ConfigError(
            f"unknown scenario {name!r} "
            f"(known: {known}; stochastic families: {families})"
        ) from None
    return factory()
