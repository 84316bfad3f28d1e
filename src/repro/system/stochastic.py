"""Stochastic vibration environments and scenario families.

The paper evaluates the node under one scripted excitation (60 mg with
+5 Hz steps every 25 minutes, Fig. 5).  This module is the
scenario-diversity engine on top of that: parameterised random-process
generators that emit *deterministic, seed-derived*
:class:`~repro.system.vibration.VibrationProfile` values, and composable
:class:`ScenarioFamily` objects that expand into concrete
:class:`~repro.scenario.Scenario` lists ready for a
:class:`~repro.core.batch.BatchRunner`.

Generators
----------
:class:`RegimeSwitchingVibration` models a vibration environment as a
Markov chain over named :class:`EnvironmentState` regimes (idle,
machinery-on, transient...), each with its own frequency band,
acceleration band and dwell-time range.  On top of the regime process it
layers

- **Gaussian amplitude jitter** per emitted segment,
- **slow frequency drift** (a bounded random walk shared across
  regimes, modelling temperature/load drift of the host structure), and
- **dropout / burst segments** (excitation briefly dies or spikes).

Everything is driven by one :class:`numpy.random.Generator`, so the same
seed always produces byte-identical segment lists, on every platform.

Families
--------
A :class:`ScenarioFamily` is a recipe for a set of scenarios:
``family.expand(n, seed)`` returns ``grid-points x n`` fully-specified
scenarios whose profile seeds and measurement-noise seeds are both
derived from ``(seed, grid_index, replicate)`` via
:func:`repro.rng.derive_seed`.  Expansion is pure: the same family, ``n``
and ``seed`` produce bit-identical scenario lists, which is what makes
batch results reproducible for any worker count.

Five stochastic families ship in :data:`FAMILY_LIBRARY`
(``factory-floor``, ``vehicle``, ``hvac``, ``intermittent``,
``worst-case-drift``); ``repro-wsn gen-scenarios FAMILY --n N --seed S``
writes their expansions as JSON manifests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigError, DesignError, ModelError
from repro.rng import SeedLike, derive_seed, ensure_rng
from repro.scenario import PartsSpec, Scenario
from repro.system.config import ORIGINAL_DESIGN, SystemConfig
from repro.system.vibration import VibrationProfile, VibrationSegment
from repro.units import mg_to_mps2

#: Version stamp written into every expansion manifest.
MANIFEST_SCHEMA = 1

#: Salt separating the profile-generation stream from the
#: measurement-noise stream of the same (seed, grid, replicate) triple.
_PROFILE_STREAM = 0
_NOISE_STREAM = 1


def _pair(value, what: str) -> Tuple[float, float]:
    """Normalise a (lo, hi) range, accepting a bare scalar as (x, x)."""
    if isinstance(value, (int, float)):
        value = (float(value), float(value))
    lo, hi = float(value[0]), float(value[1])
    if hi < lo:
        raise ModelError(f"{what} range must satisfy lo <= hi, got ({lo:g}, {hi:g})")
    return (lo, hi)


@dataclass(frozen=True)
class EnvironmentState:
    """One regime of a vibration environment.

    Parameters
    ----------
    name:
        Label carried into diagnostics.
    frequency_hz:
        Uniform range the regime's base frequency is drawn from at each
        regime entry.
    accel_mg:
        Uniform range for the regime's base acceleration (milli-g).
    dwell_s:
        Uniform range for how long the chain stays in this regime.
    """

    name: str
    frequency_hz: Tuple[float, float]
    accel_mg: Tuple[float, float]
    dwell_s: Tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "frequency_hz", _pair(self.frequency_hz, "frequency"))
        object.__setattr__(self, "accel_mg", _pair(self.accel_mg, "acceleration"))
        object.__setattr__(self, "dwell_s", _pair(self.dwell_s, "dwell time"))
        if self.frequency_hz[0] <= 0.0:
            raise ModelError("regime frequencies must be > 0")
        if self.accel_mg[0] < 0.0:
            raise ModelError("regime acceleration must be >= 0")
        if self.dwell_s[0] <= 0.0:
            raise ModelError("regime dwell times must be > 0")


@dataclass(frozen=True)
class RegimeSwitchingVibration:
    """Markov regime-switching vibration-profile generator.

    Parameters
    ----------
    states:
        The environment regimes.
    transitions:
        Row-stochastic matrix ``transitions[i][j]`` = probability of
        moving from regime ``i`` to regime ``j`` when a dwell ends.
        ``None`` means uniform over the *other* states (always leave).
    jitter_mg:
        Standard deviation of per-segment Gaussian amplitude jitter.
    drift_hz_per_hour:
        RMS slow frequency drift accumulated per hour (a bounded random
        walk added to every regime's base frequency).
    drift_band_hz:
        Hard clamp for base + drift, keeping frequencies physical; the
        default brackets the harvester's 60-80 Hz tunable band.
    dropout_prob:
        Per-segment probability the excitation dies (acceleration -> 0).
    burst_prob:
        Per-segment probability of an amplitude burst.
    burst_gain:
        Multiplier applied to a burst segment's amplitude.
    resolution_s:
        Emitted segment length: jitter, drift, dropout and burst are
        re-drawn on this grid inside each regime dwell.
    """

    states: Tuple[EnvironmentState, ...]
    transitions: Optional[Tuple[Tuple[float, ...], ...]] = None
    jitter_mg: float = 0.0
    drift_hz_per_hour: float = 0.0
    drift_band_hz: Tuple[float, float] = (55.0, 85.0)
    dropout_prob: float = 0.0
    burst_prob: float = 0.0
    burst_gain: float = 2.0
    resolution_s: float = 30.0

    def __post_init__(self) -> None:
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if not states:
            raise ModelError("generator needs at least one environment state")
        object.__setattr__(self, "drift_band_hz", _pair(self.drift_band_hz, "drift band"))
        if self.drift_band_hz[0] <= 0.0:
            raise ModelError("drift band must be positive")
        # The band clamps base + drift during generation; a regime whose
        # own frequency range pokes outside it would be silently rewritten
        # to the band edge, so reject the configuration instead.
        lo_b, hi_b = self.drift_band_hz
        for state in states:
            lo_f, hi_f = state.frequency_hz
            if lo_f < lo_b or hi_f > hi_b:
                raise ModelError(
                    f"regime {state.name!r} frequency range ({lo_f:g}, {hi_f:g}) Hz "
                    f"lies outside drift_band_hz ({lo_b:g}, {hi_b:g}); widen the "
                    f"band or move the regime"
                )
        if self.jitter_mg < 0.0 or self.drift_hz_per_hour < 0.0:
            raise ModelError("jitter and drift magnitudes must be >= 0")
        if not 0.0 <= self.dropout_prob <= 1.0 or not 0.0 <= self.burst_prob <= 1.0:
            raise ModelError("dropout/burst probabilities must be in [0, 1]")
        if self.dropout_prob + self.burst_prob > 1.0:
            raise ModelError("dropout_prob + burst_prob must be <= 1")
        if self.burst_gain < 0.0:
            raise ModelError("burst_gain must be >= 0")
        if self.resolution_s <= 0.0:
            raise ModelError("resolution_s must be > 0")
        if self.transitions is not None:
            rows = tuple(tuple(float(p) for p in row) for row in self.transitions)
            object.__setattr__(self, "transitions", rows)
            n = len(states)
            if len(rows) != n or any(len(row) != n for row in rows):
                raise ModelError(
                    f"transition matrix must be {n}x{n} to match the states"
                )
            for i, row in enumerate(rows):
                if any(p < 0.0 for p in row) or not math.isclose(
                    sum(row), 1.0, abs_tol=1e-9
                ):
                    raise ModelError(
                        f"transition row {i} must be non-negative and sum to 1"
                    )

    # -- generation -----------------------------------------------------------

    def generate(self, horizon: float, seed: SeedLike = 0) -> VibrationProfile:
        """Emit one deterministic profile covering ``[0, horizon]``.

        The same ``seed`` always yields an identical segment list; pass a
        live generator to continue an existing stream.
        """
        if horizon <= 0.0:
            raise ModelError("generation horizon must be positive")
        rng = ensure_rng(seed)
        n = len(self.states)
        state_i = int(rng.integers(n))
        # Per-step drift so that the walk's RMS after one hour equals
        # drift_hz_per_hour regardless of the segment resolution.
        steps_per_hour = 3600.0 / self.resolution_s
        drift_step = self.drift_hz_per_hour / math.sqrt(max(steps_per_hour, 1.0))
        drift = 0.0
        lo_f, hi_f = self.drift_band_hz

        segments: List[VibrationSegment] = []
        t = 0.0
        while t < horizon:
            state = self.states[state_i]
            dwell = float(rng.uniform(*state.dwell_s))
            base_f = float(rng.uniform(*state.frequency_hz))
            base_a = float(rng.uniform(*state.accel_mg))
            t_end = min(t + dwell, horizon)
            while t < t_end - 1e-9:
                accel = base_a
                if self.jitter_mg > 0.0:
                    accel += float(rng.normal(0.0, self.jitter_mg))
                if self.drift_hz_per_hour > 0.0:
                    drift += float(rng.normal(0.0, drift_step))
                u = float(rng.uniform())
                if u < self.dropout_prob:
                    accel = 0.0
                elif u < self.dropout_prob + self.burst_prob:
                    accel *= self.burst_gain
                freq = min(max(base_f + drift, lo_f), hi_f)
                segments.append(
                    VibrationSegment(t, freq, mg_to_mps2(max(accel, 0.0)))
                )
                t += self.resolution_s
            t = t_end
            state_i = self._next_state(state_i, rng)
        return VibrationProfile(segments)

    def _next_state(self, current: int, rng) -> int:
        n = len(self.states)
        if n == 1:
            return 0
        if self.transitions is None:
            # Uniform over the other states: regimes always hand over.
            step = int(rng.integers(1, n))
            return (current + step) % n
        u = float(rng.uniform())
        acc = 0.0
        for j, p in enumerate(self.transitions[current]):
            acc += p
            if u < acc:
                return j
        return n - 1


# -- scenario families --------------------------------------------------------


class ScenarioFamily:
    """Base class: a deterministic recipe for a list of scenarios.

    Subclasses implement :meth:`expand`; everything else (manifests, the
    CLI, :meth:`repro.core.batch.BatchRunner.run_family`) is generic.
    Expansion must be pure -- the same ``(n, seed)`` always returns a
    bit-identical scenario list -- which is what lets batches of family
    members reproduce for any worker count.
    """

    #: Subclasses provide the family label (dataclass field or attribute).
    name: str

    def expand(self, n: int = 1, seed: SeedLike = 0) -> List[Scenario]:
        """Materialise ``n`` replicates per grid point."""
        raise NotImplementedError

    def manifest(self, n: int = 1, seed: int = 0) -> dict:
        """JSON-ready expansion manifest (family, inputs, scenarios)."""
        scenarios = self.expand(n=n, seed=seed)
        return {
            "schema": MANIFEST_SCHEMA,
            "family": self.name,
            "n": int(n),
            "seed": int(seed),
            "count": len(scenarios),
            "scenarios": [s.to_dict() for s in scenarios],
        }


@dataclass(frozen=True, eq=False)
class StochasticFamily(ScenarioFamily):
    """A stochastic environment crossed with a configuration grid.

    ``expand(n, seed)`` walks the cross-product of the ``grid`` axes
    (fields of :class:`~repro.system.config.SystemConfig`) and emits
    ``n`` replicates per grid point.  Replicate ``r`` of grid point ``g``
    draws its vibration profile and its initial storage voltage from
    ``derive_seed(seed, g, r, 0)`` and runs its measurement noise on
    ``derive_seed(seed, g, r, 1)``, so profiles and noise are independent
    streams but both fully determined by the family seed.
    """

    name: str
    generator: RegimeSwitchingVibration
    config: SystemConfig = ORIGINAL_DESIGN
    horizon: float = 3600.0
    backend: str = "envelope"
    v_init: Tuple[float, float] = (2.65, 2.65)
    grid: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()
    options: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("family name must be non-empty")
        if self.horizon <= 0.0:
            raise ConfigError("family horizon must be positive")
        object.__setattr__(self, "v_init", _pair(self.v_init, "v_init"))
        if isinstance(self.grid, Mapping):
            grid = tuple(self.grid.items())
        else:
            grid = tuple(self.grid)
        grid = tuple((str(k), tuple(float(v) for v in vs)) for k, vs in grid)
        valid = {"clock_hz", "watchdog_s", "tx_interval_s"}
        for axis, values in grid:
            if axis not in valid:
                raise ConfigError(
                    f"unknown grid axis {axis!r} (known: {', '.join(sorted(valid))})"
                )
            if not values:
                raise ConfigError(f"grid axis {axis!r} needs at least one value")
        object.__setattr__(self, "grid", grid)
        if isinstance(self.options, Mapping):
            object.__setattr__(self, "options", tuple(self.options.items()))
        else:
            object.__setattr__(self, "options", tuple(self.options))

    # -- expansion ------------------------------------------------------------

    def grid_points(self) -> List[Dict[str, float]]:
        """The cross-product of the grid axes as config-field overrides."""
        points: List[Dict[str, float]] = [{}]
        for axis, values in self.grid:
            points = [{**p, axis: v} for p in points for v in values]
        return points

    def expand(self, n: int = 1, seed: SeedLike = 0) -> List[Scenario]:
        if n < 1:
            raise ConfigError("need at least one replicate per grid point")
        base = 0 if seed is None else seed
        if not isinstance(base, int):
            # A live generator seeds the whole expansion once, keeping
            # the per-replicate derivation below deterministic.
            base = int(ensure_rng(base).integers(0, 2**31 - 1))
        scenarios: List[Scenario] = []
        options = dict(self.options)
        for g, overrides in enumerate(self.grid_points()):
            config = (
                replace(self.config, **overrides) if overrides else self.config
            )
            for r in range(n):
                env_rng = ensure_rng(derive_seed(base, g, r, _PROFILE_STREAM))
                profile = self.generator.generate(self.horizon, env_rng)
                lo, hi = self.v_init
                v0 = lo if hi <= lo else float(env_rng.uniform(lo, hi))
                scenarios.append(
                    Scenario(
                        config=config,
                        parts=PartsSpec(
                            v_init=v0, initial_frequency=profile.frequency(0.0)
                        ),
                        profile=profile,
                        horizon=self.horizon,
                        seed=derive_seed(base, g, r, _NOISE_STREAM),
                        backend=self.backend,
                        options=options,
                        name=f"{self.name}/g{g}r{r}",
                    )
                )
        return scenarios


@dataclass(frozen=True, eq=False)
class FixedFamily(ScenarioFamily):
    """A family over an explicit scenario list (the degenerate grid).

    Wraps hand-built scenario grids (e.g. the robustness study's
    one-factor-at-a-time perturbations) in the family interface.
    Replicate 0 keeps each base scenario's own seed (or takes the family
    seed verbatim when the base has none); additional replicates get
    seeds derived from ``(seed, grid_index, replicate)``.
    """

    name: str
    scenarios: Tuple[Scenario, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios:
            raise ConfigError("fixed family needs at least one scenario")

    def expand(self, n: int = 1, seed: SeedLike = 0) -> List[Scenario]:
        if n < 1:
            raise ConfigError("need at least one replicate per grid point")
        base = 0 if seed is None else int(seed) if isinstance(seed, int) else int(
            ensure_rng(seed).integers(0, 2**31 - 1)
        )
        out: List[Scenario] = []
        for g, scenario in enumerate(self.scenarios):
            for r in range(n):
                if r == 0:
                    s = (
                        scenario
                        if scenario.seed is not None
                        else scenario.with_seed(base)
                    )
                else:
                    s = replace(
                        scenario,
                        seed=derive_seed(base, g, r),
                        name=f"{scenario.name}/r{r}",
                    )
                out.append(s)
        return out


def manifest_scenarios(payload: Mapping) -> List[Scenario]:
    """Rebuild the scenario list from a :meth:`ScenarioFamily.manifest`.

    Accepts the parsed JSON object; unknown schema versions and
    non-manifest payloads raise :class:`~repro.errors.DesignError`.
    """
    if not isinstance(payload, Mapping) or "scenarios" not in payload:
        raise DesignError(
            "payload is not a scenario manifest (no 'scenarios' list)"
        )
    schema = payload.get("schema", MANIFEST_SCHEMA)
    if schema != MANIFEST_SCHEMA:
        raise DesignError(
            f"unsupported manifest schema {schema!r} "
            f"(this library reads schema {MANIFEST_SCHEMA})"
        )
    return [Scenario.from_dict(entry) for entry in payload["scenarios"]]


def manifest_name(payload: Mapping) -> Optional[str]:
    """Default campaign name of a manifest, or ``None`` if it has none.

    The manifest's own ``name`` wins; otherwise ``FAMILY-nN-sSEED`` with
    the :meth:`ScenarioFamily.manifest` defaults (``n`` 1, ``seed`` 0).
    The CLI, the job queue and the coordinator all name through here,
    so one manifest journals under one name on every path.
    """
    if payload.get("name"):
        return str(payload["name"])
    if payload.get("family"):
        return (
            f"{payload['family']}-n{payload.get('n', 1)}"
            f"-s{payload.get('seed', 0)}"
        )
    return None


# -- named family library -----------------------------------------------------


# The harvester's usable bandwidth is well under 1 Hz and a full-band
# actuator move costs ~250 mJ (a third of the 2.6->2.65 V headroom), so
# viable environments keep regime frequencies within a few Hz of each
# other, hold them for several watchdog periods (320 s default), and
# carry enough acceleration in the productive regimes to pay for the
# retunes.  ``worst-case-drift`` deliberately violates all of that.


def _factory_floor() -> StochasticFamily:
    """Shop-floor machinery: long production runs, idle gaps, fork-lift
    transients, mild mains-locked drift."""
    return StochasticFamily(
        name="factory-floor",
        generator=RegimeSwitchingVibration(
            states=(
                EnvironmentState("idle", (63.0, 64.0), (5.0, 15.0), (180.0, 600.0)),
                EnvironmentState(
                    "machining", (64.0, 66.0), (75.0, 110.0), (600.0, 1800.0)
                ),
                EnvironmentState(
                    "transport", (65.0, 68.0), (30.0, 60.0), (120.0, 360.0)
                ),
            ),
            transitions=(
                (0.10, 0.70, 0.20),
                (0.25, 0.60, 0.15),
                (0.40, 0.40, 0.20),
            ),
            jitter_mg=5.0,
            drift_hz_per_hour=0.5,
            dropout_prob=0.02,
        ),
        v_init=(2.70, 2.80),
    )


def _vehicle() -> StochasticFamily:
    """Vehicle-mounted node: idle / cruise / rough-road regimes with
    engine-order frequency wander and pothole bursts."""
    return StochasticFamily(
        name="vehicle",
        generator=RegimeSwitchingVibration(
            states=(
                EnvironmentState("idle", (63.0, 64.5), (10.0, 25.0), (60.0, 240.0)),
                EnvironmentState(
                    "cruise", (64.0, 67.0), (50.0, 80.0), (300.0, 1200.0)
                ),
                EnvironmentState(
                    "rough-road", (63.0, 69.0), (90.0, 130.0), (60.0, 180.0)
                ),
            ),
            jitter_mg=10.0,
            drift_hz_per_hour=1.0,
            burst_prob=0.05,
            burst_gain=1.8,
            resolution_s=15.0,
        ),
        v_init=(2.70, 2.80),
    )


def _hvac() -> StochasticFamily:
    """Building HVAC duct: fan cycling between off and on with very
    stable excitation while running."""
    return StochasticFamily(
        name="hvac",
        generator=RegimeSwitchingVibration(
            states=(
                EnvironmentState(
                    "fan-off", (63.5, 64.5), (2.0, 8.0), (300.0, 900.0)
                ),
                EnvironmentState(
                    "fan-on", (64.0, 66.0), (45.0, 65.0), (900.0, 2700.0)
                ),
            ),
            jitter_mg=2.0,
            drift_hz_per_hour=0.3,
            resolution_s=60.0,
        ),
        v_init=(2.70, 2.78),
    )


def _intermittent() -> StochasticFamily:
    """Duty-cycled source: strong bursts separated by dead stretches,
    plus heavy random dropouts inside the bursts."""
    return StochasticFamily(
        name="intermittent",
        generator=RegimeSwitchingVibration(
            states=(
                EnvironmentState(
                    "burst", (64.0, 67.0), (70.0, 100.0), (120.0, 400.0)
                ),
                EnvironmentState("dead", (63.0, 65.0), (0.0, 3.0), (60.0, 300.0)),
            ),
            jitter_mg=4.0,
            dropout_prob=0.10,
            burst_prob=0.05,
            burst_gain=1.5,
        ),
        v_init=(2.68, 2.78),
    )


def _worst_case_drift() -> StochasticFamily:
    """Adversarial tuner stressor: weak excitation whose frequency walks
    across the whole 60-80 Hz tunable band as fast as is plausible, so
    every retune is expensive and soon stale."""
    return StochasticFamily(
        name="worst-case-drift",
        generator=RegimeSwitchingVibration(
            states=(
                EnvironmentState("drift", (60.0, 80.0), (40.0, 60.0), (120.0, 300.0)),
            ),
            jitter_mg=8.0,
            drift_hz_per_hour=15.0,
            drift_band_hz=(58.0, 82.0),
            resolution_s=15.0,
        ),
        v_init=(2.65, 2.75),
    )


#: Factories for the named stochastic families (fresh value per call).
FAMILY_LIBRARY: Dict[str, Callable[[], StochasticFamily]] = {
    "factory-floor": _factory_floor,
    "vehicle": _vehicle,
    "hvac": _hvac,
    "intermittent": _intermittent,
    "worst-case-drift": _worst_case_drift,
}


def family_names() -> List[str]:
    """Names accepted by :func:`named_family`."""
    return sorted(FAMILY_LIBRARY)


def named_family(name: str) -> StochasticFamily:
    """Instantiate a library scenario family by name."""
    try:
        factory = FAMILY_LIBRARY[name]
    except KeyError:
        known = ", ".join(family_names())
        raise ConfigError(f"unknown scenario family {name!r} (known: {known})") from None
    return factory()
