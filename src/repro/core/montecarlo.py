"""Monte Carlo analysis of a configuration under environment uncertainty.

The paper evaluates each configuration against one fixed vibration
profile; real deployments see scattered conditions.  ``monte_carlo``
samples random environments (acceleration level, starting frequency,
frequency-step sign, initial storage voltage, measurement-noise stream)
and returns the distribution of the figure of merit, so configurations
can be compared by quantiles instead of a single nominal number.

The sampling itself is a :class:`~repro.system.stochastic.ScenarioFamily`
(:class:`EnvironmentFamily` here, or any family passed in -- e.g. one of
the named stochastic families), so the whole study is "expand a family,
fan the expansion out over a :class:`~repro.core.batch.BatchRunner`
(``jobs`` workers) on any registered backend".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.backends import quiet_options
from repro.core.batch import BatchRunner
from repro.errors import ConfigError
from repro.rng import SeedLike, derive_seed, ensure_rng, seed_base
from repro.scenario import PartsSpec, Scenario
from repro.system.config import ORIGINAL_DESIGN, SystemConfig
from repro.system.stochastic import ScenarioFamily
from repro.system.vibration import VibrationProfile

#: Stream components mirroring :mod:`repro.system.stochastic`: the
#: serial environment-sampling stream and the per-sample noise seeds
#: are decorrelated sub-streams of the one family seed.
_ENV_STREAM = 0
_NOISE_STREAM = 1


@dataclass(frozen=True)
class EnvironmentModel:
    """Sampling ranges for the uncertain environment."""

    accel_mg: "tuple[float, float]" = (55.0, 65.0)
    f_start: "tuple[float, float]" = (62.0, 72.0)
    f_step_abs: float = 5.0
    step_period: "tuple[float, float]" = (1200.0, 1800.0)
    v_init: "tuple[float, float]" = (2.60, 2.75)

    def sample(self, rng: np.random.Generator) -> "tuple[VibrationProfile, float]":
        """Draw one (profile, initial voltage) environment."""
        accel = rng.uniform(*self.accel_mg)
        f0 = rng.uniform(*self.f_start)
        step = self.f_step_abs * (1.0 if rng.uniform() < 0.5 else -1.0)
        # Keep the walk inside the 60-80 Hz tunable band.
        if f0 + 2 * step < 60.0 or f0 + 2 * step > 80.0:
            step = -step
        period = rng.uniform(*self.step_period)
        profile = VibrationProfile.paper_profile(
            f_start=f0, f_step=step, step_period=period, accel_mg=accel
        )
        return profile, rng.uniform(*self.v_init)


@dataclass(frozen=True, eq=False)
class EnvironmentFamily(ScenarioFamily):
    """The Monte Carlo sampling model as a scenario family.

    ``expand(n, seed)`` draws ``n`` environments from one serial rng
    stream (seeded ``derive_seed(seed, 0)``) -- sample ``i`` depends
    only on the samples before it, so growing ``n`` extends the list
    without changing the existing prefix -- and gives scenario ``i``
    the measurement-noise seed ``derive_seed(seed, i, 1)``, the same
    ``(seed, index, stream)`` discipline as
    :class:`~repro.system.stochastic.StochasticFamily`, making the
    study reproducible for any worker count.
    """

    environment: EnvironmentModel = field(default_factory=EnvironmentModel)
    config: SystemConfig = ORIGINAL_DESIGN
    horizon: float = 3600.0
    backend: str = "envelope"
    name: str = "monte-carlo"

    def expand(self, n: int = 1, seed: SeedLike = 0) -> List[Scenario]:
        if n < 1:
            raise ConfigError("need at least one Monte Carlo sample")
        # Same seed discipline as StochasticFamily.expand: the
        # environment stream and the per-sample measurement-noise seeds
        # come from ``derive_seed(base, ...)``.
        base = seed_base(seed)
        rng = ensure_rng(derive_seed(base, _ENV_STREAM))
        scenarios: List[Scenario] = []
        for i in range(n):
            profile, v_init = self.environment.sample(rng)
            scenarios.append(
                Scenario(
                    config=self.config,
                    parts=PartsSpec(
                        v_init=v_init, initial_frequency=profile.frequency(0.0)
                    ),
                    profile=profile,
                    horizon=self.horizon,
                    seed=derive_seed(base, i, _NOISE_STREAM),
                    backend=self.backend,
                    options=quiet_options(self.backend),
                    name=f"mc-{i}",
                )
            )
        return scenarios


@dataclass
class MonteCarloResult:
    """Distribution of the figure of merit across sampled environments."""

    config: SystemConfig
    transmissions: np.ndarray
    final_voltages: np.ndarray

    @property
    def n_samples(self) -> int:
        return len(self.transmissions)

    @property
    def mean(self) -> float:
        return float(np.mean(self.transmissions))

    @property
    def std(self) -> float:
        return float(np.std(self.transmissions))

    def quantile(self, q: float) -> float:
        """Transmission quantile (q in [0, 1])."""
        return float(np.quantile(self.transmissions, q))

    def summary(self) -> str:
        """One-line distribution report."""
        return (
            f"{self.config.describe()}: mean {self.mean:.0f} tx, "
            f"p10 {self.quantile(0.1):.0f}, median {self.quantile(0.5):.0f}, "
            f"p90 {self.quantile(0.9):.0f} over {self.n_samples} environments"
        )


def monte_carlo(
    config: SystemConfig,
    n_samples: int = 20,
    environment: Optional[EnvironmentModel] = None,
    horizon: Optional[float] = None,
    seed: SeedLike = 0,
    jobs: int = 1,
    backend: Optional[str] = None,
    family: Optional[ScenarioFamily] = None,
    store=None,
) -> MonteCarloResult:
    """Simulate ``config`` across ``n_samples`` random environments.

    The environments come from a scenario family: by default an
    :class:`EnvironmentFamily` built from ``environment`` (uniform
    paper-profile perturbations), or any family passed as ``family`` --
    e.g. ``repro.named_family("factory-floor")`` for a Markov
    regime-switching study.  ``config`` (and ``horizon`` / ``backend``
    when given) is rebound onto the family, so the study always
    evaluates *this* configuration under the family's environment.  The
    expansion executes as one scenario batch on ``jobs`` workers;
    results are independent of the worker count because every scenario
    carries its own derived seed.  ``store`` (a
    :class:`~repro.store.ResultStore`) persists every sample, so a
    repeated or widened study only simulates what is new.
    """
    import dataclasses

    if n_samples < 1:
        raise ConfigError("need at least one Monte Carlo sample")
    if family is None:
        family = EnvironmentFamily(
            environment=environment or EnvironmentModel(),
            config=config,
            horizon=3600.0 if horizon is None else horizon,
            backend=backend or "envelope",
        )
    elif dataclasses.is_dataclass(family):
        names = {f.name for f in dataclasses.fields(family)}
        overrides = {
            key: value
            for key, value in (
                ("config", config),
                ("horizon", horizon),
                ("backend", backend),
            )
            if value is not None and key in names
        }
        if overrides:
            family = dataclasses.replace(family, **overrides)
    scenarios = family.expand(n=n_samples, seed=seed)
    results = BatchRunner(jobs=jobs, cache_size=0, store=store).run(scenarios)
    return MonteCarloResult(
        config=config,
        transmissions=np.asarray([r.transmissions for r in results], dtype=float),
        final_voltages=np.asarray([r.final_voltage for r in results], dtype=float),
    )
