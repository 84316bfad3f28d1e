"""The simulation objective: coded point -> transmissions per hour.

Wraps the simulation backends behind a cached, coded-variable callable so
the DOE driver, the RSM verifier and the optimisers all evaluate the same
thing.  Three design decisions worth knowing:

- **Common random numbers**: every evaluation uses the *same* base seed,
  so two configurations are compared under identical measurement-noise
  draws.  This is the standard variance-reduction choice for simulation
  optimisation and makes the whole flow reproducible.
- **Caching**: evaluations are memoised on the rounded coded point;
  verification re-runs of design points are free.
- **Scenario dispatch**: every evaluation is a
  :class:`~repro.scenario.Scenario` executed through a
  :class:`~repro.core.batch.BatchRunner`, so any registered backend works
  (``backend="detailed"``) and whole design matrices fan out over
  ``jobs`` workers.  Custom hardware that a
  :class:`~repro.scenario.PartsSpec` cannot describe is a registered
  backend that builds its own parts (``examples/custom_harvester.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.batch import BatchRunner
from repro.registry import Registry
from repro.rng import derive_seed
from repro.rsm.coding import ParameterSpace
from repro.scenario import PartsSpec, Scenario
from repro.system.config import SystemConfig, paper_parameter_space
from repro.system.result import SystemResult
from repro.system.vibration import VibrationProfile

#: Named objective metrics: how one :class:`SystemResult` becomes the
#: scalar the DOE/RSM/optimiser pipeline maximises.  ``transmissions``
#: is the paper's figure of merit; the others let a declarative
#: :class:`~repro.core.study.StudySpec` study different responses of the
#: same simulations.
METRICS: Registry[Callable[[SystemResult], float]] = Registry("metric")
METRICS.update({
    "transmissions": lambda r: float(r.transmissions),
    "transmissions-per-hour": lambda r: float(r.transmissions_per_hour),
    "final-voltage": lambda r: float(r.final_voltage),
})


#: Decimals the coded point is rounded to for the memo key.
CACHE_DECIMALS = 9


def metric_names() -> "list[str]":
    """Names accepted by ``SimulationObjective(metric=...)``."""
    return METRICS.names()


def get_metric(name: str) -> Callable[[SystemResult], float]:
    """The metric extractor registered under ``name``."""
    return METRICS.lookup(name)


class SimulationObjective:
    """Callable objective over coded [-1, 1]^3 points.

    Parameters
    ----------
    space, horizon, seed:
        The coded box, simulated seconds and common-random-numbers base
        seed.
    profile_factory:
        Zero-argument callable returning the excitation profile for each
        evaluation (default: the paper profile).
    parts:
        Optional :class:`~repro.scenario.PartsSpec` every evaluation's
        scenario carries (default: the calibrated paper system).
    backend:
        Registered backend name used for every evaluation; register a
        backend to explore hardware a ``PartsSpec`` cannot describe.
    jobs:
        Worker count for :meth:`evaluate_design` batches.
    store:
        Optional :class:`~repro.store.ResultStore` attached to the
        internal :class:`~repro.core.batch.BatchRunner`: design-point
        simulations are then persisted and shared across runs, so a
        repeated exploration (same seed, same horizon) re-simulates
        nothing.
    metric:
        Named :data:`METRICS` entry extracting the scalar objective from
        each :class:`SystemResult` (default: the paper's transmission
        count).
    """

    def __init__(
        self,
        space: Optional[ParameterSpace] = None,
        horizon: float = 3600.0,
        seed: int = 0,
        profile_factory: Optional[Callable[[], VibrationProfile]] = None,
        parts: Optional[PartsSpec] = None,
        backend: str = "envelope",
        jobs: int = 1,
        store=None,
        metric: str = "transmissions",
    ):
        self.space = space or paper_parameter_space()
        self.horizon = horizon
        self.seed = seed
        self.profile_factory = profile_factory or VibrationProfile.paper_profile
        self.parts_spec = parts
        self.backend = backend
        self.jobs = int(jobs)
        self.metric = metric
        self._metric_fn = get_metric(metric)
        self._runner = BatchRunner(jobs=self.jobs, seed=seed, store=store)
        self._cache: Dict[Tuple[float, ...], float] = {}
        self.n_simulations = 0

    # -- evaluation ------------------------------------------------------------

    def config_from_coded(self, coded: np.ndarray) -> SystemConfig:
        """Translate a coded point to a natural-units configuration."""
        natural = self.space.to_natural(self.space.clip_coded(coded))
        return SystemConfig.from_vector(list(np.atleast_1d(natural)))

    def scenario_for(
        self, config: SystemConfig, record_traces: bool = False
    ) -> Scenario:
        """The scenario one evaluation of ``config`` runs.

        Every evaluation shares the seed ``derive_seed(self.seed, 1)``
        (common random numbers, see module docstring).
        """
        from repro.backends import quiet_options

        options = {} if record_traces else quiet_options(self.backend)
        return Scenario(
            config=config,
            parts=self.parts_spec,
            profile=self.profile_factory(),
            horizon=self.horizon,
            seed=derive_seed(self.seed, 1),
            backend=self.backend,
            options=options,
        )

    def scenario_key(self, coded: np.ndarray) -> str:
        """Content key of the scenario an evaluation of ``coded`` runs.

        Applies the same memo-key rounding as :meth:`__call__`, so this
        is exactly the key a result store is probed/populated with --
        what study resumption uses to derive completion state.
        """
        key = self._key(coded)
        return self.scenario_for(self.config_from_coded(np.array(key))).cache_key()

    def simulate(self, config: SystemConfig, record_traces: bool = False) -> SystemResult:
        """Run one full simulation of ``config``."""
        self.n_simulations += 1
        return self._runner.run_one(self.scenario_for(config, record_traces))

    def __call__(self, coded: np.ndarray) -> float:
        """Transmissions achieved by the coded configuration (cached)."""
        return float(self.evaluate_design(coded)[0])

    def evaluate_design(self, points_coded: np.ndarray) -> np.ndarray:
        """Evaluate every row of a coded design matrix.

        Uncached rows are batched through the runner, so with
        ``jobs > 1`` a whole DOE (or Fig. 4 sweep) runs in parallel.
        """
        pts = np.atleast_2d(np.asarray(points_coded, dtype=float))
        keys = [self._key(row) for row in pts]
        missing = [k for k in dict.fromkeys(keys) if k not in self._cache]
        if missing:
            scenarios = [
                self.scenario_for(self.config_from_coded(np.array(k)))
                for k in missing
            ]
            self.n_simulations += len(missing)
            for k, result in zip(missing, self._runner.run(scenarios)):
                self._cache[k] = self._metric_fn(result)
        return np.array([self._cache[k] for k in keys])

    def _key(self, coded: np.ndarray) -> Tuple[float, ...]:
        return tuple(
            np.round(np.asarray(coded, dtype=float), CACHE_DECIMALS)
        )

    def cache_size(self) -> int:
        """Number of memoised evaluations."""
        return len(self._cache)
