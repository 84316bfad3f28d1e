"""The design-space exploration driver (paper section V).

:class:`DesignSpaceExplorer` chains DOE -> simulate -> fit -> optimise ->
verify.  Optimisers maximise the cheap fitted surface (as in the paper);
the winning points are then *verified* with full simulations, which is
what Table VI reports.

Every stage is resolved through a process-wide registry -- designs from
:mod:`repro.doe.registry`, surrogates from :mod:`repro.rsm.registry`,
optimisers from :mod:`repro.optimize.registry` -- so the pipeline is
assembled from names, exactly like simulation backends.  The serialisable
face of that idea is :class:`~repro.core.study.StudySpec`; this class
remains the imperative driver underneath it.  The registries are the
only way in: a new optimiser is :func:`~repro.optimize.registry.register_optimizer`,
a D-optimal exchange variant is ``design_options={"method": ...}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.doe.design import Design
from repro.doe.registry import get_design
from repro.errors import DesignError
from repro.optimize.registry import get_optimizer
from repro.optimize.problem import Problem
from repro.optimize.result import OptimizationResult
from repro.rng import derive_seed
from repro.rsm.coding import ParameterSpace
from repro.rsm.diagnostics import FitDiagnostics, diagnostics
from repro.rsm.model import ResponseSurface
from repro.rsm.registry import get_surrogate
from repro.core.objective import SimulationObjective
from repro.system.config import SystemConfig

#: The paper's two surface maximisers, in its order.
DEFAULT_OPTIMIZERS: Tuple[str, ...] = ("simulated-annealing", "genetic-algorithm")


@dataclass
class OptimaEntry:
    """One optimiser's outcome: RSM prediction and simulation truth."""

    method: str
    coded: np.ndarray
    config: SystemConfig
    rsm_value: float
    simulated_value: float
    optimizer_result: OptimizationResult


@dataclass
class ExplorationOutcome:
    """Everything the paper's evaluation section reports.

    ``metric`` names the response every value in here measures
    (:data:`repro.core.objective.METRICS`); ``original_transmissions``
    keeps its historical name but holds that metric's value for the
    original design.
    """

    space: ParameterSpace
    design: Design
    responses: np.ndarray
    model: ResponseSurface
    fit_diagnostics: FitDiagnostics
    original_config: SystemConfig
    original_transmissions: float
    optima: List[OptimaEntry] = field(default_factory=list)
    n_simulations: int = 0
    metric: str = "transmissions"

    def format_value(self, value: float) -> str:
        """One metric value as text (counts as integers, else 4 s.f.)."""
        if self.metric == "transmissions":
            return f"{value:.0f}"
        return f"{value:.4g}"

    def best(self) -> OptimaEntry:
        """The optimiser entry with the highest *simulated* value."""
        if not self.optima:
            raise DesignError("no optima recorded")
        return max(self.optima, key=lambda e: e.simulated_value)

    def improvement_factor(self) -> float:
        """Best simulated transmissions relative to the original design.

        ``inf`` when the original design produced no transmissions at
        all (any improvement over zero is unbounded); :meth:`summary`
        renders that case as "n/a" instead of a meaningless ``infx``.
        """
        if self.original_transmissions <= 0:
            return float("inf")
        return self.best().simulated_value / self.original_transmissions

    def summary(self) -> str:
        """Multi-line report in the shape of the paper's Table VI."""
        lines = [
            f"design: {self.design.name} ({self.design.n_runs} runs), "
            f"R^2 = {self.fit_diagnostics.r2:.3f}",
            f"original  {self.original_config.describe()}: "
            f"{self.format_value(self.original_transmissions)} {self.metric}",
        ]
        for entry in self.optima:
            lines.append(
                f"{entry.method:<20s} {entry.config.describe()}: "
                f"{self.format_value(entry.simulated_value)} {self.metric} "
                f"(RSM predicted {self.format_value(entry.rsm_value)})"
            )
        if self.original_transmissions <= 0:
            lines.append(
                f"improvement factor: n/a "
                f"(original design produced 0 {self.metric})"
            )
        else:
            lines.append(f"improvement factor: {self.improvement_factor():.2f}x")
        return "\n".join(lines)


class DesignSpaceExplorer:
    """DOE -> simulate -> RSM -> optimise -> verify."""

    def __init__(
        self,
        space: ParameterSpace,
        objective: SimulationObjective,
        original_config: Optional[SystemConfig] = None,
    ):
        self.space = space
        self.objective = objective
        from repro.system.config import ORIGINAL_DESIGN

        self.original_config = original_config or ORIGINAL_DESIGN

    # -- pipeline stages --------------------------------------------------------

    def build_design(
        self,
        n_runs: int = 10,
        seed: int = 0,
        design: str = "d-optimal",
        options: Optional[Mapping[str, object]] = None,
    ) -> Design:
        """Stage 1: a named design (paper: 10-run D-optimal, 3-level grid).

        ``design`` names a :mod:`repro.doe.registry` generator and
        ``options`` are its keyword arguments (for ``d-optimal``,
        ``method`` picks the exchange algorithm; default Fedorov).
        """
        return get_design(design)(
            self.space, n_runs, derive_seed(seed, 11), **dict(options or {})
        )

    def run_design(self, design: Design) -> np.ndarray:
        """Stage 2: simulate every design point."""
        return self.objective.evaluate_design(design.points)

    def fit_model(
        self,
        design: Design,
        responses: np.ndarray,
        surrogate: str = "quadratic",
        options: Optional[Mapping[str, object]] = None,
    ) -> ResponseSurface:
        """Stage 3: fit the named surrogate (default: eq. 9 quadratic)."""
        return get_surrogate(surrogate)(
            design.points, responses, space=self.space, **dict(options or {})
        )

    def optimise_model(
        self,
        model: ResponseSurface,
        seed: int = 0,
        optimizers: Optional[Sequence[str]] = None,
        optimizer_options: Optional[Mapping[str, Mapping[str, object]]] = None,
    ) -> List[OptimaEntry]:
        """Stage 4+5: maximise the surface, then verify by simulation.

        ``optimizers`` is a sequence of :mod:`repro.optimize.registry`
        names (default: the paper's SA + GA); ``optimizer_options``
        supplies per-name keyword arguments.
        """
        problem = Problem(
            objective=lambda x: float(model.predict_coded(x)),
            bounds=self.space.bounds_coded(),
            maximize=True,
            name="rsm-surface",
        )
        entries: List[OptimaEntry] = []
        options = dict(optimizer_options or {})
        if optimizers is None:
            optimizers = DEFAULT_OPTIMIZERS
        # Resolve every name before the first optimiser runs.
        methods = [(name, get_optimizer(name)) for name in optimizers]
        for i, (name, method) in enumerate(methods):
            result = method(
                problem, seed=derive_seed(seed, 100 + i), **dict(options.get(name, {}))
            )
            coded = self.space.clip_coded(result.x)
            config = self.objective.config_from_coded(coded)
            simulated = self.objective(coded)
            entries.append(
                OptimaEntry(
                    method=name,
                    coded=np.asarray(coded, dtype=float),
                    config=config,
                    rsm_value=float(result.value),
                    simulated_value=float(simulated),
                    optimizer_result=result,
                )
            )
        return entries

    # -- one-call flow -----------------------------------------------------------

    def run(
        self,
        n_runs: int = 10,
        seed: int = 0,
        design: Optional[Design] = None,
        optimizers: Optional[Sequence[str]] = None,
        design_name: str = "d-optimal",
        design_options: Optional[Mapping[str, object]] = None,
        surrogate: str = "quadratic",
        surrogate_options: Optional[Mapping[str, object]] = None,
        optimizer_options: Optional[Mapping[str, Mapping[str, object]]] = None,
    ) -> ExplorationOutcome:
        """Execute the full paper workflow and return every artefact."""
        design = design or self.build_design(
            n_runs, seed=seed, design=design_name, options=design_options
        )
        responses = self.run_design(design)
        model = self.fit_model(
            design, responses, surrogate=surrogate, options=surrogate_options
        )
        X = model.basis.expand(design.points)
        diag = diagnostics(X, responses, model.fit)
        original_coded = self.space.to_coded(
            np.array(self.original_config.as_vector())
        )
        original_value = self.objective(original_coded)
        optima = self.optimise_model(
            model,
            seed=seed,
            optimizers=optimizers,
            optimizer_options=optimizer_options,
        )
        return ExplorationOutcome(
            space=self.space,
            design=design,
            responses=responses,
            model=model,
            fit_diagnostics=diag,
            original_config=self.original_config,
            original_transmissions=float(original_value),
            optima=optima,
            n_simulations=self.objective.n_simulations,
            metric=getattr(self.objective, "metric", "transmissions"),
        )
