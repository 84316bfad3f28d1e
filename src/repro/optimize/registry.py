"""Named optimisers: the optimisation stage registry.

Mirrors :mod:`repro.backends`: a process-wide registry maps a name to an
optimiser with the uniform signature

    ``optimizer(problem, seed=None, **options) -> OptimizationResult``

so a :class:`~repro.core.study.StudySpec` (or the CLI's ``explore
--optimizers``) can select its surface maximisers declaratively.  The
shipped names wrap this package's methods:

===================  ===========================================
name                 method
===================  ===========================================
simulated-annealing  :func:`repro.optimize.annealing.simulated_annealing`
genetic-algorithm    :func:`repro.optimize.genetic.genetic_algorithm`
nelder-mead          :func:`repro.optimize.nelder_mead.nelder_mead`
pattern              :func:`repro.optimize.pattern.pattern_search`
multistart           :func:`repro.optimize.multistart.multistart`
                     (around Nelder-Mead by default)
grid                 :func:`repro.optimize.baselines.grid_search`
random               :func:`repro.optimize.baselines.random_search`
nsga2                :func:`repro.optimize.pareto.nsga2` collapsed to
                     the single study objective
===================  ===========================================

``sa`` and ``ga`` are accepted as aliases of the paper's two methods.
All shipped optimisers are deterministic in ``seed`` (``grid`` ignores
it -- the search is exhaustive), which the registry conformance tests
assert for every registered name.

Third parties extend the registry with :func:`register_optimizer`;
unknown names fail with a :class:`~repro.errors.ConfigError` listing
what is available.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.optimize.annealing import simulated_annealing
from repro.optimize.baselines import grid_search, random_search
from repro.optimize.genetic import genetic_algorithm
from repro.optimize.multistart import multistart
from repro.optimize.nelder_mead import nelder_mead
from repro.optimize.pareto import nsga2
from repro.optimize.pattern import pattern_search
from repro.optimize.problem import Problem
from repro.optimize.result import OptimizationResult
from repro.registry import Registry

#: The uniform optimiser signature.
Optimizer = Callable[..., OptimizationResult]

_REGISTRY: Registry[Optimizer] = Registry("optimizer")


def register_optimizer(
    name: str, optimizer: Optimizer, overwrite: bool = False
) -> None:
    """Register an optimiser under ``name``.

    ``optimizer(problem, seed=None, **options)`` must return an
    :class:`~repro.optimize.result.OptimizationResult` and be
    deterministic in ``seed`` (same problem + seed, same optimum --
    studies rely on this to reproduce bit-identical outcomes on
    resume).  Re-registering an existing name requires
    ``overwrite=True`` so typos cannot silently shadow a shipped
    method.
    """
    _REGISTRY.register(name, optimizer, overwrite)


def optimizer_names() -> List[str]:
    """Registered optimiser names."""
    return _REGISTRY.names()


def get_optimizer(name: str) -> Optimizer:
    """The optimiser registered under ``name``."""
    return _REGISTRY.lookup(name)


# -- shipped optimisers --------------------------------------------------------


def _multistart(problem: Problem, seed=None, **options) -> OptimizationResult:
    """Best-of-N restarts of a local method (Nelder-Mead by default).

    ``local_method`` may be a callable or a registered optimiser name
    (the only form a JSON study spec can carry).
    """
    local = options.pop("local_method", nelder_mead)
    if isinstance(local, str):
        local = get_optimizer(local)
    return multistart(problem, local, seed=seed, **options)


def _grid(problem: Problem, seed=None, **options) -> OptimizationResult:
    """Exhaustive level-grid search; deterministic, ``seed`` ignored."""
    return grid_search(problem, **options)


def _nsga2_single(problem: Problem, seed=None, **options) -> OptimizationResult:
    """NSGA-II collapsed onto one objective.

    The population-based Pareto machinery still applies (it degenerates
    to a (mu + lambda) evolution strategy); the best point of the final
    front is reported in the problem's own maximise/minimise scale.
    """
    sign = 1.0 if problem.maximize else -1.0
    result = nsga2(
        lambda x: [sign * problem.evaluate(x)],
        problem.bounds,
        population_size=int(options.pop("population_size", 24)),
        n_generations=int(options.pop("n_generations", 30)),
        seed=seed,
        **options,
    )
    best = int(np.argmax(result.objectives[:, 0]))
    return OptimizationResult(
        x=result.points[best],
        value=sign * float(result.objectives[best, 0]),
        n_evaluations=result.n_evaluations,
        method="nsga2",
    )


register_optimizer("simulated-annealing", simulated_annealing)
register_optimizer("genetic-algorithm", genetic_algorithm)
register_optimizer("nelder-mead", nelder_mead)
register_optimizer("pattern", pattern_search)
register_optimizer("multistart", _multistart)
register_optimizer("grid", _grid)
register_optimizer("random", random_search)
register_optimizer("nsga2", _nsga2_single)

#: The paper's two methods under their short names.
register_optimizer("sa", simulated_annealing)
register_optimizer("ga", genetic_algorithm)
