"""Global optimisers (MATLAB Optimisation Toolbox substitute).

The paper maximises its fitted response surface with Simulated Annealing
and a Genetic Algorithm; both are implemented from scratch here, plus the
local/baseline methods a practitioner would sanity-check against:

- :mod:`repro.optimize.problem` / :mod:`repro.optimize.result` -- the
  bounded-problem and result containers.
- :mod:`repro.optimize.annealing` -- simulated annealing with adaptive
  step size and geometric cooling.
- :mod:`repro.optimize.genetic` -- real-coded GA (tournament selection,
  blend crossover, Gaussian mutation, elitism).
- :mod:`repro.optimize.pattern` -- compass pattern search.
- :mod:`repro.optimize.nelder_mead` -- bounded Nelder-Mead simplex.
- :mod:`repro.optimize.multistart` -- restart wrapper for local methods.
- :mod:`repro.optimize.baselines` -- grid and random search.
- :mod:`repro.optimize.registry` -- named optimisers
  (:func:`~repro.optimize.registry.register_optimizer`) for declarative
  studies.
"""
