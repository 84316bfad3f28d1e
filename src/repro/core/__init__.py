"""The paper's contribution: RSM-based design space exploration.

Workflow (paper sections II and V):

1. generate a D-optimal design over the Table V parameter space,
2. simulate the complete system at each design point,
3. fit a quadratic response surface (eq. 9),
4. maximise it with Simulated Annealing and a Genetic Algorithm,
5. verify the optima with full simulations (Table VI / Fig. 5).

- :mod:`repro.core.objective` -- cached simulation objective.
- :mod:`repro.core.explorer` -- :class:`~repro.core.explorer.DesignSpaceExplorer`.
- :mod:`repro.core.study` -- declarative, serialisable, resumable studies
  (:class:`~repro.core.study.StudySpec` / :class:`~repro.core.study.Study`).
- :mod:`repro.core.batch` -- parallel scenario batches
  (:class:`~repro.core.batch.BatchRunner`).
- :mod:`repro.core.report` -- table/figure regeneration helpers.
- :mod:`repro.core.campaign` -- JSON persistence of exploration outcomes.
- :mod:`repro.core.paper` -- canonical paper setup in one call.
"""
