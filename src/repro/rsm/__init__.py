"""Response surface methodology (paper section II).

- :mod:`repro.rsm.coding` -- natural <-> coded variable transforms
  (eq. 3) and the :class:`~repro.rsm.coding.ParameterSpace` container.
- :mod:`repro.rsm.basis` -- polynomial term bases (linear, interaction,
  pure quadratic, full quadratic as in eq. 4, cubic).
- :mod:`repro.rsm.regression` -- least-squares fitting (eqs. 5-7).
- :mod:`repro.rsm.model` -- the fitted :class:`~repro.rsm.model.ResponseSurface`.
- :mod:`repro.rsm.diagnostics` -- R^2, PRESS, VIF and residual summaries
  (the goodness-of-fit assessment the paper omits for space).
- :mod:`repro.rsm.anova` -- ANOVA decomposition of the fit.
- :mod:`repro.rsm.crossval` -- leave-one-out cross-validation.
- :mod:`repro.rsm.registry` -- named surrogate fitters
  (:func:`~repro.rsm.registry.register_surrogate`) for declarative
  studies.
"""
