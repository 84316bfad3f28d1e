"""Design of experiments (paper section II-B).

- :mod:`repro.doe.design` -- the :class:`~repro.doe.design.Design`
  container (coded points + parameter space).
- :mod:`repro.doe.factorial` -- full and fractional factorials.
- :mod:`repro.doe.ccd` -- central composite designs.
- :mod:`repro.doe.bbd` -- Box-Behnken designs.
- :mod:`repro.doe.lhs` -- Latin hypercube sampling.
- :mod:`repro.doe.candidates` -- candidate sets for optimal design.
- :mod:`repro.doe.doptimal` -- D-optimal designs by Fedorov and
  coordinate exchange (the paper's choice: 10 runs instead of 27).
- :mod:`repro.doe.criteria` -- D/A/G/I efficiency metrics.
- :mod:`repro.doe.registry` -- named design generators
  (:func:`~repro.doe.registry.register_design`) for declarative studies.
"""
