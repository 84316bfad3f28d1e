"""Mechanical-domain models for the vibration energy harvester.

- :mod:`repro.mech.sdof` -- base-excited spring-mass-damper theory
  (response amplitudes, harvested power, Q factor).
- :mod:`repro.mech.coupling` -- electromagnetic transduction constants and
  the electrical-damping relationships.
- :mod:`repro.mech.magnetics` -- dipole-based tuning-force model that turns
  a magnet gap into an effective stiffness change (the paper's frequency
  tuning mechanism).
- :mod:`repro.mech.cantilever` -- beam formulas deriving the SDOF
  parameters from cantilever geometry.
"""
