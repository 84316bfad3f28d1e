"""Whole-system model of the harvester-powered wireless sensor node.

- :mod:`repro.system.config` -- the three optimisation parameters
  (Table V) and the canonical parameter space.
- :mod:`repro.system.vibration` -- input vibration profiles (the paper's
  evaluation uses 60 mg with +5 Hz steps every 25 minutes).
- :mod:`repro.system.stochastic` -- Markov regime-switching vibration
  generators and the scenario-family machinery.
- :mod:`repro.system.components` -- Table I component registry and the
  calibrated default system (microgenerator, storage, node, MCU).
- :mod:`repro.system.envelope` -- the fast energy-balance simulator used
  for hour-long DSE runs (the paper's accelerated simulation).
- :mod:`repro.system.detailed` -- MNA co-simulation backend for short,
  high-fidelity runs.
- :mod:`repro.system.result` -- run results and the energy audit.
"""
