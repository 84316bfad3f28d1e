"""The tunable electromagnetic microgenerator and its power path.

- :mod:`repro.harvester.tuning_map` -- actuator position to resonant
  frequency map (and the 8-bit LUT the microcontroller stores).
- :mod:`repro.harvester.actuator` -- Haydon 21000-style linear stepper
  actuator with the paper's Table IV energy/time model.
- :mod:`repro.harvester.storage` -- supercapacitor energy bookkeeping for
  the envelope model.
- :mod:`repro.harvester.rectifier` -- diode-bridge builder (detailed) and
  averaged Thevenin rectifier model (envelope).
- :mod:`repro.harvester.envelope` -- analytic steady-state harvesting power
  (the "accelerated simulation" substitute for hour-long runs).
- :mod:`repro.harvester.microgenerator` -- the tunable generator facade and
  its detailed MNA component.
"""
