"""The eZ430-RF2500 wireless sensor node model.

- :mod:`repro.node.ez430` -- per-phase current model (paper Table III) and
  the equivalent-resistance consumption model (eq. 8).
- :mod:`repro.node.policy` -- the energy-aware transmission-interval
  policy driven by the supercapacitor voltage (paper Table II).
- :mod:`repro.node.radio` -- transmission events and their log.
- :mod:`repro.node.temperature` -- the sensed quantity (ambient
  temperature), for realistic example payloads.
"""
