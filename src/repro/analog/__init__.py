"""Nonlinear analogue circuit solver (the SystemC-A analogue core substitute).

A small but real circuit simulator:

- :mod:`repro.analog.netlist` -- circuit container and node bookkeeping.
- :mod:`repro.analog.components` -- R, C, L, diode, switches, independent
  sources, and the component base class third parties (e.g. the harvester's
  electromechanical generator) extend.
- :mod:`repro.analog.mna` -- modified nodal analysis stamping.
- :mod:`repro.analog.newton` -- Newton-Raphson with junction limiting.
- :mod:`repro.analog.dc` -- DC operating point with gmin stepping.
- :mod:`repro.analog.transient` -- adaptive trapezoidal/backward-Euler
  transient analysis with local-truncation-error step control.
- :mod:`repro.analog.ac` -- small-signal AC analysis about an operating
  point (used to extract harvester frequency responses).
- :mod:`repro.analog.cosim` -- lockstep bridge to the event-driven kernel
  with threshold-crossing detection.
"""
