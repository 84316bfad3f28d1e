"""Tuning control algorithms (paper Algorithms 1-3), written sans-IO.

The control logic is a generator that *yields commands* and receives
responses -- it never touches a clock, an energy store or a generator
model directly.  Every simulation backend executes the same generator
against its own physics, which guarantees the models run identical
firmware: the envelope physics (scalar and vectorized) through
:meth:`~repro.system.envelope.EnvelopeSimulator._wakeup`, the detailed
co-simulation through :mod:`repro.control.runner`.

- :mod:`repro.control.commands` -- the command vocabulary.
- :mod:`repro.control.session` -- one watchdog wake-up's worth of
  Algorithm 1 (with the coarse Algorithm 2 and fine Algorithm 3 loops).
- :mod:`repro.control.runner` -- the driver that connects a session
  generator to a :class:`~repro.control.runner.ControllerBackend`,
  which only the detailed backend implements.
- :mod:`repro.control.adaptive` -- the adaptive watchdog extension.
"""
