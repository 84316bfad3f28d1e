"""Event-driven mixed-signal simulation kernel (SystemC-A substitute).

The paper models its system in SystemC-A: digital behaviour runs as
event-driven processes while analogue parts are integrated by a continuous
solver that is advanced in lockstep between digital events.  This package
reproduces that architecture:

- :mod:`repro.sim.events` -- time-ordered event queue.
- :mod:`repro.sim.process` -- coroutine (generator) processes with
  ``Delay`` / ``WaitSignal`` / ``WaitEvent`` suspension, like SystemC's
  ``wait()``.
- :mod:`repro.sim.signal` -- typed signals with change notification and
  edge detection, like ``sc_signal``.
- :mod:`repro.sim.module` -- hierarchical modules, like ``sc_module``.
- :mod:`repro.sim.kernel` -- the scheduler; analogue solvers attach via
  :class:`repro.sim.kernel.AnalogHook` and are stepped between events.
- :mod:`repro.sim.trace` / :mod:`repro.sim.vcd` -- waveform recording.
"""
