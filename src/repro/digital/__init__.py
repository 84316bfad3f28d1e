"""Digital controller substrate: the PIC16F884-class microcontroller.

- :mod:`repro.digital.power_model` -- per-operation power/energy constants
  reproducing the paper's Table IV measurements, with clock-frequency
  scaling for the MCU core.
- :mod:`repro.digital.timer` -- timer/counter period measurement with
  clock quantisation (why low clock frequencies measure less accurately).
- :mod:`repro.digital.mcu` -- the microcontroller model: clock, sleep and
  measurement operations with energy costs.
- :mod:`repro.digital.watchdog` -- periodic wake-up bookkeeping.
- :mod:`repro.digital.lut` -- the 8-bit frequency-to-position look-up
  table stored in MCU memory (Algorithm 1, step 10).
"""
