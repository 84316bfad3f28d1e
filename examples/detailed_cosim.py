"""Detailed co-simulation: the cycle-accurate power path.

Runs the MNA backend (electromechanical generator -> diode bridge ->
supercapacitor -> switched node load) for a few seconds of simulated time,
then executes one full Algorithm 1 tuning session whose *measurements come
from the waveforms* (frequency from velocity zero crossings, phase from
the accelerometer/generator offset).  Exports the supercap waveform as
CSV and a VCD-ready transmission log.

This is the fidelity level the paper's SystemC-A model runs at; the
envelope backend exists because an hour of this is ~10^4x slower than
real time in Python.

Run:  python examples/detailed_cosim.py
"""

import numpy as np

from repro.core.report import series_to_csv
from repro.system.components import paper_system
from repro.system.config import SystemConfig
from repro.system.detailed import DetailedSimulator
from repro.system.vibration import VibrationProfile


def main() -> None:
    parts = paper_system(initial_frequency=64.0)
    config = SystemConfig(clock_hz=4e6, watchdog_s=1e4, tx_interval_s=0.5)
    sim = DetailedSimulator(
        config,
        parts=parts,
        profile=VibrationProfile.constant(69.0),  # 5 Hz off: needs retuning
        v_init=2.85,
        seed=1,  # timer noise: the printed measurement repeats run to run
    )

    print("phase 1: 2 s of detuned operation (generator resonates at 64 Hz,")
    print("         input vibrates at 69 Hz: almost nothing harvested)")
    res = sim.run(2.0)
    v = res.traces["v(vdc)"]
    print(f"  supercap: {v.values[0]:.4f} V -> {res.final_voltage:.4f} V, "
          f"{res.transmissions} transmissions so far")

    print("\nphase 2: one Algorithm 1 tuning session (waveform-derived measurements)")
    out = sim.run_tuning_session()
    s = out.session
    print(f"  measured frequency: {s.measured_frequency:.3f} Hz (true 69.0)")
    print(f"  optimum position {s.optimum_position}, moved from {s.initial_position}")
    print(f"  coarse iterations {s.coarse_iterations}, fine steps {s.fine_steps}")
    f_r = parts.microgenerator.tuning_map.resonant_frequency(
        parts.microgenerator.position
    )
    print(f"  generator retuned to {f_r:.3f} Hz")

    print("\nphase 3: 2 s of retuned operation (charging resumes)")
    res = sim.run(2.0)
    print(f"  supercap now {res.final_voltage:.4f} V, "
          f"{res.transmissions} transmissions total")

    grid = np.linspace(0.0, sim.kernel.now, 400)
    csv = series_to_csv({"time_s": grid, "v_supercap": v.resample(grid)})
    path = "detailed_cosim_waveform.csv"
    with open(path, "w") as fh:
        fh.write(csv)
    print(f"\nwaveform written to {path} ({len(grid)} samples)")


if __name__ == "__main__":
    main()
