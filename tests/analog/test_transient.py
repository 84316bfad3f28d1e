"""Transient analysis against closed-form circuit responses."""

import math

import numpy as np
import pytest

from repro.analog.components.passives import (
    Capacitor,
    Inductor,
    Resistor,
    Supercapacitor,
)
from repro.analog.components.sources import VoltageSource, sine, step
from repro.analog.netlist import Circuit
from repro.analog.transient import TransientSolver
from repro.errors import SimulationError


def _rc_circuit(v=5.0, r=1e3, c=1e-6):
    ckt = Circuit("rc")
    ckt.add(VoltageSource("V1", "in", "0", dc=v))
    ckt.add(Resistor("R1", "in", "out", r))
    ckt.add(Capacitor("C1", "out", "0", c))
    return ckt


def test_rc_charging_matches_exponential():
    ckt = _rc_circuit()
    res = TransientSolver(ckt.build()).run(t_end=5e-3, dt=1e-5)
    tr = res.traces["v(out)"]
    for t in (0.5e-3, 1e-3, 2e-3, 4e-3):
        expected = 5.0 * (1.0 - math.exp(-t / 1e-3))
        assert tr.interp(t) == pytest.approx(expected, rel=0.02)


def test_rc_with_initial_condition():
    ckt = Circuit("rc-ic")
    ckt.add(Resistor("R1", "out", "0", 1e3))
    ckt.add(Capacitor("C1", "out", "0", 1e-6, v0=2.0))
    res = TransientSolver(ckt.build()).run(t_end=3e-3, dt=1e-5)
    tr = res.traces["v(out)"]
    assert tr.values[0] == pytest.approx(2.0)
    assert tr.interp(1e-3) == pytest.approx(2.0 * math.exp(-1.0), rel=0.02)


def test_backward_euler_also_converges():
    ckt = _rc_circuit()
    res = TransientSolver(ckt.build(), method="be").run(t_end=2e-3, dt=5e-6)
    assert res.traces["v(out)"].interp(1e-3) == pytest.approx(
        5.0 * (1.0 - math.exp(-1.0)), rel=0.03
    )


def test_rl_current_rise():
    ckt = Circuit("rl")
    ckt.add(VoltageSource("V1", "in", "0", dc=1.0))
    ckt.add(Resistor("R1", "in", "a", 10.0))
    ind = ckt.add(Inductor("L1", "a", "0", 10e-3))  # tau = 1 ms
    sys = ckt.build()
    solver = TransientSolver(sys)
    state = {}

    def capture(t, x):
        state[round(t, 9)] = ind.current(x)

    res = solver.run(t_end=3e-3, dt=1e-5, on_step=capture)
    i_final = ind.current(res.final_state)
    assert i_final == pytest.approx(0.1 * (1 - math.exp(-3.0)), rel=0.03)


def test_lc_oscillator_conserves_amplitude():
    # Undamped LC tank started from a charged capacitor: trapezoidal
    # integration should preserve the oscillation amplitude well.
    ckt = Circuit("lc")
    ckt.add(Capacitor("C1", "a", "0", 1e-6, v0=1.0))
    ckt.add(Inductor("L1", "a", "0", 1e-3))
    sys = ckt.build()
    f0 = 1.0 / (2 * math.pi * math.sqrt(1e-3 * 1e-6))  # ~5.03 kHz
    res = TransientSolver(sys, lte_tol=1e-4).run(
        t_end=5.0 / f0, dt=1.0 / (f0 * 200), adaptive=False
    )
    tr = res.traces["v(a)"]
    last_cycle = tr.values[-200:]
    assert np.max(np.abs(last_cycle)) == pytest.approx(1.0, abs=0.05)


def test_sine_source_amplitude_on_resistor():
    ckt = Circuit("sine")
    ckt.add(VoltageSource("V1", "a", "0", waveform=sine(2.0, 100.0)))
    ckt.add(Resistor("R1", "a", "0", 1e3))
    res = TransientSolver(ckt.build()).run(t_end=0.02, dt=1e-5)
    tr = res.traces["v(a)"]
    assert tr.max() == pytest.approx(2.0, rel=0.01)
    assert tr.min() == pytest.approx(-2.0, rel=0.01)


def test_step_waveform_switches():
    ckt = Circuit("step")
    ckt.add(VoltageSource("V1", "a", "0", waveform=step(0.0, 3.0, 1e-3)))
    ckt.add(Resistor("R1", "a", "0", 1e3))
    res = TransientSolver(ckt.build()).run(t_end=2e-3, dt=1e-5, adaptive=False)
    tr = res.traces["v(a)"]
    assert tr.interp(0.5e-3) == pytest.approx(0.0, abs=1e-9)
    assert tr.interp(1.5e-3) == pytest.approx(3.0)


def test_supercapacitor_charges_through_esr():
    ckt = Circuit("supercap")
    ckt.add(VoltageSource("V1", "in", "0", dc=3.0))
    ckt.add(Resistor("R1", "in", "vdc", 10.0))
    sc = ckt.add(Supercapacitor("SC", "vdc", "0", 0.1, esr=1.0, v0=1.0))
    sys = ckt.build()
    res = TransientSolver(sys).run(t_end=2.0, dt=1e-3)
    v_bulk = sc.stored_voltage(res.final_state)
    expected = 3.0 - 2.0 * math.exp(-2.0 / (0.1 * 11.0))
    assert v_bulk == pytest.approx(expected, rel=0.05)


def test_transient_rejects_bad_arguments():
    sys = _rc_circuit().build()
    solver = TransientSolver(sys)
    with pytest.raises(SimulationError):
        solver.run(t_end=0.0, dt=1e-6)
    with pytest.raises(SimulationError):
        solver.run(t_end=1.0, dt=-1e-6)
    with pytest.raises(SimulationError):
        TransientSolver(sys, method="rk4")


def test_result_counts_steps():
    res = TransientSolver(_rc_circuit().build()).run(t_end=1e-3, dt=1e-5)
    assert res.steps_taken > 50
    assert res.final_time == pytest.approx(1e-3)
