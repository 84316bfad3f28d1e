"""Component-level unit tests: diode law, switches, sources, validation."""

import math

import numpy as np
import pytest

from repro.analog.components.diode import Diode
from repro.analog.components.passives import Capacitor, Inductor, Resistor
from repro.analog.components.sources import (
    CurrentSource,
    VoltageSource,
    pulse,
    sine,
    step,
)
from repro.analog.components.switch import Switch, VariableResistor
from repro.analog.dc import operating_point
from repro.analog.netlist import Circuit
from repro.analog.transient import TransientSolver
from repro.errors import NetlistError
from repro.units import thermal_voltage


def test_diode_current_follows_shockley_law():
    d = Diode("D", "a", "0", saturation_current=1e-12, emission_coefficient=1.5)
    nvt = 1.5 * thermal_voltage()
    for v in (0.3, 0.5, 0.65):
        i, g = d.current_and_conductance(v)
        assert i == pytest.approx(1e-12 * (math.exp(v / nvt) - 1.0), rel=1e-9)
        assert g == pytest.approx(1e-12 * math.exp(v / nvt) / nvt, rel=1e-9)


def test_diode_reverse_saturation():
    d = Diode("D", "a", "0")
    i, _ = d.current_and_conductance(-5.0)
    assert i == pytest.approx(-d.isat, rel=1e-6)


def test_diode_exponential_is_limited_not_overflowing():
    d = Diode("D", "a", "0")
    i, g = d.current_and_conductance(100.0)  # would overflow a raw exp
    assert np.isfinite(i) and np.isfinite(g)
    assert i > 0 and g > 0


def test_diode_parameter_validation():
    with pytest.raises(NetlistError):
        Diode("D", "a", "0", saturation_current=0.0)
    with pytest.raises(NetlistError):
        Diode("D", "a", "0", emission_coefficient=-1.0)


def test_switch_resistance_states():
    sw = Switch("S", "a", "0", r_on=1.0, r_off=1e9)
    assert sw.resistance(0.0) == 1e9
    sw.closed = True
    assert sw.resistance(0.0) == 1.0


def test_switch_with_time_control():
    sw = Switch("S", "a", "0", r_on=1.0, r_off=1e9, control=lambda t: t >= 1.0)
    assert sw.resistance(0.5) == 1e9
    assert sw.resistance(1.5) == 1.0


def test_switch_validation():
    with pytest.raises(NetlistError):
        Switch("S", "a", "0", r_on=10.0, r_off=1.0)


def test_switch_in_circuit_changes_current():
    ckt = Circuit("sw")
    ckt.add(VoltageSource("V1", "in", "0", dc=1.0))
    sw = ckt.add(Switch("S1", "in", "out", r_on=1.0, r_off=1e12))
    ckt.add(Resistor("RL", "out", "0", 99.0))
    sys = ckt.build()
    x_open = operating_point(sys)
    assert sys.voltage(x_open, "out") == pytest.approx(0.0, abs=1e-6)
    sw.closed = True
    x_closed = operating_point(sys)
    assert sys.voltage(x_closed, "out") == pytest.approx(0.99, rel=1e-6)


def test_variable_resistor_update():
    vr = VariableResistor("R", "a", "0", 100.0)
    vr.resistance = 200.0
    assert vr.resistance == 200.0
    with pytest.raises(NetlistError):
        vr.resistance = 0.0


def test_waveform_helpers():
    s = sine(2.0, 10.0, offset=1.0)
    assert s(0.0) == pytest.approx(1.0)
    assert s(0.025) == pytest.approx(3.0)  # quarter period
    st = step(0.0, 5.0, 1.0)
    assert st(0.999) == 0.0 and st(1.0) == 5.0
    p = pulse(0.0, 1.0, period=1.0, width=0.25)
    assert p(0.1) == 1.0 and p(0.5) == 0.0 and p(1.1) == 1.0


def test_waveform_validation():
    with pytest.raises(NetlistError):
        sine(1.0, 0.0)
    with pytest.raises(NetlistError):
        pulse(0, 1, period=1.0, width=2.0)


def test_current_source_waveform_drive():
    ckt = Circuit("cs")
    ckt.add(CurrentSource("I1", "0", "a", waveform=lambda t: 1e-3 * t))
    ckt.add(Resistor("R1", "a", "0", 1e3))
    res = TransientSolver(ckt.build()).run(t_end=1.0, dt=0.01, adaptive=False)
    assert res.traces["v(a)"].interp(1.0) == pytest.approx(1.0, rel=0.02)


def test_component_validation_errors():
    with pytest.raises(NetlistError):
        Capacitor("C", "a", "0", -1e-6)
    with pytest.raises(NetlistError):
        Inductor("L", "a", "0", 0.0)


def test_mna_labels_and_node_index():
    ckt = Circuit("labels")
    ckt.add(VoltageSource("V1", "in", "0", dc=1.0))
    ckt.add(Resistor("R1", "in", "out", 1e3))
    ckt.add(Resistor("R2", "out", "0", 1e3))
    sys = ckt.build()
    labels = sys.labels()
    assert "in" in labels and "out" in labels and "V1#0" in labels
    assert sys.node_index("0") == -1
    with pytest.raises(NetlistError):
        sys.node_index("nope")
