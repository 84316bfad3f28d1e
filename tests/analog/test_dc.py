"""DC operating-point tests: dividers, diodes, gmin stepping."""

import math

import pytest

from repro.analog.components.diode import Diode
from repro.analog.components.passives import Resistor
from repro.analog.components.sources import CurrentSource, VoltageSource
from repro.analog.dc import operating_point
from repro.analog.netlist import Circuit
from repro.errors import NetlistError


def test_voltage_divider():
    ckt = Circuit("divider")
    ckt.add(VoltageSource("V1", "in", "0", dc=10.0))
    ckt.add(Resistor("R1", "in", "out", 1e3))
    ckt.add(Resistor("R2", "out", "0", 3e3))
    sys = ckt.build()
    x = operating_point(sys)
    assert sys.voltage(x, "in") == pytest.approx(10.0)
    assert sys.voltage(x, "out") == pytest.approx(7.5)


def test_current_source_into_resistor():
    ckt = Circuit("cs")
    ckt.add(CurrentSource("I1", "0", "a", dc=1e-3))
    ckt.add(Resistor("R1", "a", "0", 2e3))
    sys = ckt.build()
    x = operating_point(sys)
    assert sys.voltage(x, "a") == pytest.approx(2.0)


def test_vsource_branch_current():
    ckt = Circuit("loop")
    v1 = ckt.add(VoltageSource("V1", "a", "0", dc=5.0))
    ckt.add(Resistor("R1", "a", "0", 1e3))
    sys = ckt.build()
    x = operating_point(sys)
    # Source pushes current out of its + terminal through R back to -.
    assert abs(v1.current(x)) == pytest.approx(5e-3, rel=1e-6)


def test_diode_forward_drop_is_reasonable():
    ckt = Circuit("diode")
    ckt.add(VoltageSource("V1", "in", "0", dc=5.0))
    ckt.add(Resistor("R1", "in", "a", 1e3))
    ckt.add(Diode("D1", "a", "0"))
    sys = ckt.build()
    x = operating_point(sys)
    vd = sys.voltage(x, "a")
    assert 0.4 < vd < 0.9
    # KCL: resistor current equals diode current.
    d = ckt.component("D1")
    r = ckt.component("R1")
    assert r.current(x) == pytest.approx(d.current(x), rel=1e-4)


def test_diode_reverse_blocks():
    ckt = Circuit("diode-rev")
    ckt.add(VoltageSource("V1", "in", "0", dc=-5.0))
    ckt.add(Resistor("R1", "in", "a", 1e3))
    ckt.add(Diode("D1", "a", "0"))
    sys = ckt.build()
    x = operating_point(sys)
    # Nearly the full (negative) supply appears across the diode.
    assert sys.voltage(x, "a") == pytest.approx(-5.0, abs=0.05)


def test_series_diodes_split_drop():
    ckt = Circuit("diode2")
    ckt.add(VoltageSource("V1", "in", "0", dc=5.0))
    ckt.add(Resistor("R1", "in", "a", 1e3))
    ckt.add(Diode("D1", "a", "b"))
    ckt.add(Diode("D2", "b", "0"))
    sys = ckt.build()
    x = operating_point(sys)
    va, vb = sys.voltage(x, "a"), sys.voltage(x, "b")
    assert va > vb > 0.0
    assert (va - vb) == pytest.approx(vb, rel=0.05)


def test_floating_circuit_rejected():
    ckt = Circuit("floating")
    ckt.add(Resistor("R1", "a", "b", 1e3))
    with pytest.raises(NetlistError):
        ckt.build()


def test_duplicate_component_name_rejected():
    ckt = Circuit("dup")
    ckt.add(Resistor("R1", "a", "0", 1e3))
    with pytest.raises(NetlistError):
        ckt.add(Resistor("R1", "b", "0", 1e3))


def test_nonpositive_resistance_rejected():
    with pytest.raises(NetlistError):
        Resistor("R1", "a", "0", 0.0)
    with pytest.raises(NetlistError):
        Resistor("R1", "a", "0", -5.0)
