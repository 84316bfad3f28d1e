"""Controlled sources: DC, AC and composition checks."""

import numpy as np
import pytest

from repro.analog.ac import ac_analysis
from repro.analog.components.controlled import Cccs, Ccvs, Vccs, Vcvs
from repro.analog.components.passives import Resistor
from repro.analog.components.sources import VoltageSource
from repro.analog.dc import operating_point
from repro.analog.netlist import Circuit
from repro.errors import NetlistError


def test_vcvs_amplifies():
    ckt = Circuit("vcvs")
    ckt.add(VoltageSource("V1", "in", "0", dc=0.5))
    ckt.add(Resistor("Rin", "in", "0", 1e6))
    ckt.add(Vcvs("E1", "out", "0", "in", "0", gain=10.0))
    ckt.add(Resistor("RL", "out", "0", 1e3))
    sys = ckt.build()
    x = operating_point(sys)
    assert sys.voltage(x, "out") == pytest.approx(5.0)


def test_vcvs_inverting():
    ckt = Circuit("vcvs-inv")
    ckt.add(VoltageSource("V1", "in", "0", dc=1.0))
    ckt.add(Vcvs("E1", "out", "0", "0", "in", gain=2.0))  # inverted sense
    ckt.add(Resistor("RL", "out", "0", 1e3))
    sys = ckt.build()
    x = operating_point(sys)
    assert sys.voltage(x, "out") == pytest.approx(-2.0)


def test_vccs_transconductance():
    ckt = Circuit("vccs")
    ckt.add(VoltageSource("V1", "in", "0", dc=2.0))
    ckt.add(Vccs("G1", "0", "out", "in", "0", gm=1e-3))
    ckt.add(Resistor("RL", "out", "0", 500.0))
    sys = ckt.build()
    x = operating_point(sys)
    # i = gm*v = 2 mA into RL -> 1 V
    assert sys.voltage(x, "out") == pytest.approx(1.0)


def test_ccvs_transresistance():
    ckt = Circuit("ccvs")
    vs = VoltageSource("V1", "in", "0", dc=1.0)
    ckt.add(vs)
    ckt.add(Resistor("R1", "in", "0", 100.0))  # i(V1) = -10 mA (p->n)
    ckt.add(Ccvs("H1", "out", "0", vs, r=200.0))
    ckt.add(Resistor("RL", "out", "0", 1e3))
    sys = ckt.build()
    x = operating_point(sys)
    i_control = vs.current(x)
    assert sys.voltage(x, "out") == pytest.approx(200.0 * i_control)


def test_cccs_current_mirror():
    ckt = Circuit("cccs")
    vs = VoltageSource("V1", "in", "0", dc=1.0)
    ckt.add(vs)
    ckt.add(Resistor("R1", "in", "0", 100.0))
    ckt.add(Cccs("F1", "0", "out", vs, gain=2.0))
    ckt.add(Resistor("RL", "out", "0", 50.0))
    sys = ckt.build()
    x = operating_point(sys)
    i_control = vs.current(x)  # -10 mA (branch current defined into V1's +)
    # The CCCS injects gain * i_control into node "out".
    assert sys.voltage(x, "out") == pytest.approx(2.0 * i_control * 50.0)


def test_controlled_sources_in_ac():
    ckt = Circuit("vcvs-ac")
    ckt.add(VoltageSource("V1", "in", "0", dc=0.0, ac_magnitude=1.0))
    ckt.add(Resistor("Rin", "in", "0", 1e6))
    ckt.add(Vcvs("E1", "out", "0", "in", "0", gain=4.0))
    ckt.add(Resistor("RL", "out", "0", 1e3))
    sys = ckt.build()
    res = ac_analysis(sys, [100.0])
    assert res.magnitude("out")[0] == pytest.approx(4.0, rel=1e-9)


def test_cascaded_vcvs_gains_multiply():
    ckt = Circuit("cascade")
    ckt.add(VoltageSource("V1", "a", "0", dc=0.1))
    ckt.add(Resistor("Ra", "a", "0", 1e6))
    ckt.add(Vcvs("E1", "b", "0", "a", "0", gain=3.0))
    ckt.add(Resistor("Rb", "b", "0", 1e3))
    ckt.add(Vcvs("E2", "c", "0", "b", "0", gain=5.0))
    ckt.add(Resistor("Rc", "c", "0", 1e3))
    sys = ckt.build()
    x = operating_point(sys)
    assert sys.voltage(x, "c") == pytest.approx(1.5)


def test_current_controlled_requires_branch_element():
    r = Resistor("R1", "a", "0", 100.0)
    with pytest.raises(NetlistError):
        Ccvs("H1", "out", "0", r, r=10.0)
    with pytest.raises(NetlistError):
        Cccs("F1", "out", "0", r, gain=2.0)
