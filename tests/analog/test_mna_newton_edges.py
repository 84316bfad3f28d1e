"""MNA assembly and Newton solver edge cases."""

import numpy as np
import pytest

from repro.analog.components.diode import Diode
from repro.analog.components.passives import Capacitor, Resistor, Supercapacitor
from repro.analog.components.sources import VoltageSource
from repro.analog.dc import operating_point
from repro.analog.mna import MnaSystem
from repro.analog.netlist import Circuit
from repro.analog.newton import NewtonOptions, solve_newton
from repro.errors import ConvergenceError, SingularMatrixError


def test_initial_vector_includes_component_extras():
    from repro.analog.components.passives import Inductor

    ckt = Circuit("init")
    ckt.add(VoltageSource("V1", "a", "0", dc=1.0))
    ckt.add(Inductor("L1", "a", "0", 1e-3, i0=0.25))
    sys = ckt.build()
    x0 = sys.initial_vector()
    ind = ckt.component("L1")
    assert x0[ind.extra_idx[0]] == 0.25


def test_seed_initial_conditions_plain_and_supercap():
    ckt = Circuit("seed")
    ckt.add(Resistor("Rb", "a", "0", 1e3))
    ckt.add(Capacitor("C1", "a", "0", 1e-6, v0=1.5))
    sc = ckt.add(Supercapacitor("SC", "b", "0", 0.1, v0=2.5))
    ckt.add(Resistor("Rb2", "b", "0", 1e3))
    sys = ckt.build()
    x = sys.initial_vector()
    sys.seed_initial_conditions(x)
    assert sys.voltage(x, "a") == pytest.approx(1.5)
    assert sys.voltage(x, "b") == pytest.approx(2.5)
    assert sc.stored_voltage(x) == pytest.approx(2.5)


def test_singular_matrix_raises():
    # Two nodes connected only to each other through a V source, with a
    # ground reference elsewhere: node 'b' floats -> singular.
    ckt = Circuit("singular")
    ckt.add(Resistor("Rg", "a", "0", 1e3))
    ckt.add(VoltageSource("V1", "b", "c", dc=1.0))
    ckt.add(Resistor("Rf", "b", "c", 1e3))
    sys = ckt.build()
    x0 = sys.initial_vector()
    with pytest.raises(SingularMatrixError):
        solve_newton(sys, x0, x0, 0.0, 1.0, mode="dc")


def test_newton_iteration_limit():
    ckt = Circuit("hard")
    ckt.add(VoltageSource("V1", "in", "0", dc=100.0))
    ckt.add(Resistor("R1", "in", "a", 1.0))
    ckt.add(Diode("D1", "a", "0"))
    sys = ckt.build()
    x0 = sys.initial_vector()
    with pytest.raises(ConvergenceError) as err:
        solve_newton(
            sys, x0, x0, 0.0, 1.0, mode="dc",
            options=NewtonOptions(max_iterations=2),
        )
    assert err.value.iterations == 2


def test_gmin_stepping_rescues_hard_dc():
    # The same circuit converges through operating_point's gmin homotopy.
    ckt = Circuit("hard2")
    ckt.add(VoltageSource("V1", "in", "0", dc=100.0))
    ckt.add(Resistor("R1", "in", "a", 1.0))
    ckt.add(Diode("D1", "a", "0"))
    sys = ckt.build()
    x = operating_point(sys)
    vd = sys.voltage(x, "a")
    assert 0.6 < vd < 1.5  # ~99 A forced through the junction: big drop
    d = ckt.component("D1")
    r = ckt.component("R1")
    assert r.current(x) == pytest.approx(d.current(x), rel=1e-3)


def test_update_states_commits_capacitor_history():
    ckt = Circuit("hist")
    ckt.add(VoltageSource("V1", "a", "0", dc=1.0))
    ckt.add(Resistor("R1", "a", "b", 1e3))
    cap = ckt.add(Capacitor("C1", "b", "0", 1e-6))
    sys = ckt.build()
    x_prev = sys.initial_vector()
    x = solve_newton(sys, x_prev, x_prev, 1e-5, 1e-5, mode="tran", method="trap")
    sys.update_states(x, x_prev, 1e-5, "trap")
    assert cap._i_prev != 0.0
    sys.reset_states()
    assert cap._i_prev == 0.0


def test_nonlinear_flag_collected():
    ckt = Circuit("flags")
    ckt.add(VoltageSource("V1", "a", "0", dc=1.0))
    ckt.add(Resistor("R1", "a", "b", 1e3))
    ckt.add(Diode("D1", "b", "0"))
    sys = ckt.build()
    assert len(sys.nonlinear) == 1
    assert sys.nonlinear[0].name == "D1"
