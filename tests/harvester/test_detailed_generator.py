"""Detailed electromechanical generator: physics of the MNA component."""

import math

import numpy as np
import pytest

from repro.analog.ac import ac_analysis
from repro.analog.components.passives import Resistor
from repro.analog.dc import operating_point
from repro.analog.netlist import Circuit
from repro.analog.transient import TransientSolver
from repro.harvester.microgenerator import ElectromagneticGenerator
from repro.mech.coupling import ElectromagneticCoupling


def _generator(f_n=64.0, m=0.05, zeta_m=0.004, theta=10.0, r_c=1000.0,
               accel_amp=0.5886, f_in=None, ac_amp=0.0):
    f_in = f_in if f_in is not None else f_n
    k = m * (2 * math.pi * f_n) ** 2
    c = 2 * m * (2 * math.pi * f_n) * zeta_m
    coupling = ElectromagneticCoupling(theta=theta, coil_resistance=r_c,
                                       coil_inductance=0.0)

    def accel(t):
        return accel_amp * math.sin(2 * math.pi * f_in * t)

    return ElectromagneticGenerator(
        "GEN", "p", "0", mass=m, stiffness=k, damping_mech=c,
        coupling=coupling, acceleration=accel, ac_accel_amplitude=ac_amp,
    )


def test_dc_static_deflection():
    gen = _generator(accel_amp=0.0)
    gen.acceleration = lambda t: 9.81  # constant 1 g
    ckt = Circuit("static")
    ckt.add(gen)
    ckt.add(Resistor("RL", "p", "0", 1e6))
    sys = ckt.build()
    x = operating_point(sys)
    # Static equilibrium: k z = -m g
    expected_z = -0.05 * 9.81 / gen.stiffness
    assert gen.displacement(x) == pytest.approx(expected_z, rel=1e-6)
    assert gen.velocity(x) == pytest.approx(0.0, abs=1e-12)


def test_open_circuit_resonant_amplitude():
    # Nearly open coil: only mechanical damping. Amplitude should match
    # A / (2 zeta_m wn^2) after the transient rings up.
    gen = _generator(theta=1e-3, r_c=1e6)
    ckt = Circuit("oc")
    ckt.add(gen)
    ckt.add(Resistor("RL", "p", "0", 1e9))
    sys = ckt.build()
    f_n, zeta = 64.0, 0.004
    tau = 1.0 / (zeta * 2 * math.pi * f_n)  # ring-up time constant ~0.62 s
    state = {"z_max": 0.0}

    def track(t, x):
        if t > 5 * tau:
            state["z_max"] = max(state["z_max"], abs(gen.displacement(x)))

    TransientSolver(sys).run(
        t_end=6 * tau, dt=1.0 / (f_n * 60), on_step=track, adaptive=False
    )
    expected = 0.5886 / (2 * zeta * (2 * math.pi * f_n) ** 2)
    assert state["z_max"] == pytest.approx(expected, rel=0.05)


def test_loaded_amplitude_is_damped():
    # Strong coupling into a matched load must reduce the amplitude below
    # the open-circuit value (electrical damping).
    cases = {}
    f_n = 64.0
    for name, (theta, rl) in {
        "open": (1e-3, 1e9),
        "loaded": (30.0, 1000.0),
    }.items():
        gen = _generator(theta=theta, r_c=1000.0)
        ckt = Circuit(name)
        ckt.add(gen)
        ckt.add(Resistor("RL", "p", "0", rl))
        sys = ckt.build()
        peak = {"v": 0.0}

        def track(t, x, g=gen, p=peak):
            if t > 1.0:
                p["v"] = max(p["v"], abs(g.displacement(x)))

        TransientSolver(sys).run(
            t_end=1.5, dt=1.0 / (f_n * 50), on_step=track, adaptive=False
        )
        cases[name] = peak["v"]
    assert cases["loaded"] < 0.5 * cases["open"]


def test_power_flows_into_load_resistor():
    gen = _generator(theta=30.0, r_c=1000.0)
    ckt = Circuit("power")
    ckt.add(gen)
    rl = ckt.add(Resistor("RL", "p", "0", 1000.0))
    sys = ckt.build()
    energy = {"j": 0.0, "last_t": 0.0}

    def track(t, x):
        dt = t - energy["last_t"]
        energy["last_t"] = t
        if t > 1.0:
            v = sys.voltage(x, "p")
            energy["j"] += v * v / 1000.0 * dt

    TransientSolver(sys).run(t_end=2.0, dt=1.0 / (64 * 50), on_step=track,
                             adaptive=False)
    assert energy["j"] > 0.0  # net dissipation in the load


def test_ac_response_peaks_at_resonance():
    gen = _generator(theta=30.0, r_c=1000.0, ac_amp=0.5886)
    ckt = Circuit("ac")
    ckt.add(gen)
    ckt.add(Resistor("RL", "p", "0", 1000.0))
    sys = ckt.build()
    freqs = np.linspace(55.0, 75.0, 201)
    res = ac_analysis(sys, freqs)
    mags = res.magnitude("p")
    f_peak = freqs[int(np.argmax(mags))]
    # Electrical damping shifts/broadens slightly; stay within 1 Hz.
    assert f_peak == pytest.approx(64.0, abs=1.0)


def test_ac_matches_transient_steady_state():
    gen = _generator(theta=30.0, r_c=1000.0, ac_amp=0.5886)
    ckt = Circuit("xcheck")
    ckt.add(gen)
    ckt.add(Resistor("RL", "p", "0", 1000.0))
    sys = ckt.build()
    ac = ac_analysis(sys, [64.0])
    v_ac = float(ac.magnitude("p")[0])

    peak = {"v": 0.0}

    def track(t, x):
        if t > 1.2:
            peak["v"] = max(peak["v"], abs(sys.voltage(x, "p")))

    TransientSolver(sys).run(t_end=1.8, dt=1.0 / (64 * 80), on_step=track,
                             adaptive=False)
    assert peak["v"] == pytest.approx(v_ac, rel=0.05)


def test_stiffness_retuning_moves_resonance():
    gen = _generator(theta=30.0, r_c=1000.0, ac_amp=0.5886)
    ckt = Circuit("retune")
    ckt.add(gen)
    ckt.add(Resistor("RL", "p", "0", 1000.0))
    sys = ckt.build()
    freqs = np.linspace(55.0, 90.0, 141)
    gen.stiffness *= (74.0 / 64.0) ** 2
    res = ac_analysis(sys, freqs)
    f_peak = freqs[int(np.argmax(res.magnitude("p")))]
    assert f_peak == pytest.approx(74.0, abs=1.2)
