"""Circuit/kernel co-simulation: lockstep hooks and threshold watchers."""

import math

import pytest

from repro.analog.components.passives import Capacitor, Resistor
from repro.analog.components.sources import VoltageSource, sine
from repro.analog.cosim import CircuitHook, ThresholdWatcher
from repro.analog.netlist import Circuit
from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.process import Delay, WaitEvent


def _rc_hook(dt=1e-4):
    ckt = Circuit("rc")
    ckt.add(VoltageSource("V1", "in", "0", dc=5.0))
    ckt.add(Resistor("R1", "in", "out", 1e3))
    ckt.add(Capacitor("C1", "out", "0", 1e-3))  # tau = 1 s
    return CircuitHook(ckt.build(), dt=dt, record=["out"])


def test_hook_advances_with_kernel_time():
    sim = Simulator()
    hook = _rc_hook()
    sim.attach_analog(hook)
    sim.run(until=1.0)
    # After one time constant the capacitor is at ~63%.
    assert hook.voltage("out") == pytest.approx(5.0 * (1 - math.exp(-1)), rel=0.02)
    assert hook.t == pytest.approx(1.0)


def test_hook_traces_recorded():
    sim = Simulator()
    hook = _rc_hook(dt=1e-3)
    sim.attach_analog(hook)
    sim.run(until=0.5)
    tr = hook.traces["v(out)"]
    assert len(tr) > 100
    assert tr.values[0] == pytest.approx(0.0, abs=1e-9)


def test_threshold_watcher_fires_event_and_wakes_process():
    sim = Simulator()
    hook = _rc_hook()
    sim.attach_analog(hook)
    crossed = sim.event("crossed")
    hook.watch("out-rises", "out", threshold=2.5, event=crossed, direction="rising")
    seen = []

    def waiter():
        yield WaitEvent(crossed)
        seen.append(sim.now)

    sim.add_process(waiter())
    sim.run(until=3.0)
    # v(t) = 5 (1 - e^-t) crosses 2.5 at t = ln 2.
    assert len(seen) == 1
    assert seen[0] == pytest.approx(math.log(2.0), abs=0.01)


def test_watcher_direction_filtering():
    # A sine through the watcher: rising-only must fire half as often.
    def build(direction):
        ckt = Circuit("sine")
        ckt.add(VoltageSource("V1", "a", "0", waveform=sine(1.0, 10.0)))
        ckt.add(Resistor("R1", "a", "0", 1e3))
        hook = CircuitHook(ckt.build(), dt=1e-4)
        watcher = hook.watch("w", "a", threshold=0.0, direction=direction)
        sim = Simulator()
        sim.attach_analog(hook)
        sim.run(until=0.5)  # 5 cycles
        return watcher

    rising = build("rising")
    both = build("both")
    assert len(rising.crossings) == pytest.approx(5, abs=1)
    assert len(both.crossings) == pytest.approx(10, abs=1)


def test_watcher_bad_direction():
    with pytest.raises(SimulationError):
        ThresholdWatcher("w", lambda x: 0.0, 0.0, direction="sideways")


def test_digital_process_reads_analog_mid_run():
    sim = Simulator()
    hook = _rc_hook()
    sim.attach_analog(hook)
    readings = []

    def sampler():
        for _ in range(4):
            yield Delay(0.25)
            readings.append(hook.voltage("out"))

    sim.add_process(sampler())
    sim.run(until=1.1)
    assert len(readings) == 4
    # Monotone charging.
    assert all(b > a for a, b in zip(readings, readings[1:]))
    assert readings[0] == pytest.approx(5.0 * (1 - math.exp(-0.25)), rel=0.02)


def test_hook_requires_positive_dt():
    ckt = Circuit("x")
    ckt.add(Resistor("R1", "a", "0", 1.0))
    with pytest.raises(SimulationError):
        CircuitHook(ckt.build(), dt=0.0)
