"""Unit tests for the event-driven kernel: scheduling, processes, signals."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.process import Delay, WaitEvent, WaitSignal
from repro.sim.signal import Signal


def test_schedule_runs_callbacks_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_equal_time_events_run_fifo():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.schedule(1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == list("abcde")


def test_run_until_stops_at_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(5.0))
    sim.schedule(10.0, lambda: fired.append(10.0))
    sim.run(until=7.0)
    assert fired == [5.0]
    assert sim.now == 7.0


def test_run_resumes_after_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(5.0))
    sim.run(until=2.0)
    assert fired == []
    sim.run(until=10.0)
    assert fired == [5.0]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    handle.cancel()
    sim.run()
    assert fired == []


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    # Remaining event still pending.
    sim.run()
    assert fired == [1, 2]


def test_process_delay_sequence():
    sim = Simulator()
    times = []

    def proc():
        times.append(sim.now)
        yield Delay(1.5)
        times.append(sim.now)
        yield Delay(0.5)
        times.append(sim.now)

    sim.add_process(proc())
    sim.run()
    assert times == [0.0, 1.5, 2.0]


def test_process_wait_signal():
    sim = Simulator()
    sig = Signal(0, name="s")
    seen = []

    def waiter():
        while True:
            yield WaitSignal(sig)
            seen.append((sim.now, sig.value))
            if sig.value >= 2:
                return

    def driver():
        yield Delay(1.0)
        sig.write(1)
        yield Delay(1.0)
        sig.write(2)

    sim.add_process(waiter())
    sim.add_process(driver())
    sim.run()
    assert seen == [(1.0, 1), (2.0, 2)]


def test_signal_write_same_value_does_not_wake():
    sim = Simulator()
    sig = Signal(5, name="s")
    wakes = []

    def waiter():
        yield WaitSignal(sig)
        wakes.append(sim.now)

    def driver():
        yield Delay(1.0)
        sig.write(5)  # unchanged: no wake
        yield Delay(1.0)
        sig.write(6)

    sim.add_process(waiter())
    sim.add_process(driver())
    sim.run()
    assert wakes == [2.0]


def test_named_event_notify_wakes_all_waiters():
    sim = Simulator()
    evt = sim.event("go")
    woken = []

    def waiter(tag):
        yield WaitEvent(evt)
        woken.append((tag, sim.now))

    def driver():
        yield Delay(3.0)
        evt.notify()

    sim.add_process(waiter("a"))
    sim.add_process(waiter("b"))
    sim.add_process(driver())
    sim.run()
    assert sorted(woken) == [("a", 3.0), ("b", 3.0)]


def test_process_kill_stops_resumption():
    sim = Simulator()
    ticks = []

    def ticker():
        while True:
            yield Delay(1.0)
            ticks.append(sim.now)

    proc = sim.add_process(ticker())
    sim.schedule(2.5, proc.kill)
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0]
    assert proc.finished


def test_process_bad_yield_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.add_process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_analog_hook_advances_with_time():
    from repro.sim.kernel import AnalogHook

    class Recorder(AnalogHook):
        def __init__(self):
            self.spans = []

        def advance(self, t_from, t_to):
            self.spans.append((t_from, t_to))
            return t_to

    sim = Simulator()
    hook = Recorder()
    sim.attach_analog(hook)
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=3.0)
    assert hook.spans == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    assert sim.now == 3.0


def test_analog_hook_early_stop_resyncs_kernel():
    from repro.sim.kernel import AnalogHook

    class EarlyStop(AnalogHook):
        def __init__(self):
            self.calls = 0

        def advance(self, t_from, t_to):
            self.calls += 1
            midpoint = (t_from + t_to) / 2.0
            if self.calls == 1 and midpoint < t_to:
                return midpoint
            return t_to

    sim = Simulator()
    sim.attach_analog(EarlyStop())
    fired = []
    sim.schedule(4.0, lambda: fired.append(sim.now))
    sim.run(until=4.0)
    assert fired == [4.0]
