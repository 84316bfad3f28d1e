"""Unit tests for signals, module hierarchy and the VCD writer."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.module import Module
from repro.sim.signal import Signal
from repro.sim.vcd import VcdWriter


def test_signal_read_write():
    s = Signal(3, name="s")
    assert s.read() == 3
    s.write(4)
    assert s.value == 4


def test_signal_on_change_callback_gets_old_and_new():
    s = Signal(0, name="s")
    seen = []
    s.on_change(lambda old, new: seen.append((old, new)))
    s.write(1)
    s.write(1)  # no change
    s.write(2)
    assert seen == [(0, 1), (1, 2)]


def test_signal_edge_callbacks():
    s = Signal(False, name="s")
    edges = []
    s.posedge(lambda: edges.append("rise"))
    s.negedge(lambda: edges.append("fall"))
    s.write(True)
    s.write(False)
    s.write(True)
    assert edges == ["rise", "fall", "rise"]


def test_module_hierarchy_names():
    sim = Simulator()
    top = Module(sim, "top")
    child = Module(sim, "harvester", parent=top)
    grand = Module(sim, "actuator", parent=child)
    assert grand.full_name == "top.harvester.actuator"
    assert [m.name for m in top.walk()] == ["top", "harvester", "actuator"]


def test_module_signal_and_process_naming():
    sim = Simulator()
    top = Module(sim, "top")
    sig = top.signal(0, name="v")
    assert sig.name == "top.v"

    ran = []

    def proc():
        ran.append(sim.now)
        yield Simulator.delay(1.0)

    p = top.process(proc(), name="beh")
    assert p.name == "top.beh"
    sim.run()
    assert ran == [0.0]


def test_vcd_writer_renders_header_and_changes():
    sim = Simulator()
    sig = Signal(0.0, name="vdd")
    writer = VcdWriter(timescale_seconds=1e-6)
    writer.watch(sig, sim, kind="real")
    sig.write(1.5)
    doc = writer.render()
    assert "$timescale" in doc
    assert "$var real 64" in doc
    assert "r1.5" in doc


def test_vcd_manual_record_and_bool():
    writer = VcdWriter()
    writer.record_value(0.0, "clk", False, kind="wire")
    writer.record_value(1e-6, "clk", True, kind="wire")
    doc = writer.render()
    assert "#0" in doc and "#1" in doc


def test_vcd_rejects_bad_timescale_and_kind():
    with pytest.raises(SimulationError):
        VcdWriter(timescale_seconds=0.0)
    writer = VcdWriter()
    sim = Simulator()
    with pytest.raises(SimulationError):
        writer.watch(Signal(0, name="x"), sim, kind="banana")
