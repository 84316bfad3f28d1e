"""Detailed mixed-signal co-simulation of the Fig. 2 power path.

This is the SystemC-A-fidelity backend: the electromechanical generator,
diode bridge and supercapacitor are solved cycle-by-cycle by the MNA
transient engine while the node firmware runs as event-driven processes on
the kernel.  Transmissions are *discrete*: the node's equivalent
resistance (eq. 8) switches from 5.8 Mohm to ~167 ohm for each 4.5 ms
active window, pulling a visible notch in the supercapacitor voltage.

The tuning firmware can run here too: :class:`DetailedTuningBackend`
executes the same sans-IO session as the envelope backend, but its
*measurements come from the waveforms* -- frequency from zero crossings of
the generator velocity, phase from the offset between the (analytic)
acceleration zero crossing and the velocity zero crossing.

Integrating 65 Hz oscillations at ~50 points per cycle makes this backend
roughly 10^4 x slower than the envelope model per simulated second; use it
for seconds-long validation runs (the envelope backend exists precisely
because the paper's authors hit the same wall -- their ref [9]).
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.analog.components.passives import Resistor, Supercapacitor
from repro.analog.components.switch import VariableResistor
from repro.analog.cosim import CircuitHook
from repro.analog.netlist import Circuit
from repro.control.commands import (
    CheckEnergy,
    GetCurrentPosition,
    MeasureFrequency,
    MeasurePhase,
    MoveActuatorTo,
    Settle,
    StepActuator,
)
from repro.control.runner import ControllerBackend, run_session
from repro.control.session import tuning_session
from repro.errors import SimulationError
from repro.harvester.rectifier import add_diode_bridge
from repro.node.radio import Transmission, TransmissionLog
from repro.rng import SeedLike, ensure_rng
from repro.sim.kernel import Simulator
from repro.sim.process import Delay
from repro.system.components import SystemParts, paper_system
from repro.system.config import SystemConfig
from repro.system.vibration import VibrationProfile


class DetailedSimulator:
    """Cycle-accurate co-simulation of generator, bridge, storage and node."""

    def __init__(
        self,
        config: SystemConfig,
        parts: Optional[SystemParts] = None,
        profile: Optional[VibrationProfile] = None,
        v_init: Optional[float] = None,
        points_per_cycle: int = 50,
        seed: SeedLike = None,
    ):
        self.config = config
        self.parts = parts or paper_system()
        self.profile = profile or VibrationProfile.constant(64.0)
        self.rng = ensure_rng(seed)
        self.policy = self.parts.policy(config.tx_interval_s)
        self.mcu = self.parts.mcu(config.clock_hz)
        self.log = TransmissionLog()

        f_max = max(s.frequency_hz for s in self.profile.segments)
        self._dt = 1.0 / (points_per_cycle * f_max)

        self.circuit = Circuit("wsn-power-path")
        self.generator = self.parts.microgenerator.detailed_component(
            acceleration=self._acceleration, name="GEN"
        )
        self.circuit.add(self.generator)
        add_diode_bridge(self.circuit, "coil_p", "coil_n", "vdc", "0")
        # Bleeders keep the coil nodes well-conditioned while the whole
        # bridge blocks (otherwise they float through gmin alone).
        self.circuit.add(Resistor("RBLEED_P", "coil_p", "0", 10e6))
        self.circuit.add(Resistor("RBLEED_N", "coil_n", "0", 10e6))
        store = self.parts.store
        self._v_init = store.voltage if v_init is None else v_init
        self.supercap = self.circuit.add(
            Supercapacitor(
                "CSTORE",
                "vdc",
                "0",
                capacitance=store.capacitance,
                v0=self._v_init,
            )
        )
        node = self.parts.node
        r_tx, r_sleep = node.equivalent_resistances()
        self._r_tx = r_tx
        self._r_sleep = r_sleep
        self.node_load = self.circuit.add(
            VariableResistor("RNODE", "vdc", "0", r_sleep)
        )
        # MCU standby as a fixed equivalent resistance at the 2.8 V rail.
        mcu_sleep_r = 2.8**2 / max(self.mcu.sleep_power(), 1e-12)
        self.mcu_load = self.circuit.add(
            VariableResistor("RMCU", "vdc", "0", mcu_sleep_r)
        )

        self.system = self.circuit.build()
        self.kernel = Simulator()
        from repro.analog.newton import NewtonOptions

        self.hook = CircuitHook(
            self.system,
            dt=self._dt,
            record=["vdc"],
            newton=NewtonOptions(max_iterations=200, gmin=1e-9),
        )
        self.kernel.attach_analog(self.hook)
        self.kernel.add_process(self._node_process(), name="node-policy")

    # -- waveform inputs -----------------------------------------------------

    def _acceleration(self, t: float) -> float:
        seg = self.profile.at(t)
        return seg.accel_mps2 * math.sin(2.0 * math.pi * seg.frequency_hz * t)

    # -- node firmware ---------------------------------------------------------

    def _node_process(self):
        node = self.parts.node
        tx_time = node.transmission_duration()
        while True:
            v = self.hook.voltage("vdc")
            interval = self.policy.interval(v)
            if interval is None:
                yield Delay(1.0)
                continue
            yield Delay(max(interval - tx_time, 1e-3))
            v = self.hook.voltage("vdc")
            if self.policy.interval(v) is None:
                continue
            self.node_load.resistance = self._r_tx
            yield Delay(tx_time)
            self.node_load.resistance = self._r_sleep
            energy = v * v / self._r_tx * tx_time
            self.log.record(
                Transmission(
                    time=self.kernel.now,
                    supercap_voltage=v,
                    temperature_c=25.0,
                    energy=energy,
                )
            )

    # -- runs ------------------------------------------------------------------

    def run(self, duration: float) -> "DetailedResult":
        """Advance the co-simulation by ``duration`` seconds."""
        if duration <= 0.0:
            raise SimulationError("duration must be positive")
        self.kernel.run(until=self.kernel.now + duration)
        return DetailedResult(self)

    def run_tuning_session(self) -> "DetailedResult":
        """Execute one Algorithm 1 session with waveform-derived measurements."""
        backend = DetailedTuningBackend(self)
        result = run_session(tuning_session(self.parts.lut), backend)
        out = DetailedResult(self)
        out.session = result
        return out

    def supercap_voltage(self) -> float:
        """Present storage terminal voltage."""
        return self.hook.voltage("vdc")


class DetailedResult:
    """Snapshot of a detailed run: traces and transmission log."""

    def __init__(self, sim: DetailedSimulator):
        self.config = sim.config
        self.traces = sim.hook.traces
        self.transmissions = sim.log.count
        self.final_voltage = sim.supercap_voltage()
        self.time = sim.kernel.now
        self.session = None
        capacitance = sim.parts.store.capacitance
        self._initial_stored = 0.5 * capacitance * sim._v_init**2
        self._final_stored = 0.5 * capacitance * self.final_voltage**2
        self._tx_energy = sim.log.total_energy

    def to_system_result(self):
        """Adapt this snapshot to the backend-independent result type.

        Only the quantities the detailed model actually tracks are filled
        in: the transmission count/energy, the storage book-ends and the
        waveform traces.  The fine-grained sleep/MCU split of the envelope
        audit has no counterpart here (those loads are resistors inside
        the MNA solve), so the breakdown is *not* balanced.
        """
        from repro.system.result import EnergyBreakdown, SystemResult

        breakdown = EnergyBreakdown(
            initial_stored=self._initial_stored,
            final_stored=self._final_stored,
            node_tx=self._tx_energy,
        )
        if "v(vdc)" in self.traces and "v_store" not in self.traces:
            self.traces.alias("v_store", "v(vdc)")
        return SystemResult(
            config=self.config,
            horizon=self.time,
            transmissions=self.transmissions,
            breakdown=breakdown,
            traces=self.traces,
            final_voltage=self.final_voltage,
        )


class DetailedTuningBackend(ControllerBackend):
    """Algorithm 1 backend whose measurements come from the waveforms."""

    def __init__(self, sim: DetailedSimulator):
        self.sim = sim

    # -- helpers --------------------------------------------------------------

    def _advance(self, duration: float) -> None:
        self.sim.kernel.run(until=self.sim.kernel.now + duration)

    def _velocity_zero_crossings(self, duration: float) -> List[float]:
        """Advance while recording rising zero crossings of the mass velocity."""
        crossings: List[float] = []
        gen = self.sim.generator
        hook = self.sim.hook
        last = gen.velocity(hook.x)
        t_end = self.sim.kernel.now + duration
        while self.sim.kernel.now < t_end - 1e-12:
            step = min(self.sim._dt * 2.0, t_end - self.sim.kernel.now)
            self.sim.kernel.run(until=self.sim.kernel.now + step)
            now_v = gen.velocity(hook.x)
            if last <= 0.0 < now_v:
                # Linear interpolation of the crossing instant.
                frac = -last / (now_v - last) if now_v != last else 0.0
                crossings.append(self.sim.kernel.now - step * (1.0 - frac))
            last = now_v
        return crossings

    # -- ControllerBackend ------------------------------------------------------

    def check_energy(self, cmd: CheckEnergy) -> bool:
        return self.sim.supercap_voltage() >= cmd.threshold

    def measure_frequency(self, cmd: MeasureFrequency) -> float:
        f_nominal = self.sim.profile.frequency(self.sim.kernel.now)
        window = 10.0 / f_nominal  # a little over 8 cycles
        crossings = self._velocity_zero_crossings(window)
        if len(crossings) < 2:
            return 0.0
        n = min(len(crossings) - 1, 8)
        span = crossings[n] - crossings[0]
        measured = n / span if span > 0 else 0.0
        # Timer quantisation of the real firmware still applies.
        return self.sim.mcu.timer.measure_frequency(measured, 8, self.sim.rng)

    def get_position(self, cmd: GetCurrentPosition) -> int:
        return int(round(self.sim.parts.microgenerator.position))

    def _retune_generator(self) -> None:
        micro = self.sim.parts.microgenerator
        self.sim.generator.stiffness = micro.tuning_map.stiffness(micro.position)

    def move_actuator_to(self, cmd: MoveActuatorTo) -> int:
        move = self.sim.parts.microgenerator.actuator.move_to_position(cmd.position)
        if move.duration > 0.0:
            self._advance(move.duration)
        self._retune_generator()
        return move.steps

    def step_actuator(self, cmd: StepActuator) -> int:
        move = self.sim.parts.microgenerator.actuator.move_steps(cmd.direction)
        if move.duration > 0.0:
            self._advance(move.duration)
        self._retune_generator()
        return move.steps

    def settle(self, cmd: Settle) -> None:
        self._advance(cmd.duration)

    def measure_phase(self, cmd: MeasurePhase) -> float:
        """Offset between the accelerometer and generator zero crossings.

        In the relative coordinate the steady-state velocity is *anti*-phase
        with the base acceleration at resonance (the forcing is ``-m a``),
        so the natural reference is the *falling* zero crossing of
        ``a(t) = A sin(2 pi f t)`` at ``t = (k + 1/2)/f``.  The wrapped
        offset is negated so the returned sign follows the MeasurePhase
        convention (positive = resonance above the excitation), matching
        the envelope backend.
        """
        t_now = self.sim.kernel.now
        seg = self.sim.profile.at(t_now)
        f = seg.frequency_hz
        period = 1.0 / f
        crossings = self._velocity_zero_crossings(3.0 * period)
        if not crossings:
            return 0.0
        t_v = crossings[0]
        # Falling zero crossings of a(t) occur at (k + 1/2) periods.
        k = round(t_v * f - 0.5)
        t_a = (k + 0.5) / f
        delta = t_v - t_a
        while delta > period / 2.0:
            delta -= period
        while delta < -period / 2.0:
            delta += period
        delta = -delta  # MeasurePhase sign convention (see docstring).
        return self.sim.mcu.timer.measure_interval(abs(delta), self.sim.rng) * (
            1.0 if delta >= 0 else -1.0
        )
