"""Driver connecting a tuning session to a simulation backend.

:class:`ControllerBackend` is the interface of a simulation world that
executes each command in one call; :func:`run_session` pumps a session
generator against it.  Backends are responsible for *all* physics:
advancing time, drawing energy, moving the real actuator and
synthesising measurement values (including their noise).

Only the detailed co-simulation implements it
(:class:`~repro.system.detailed.DetailedTuningBackend`), because each
of its commands advances the MNA kernel.  The envelope physics defines
its commands once, in :meth:`~repro.system.envelope.EnvelopeSimulator._wakeup`,
a generator that yields the simulated time each command waits on so
that the scalar integrator and the lockstep engine can both drive it.
"""

from __future__ import annotations

from typing import Generator

from repro.control.commands import (
    CheckEnergy,
    GetCurrentPosition,
    MeasureFrequency,
    MeasurePhase,
    MoveActuatorTo,
    Settle,
    StepActuator,
)
from repro.control.session import SessionResult
from repro.errors import SimulationError


class ControllerBackend:
    """Executes controller commands in a concrete simulation world."""

    def check_energy(self, cmd: CheckEnergy) -> bool:
        """Whether the store can power the actuator (Vs >= threshold)."""
        raise NotImplementedError

    def measure_frequency(self, cmd: MeasureFrequency) -> float:
        """Run the 8-cycle measurement; advance time, draw MCU energy."""
        raise NotImplementedError

    def get_position(self, cmd: GetCurrentPosition) -> int:
        """Read the firmware's 8-bit position register."""
        raise NotImplementedError

    def move_actuator_to(self, cmd: MoveActuatorTo) -> int:
        """Perform the coarse move; returns motor steps actually moved."""
        raise NotImplementedError

    def step_actuator(self, cmd: StepActuator) -> int:
        """Perform a single fine step; returns motor steps actually moved."""
        raise NotImplementedError

    def settle(self, cmd: Settle) -> None:
        """Wait for the generator to settle (sleep-level consumption)."""
        raise NotImplementedError

    def measure_phase(self, cmd: MeasurePhase) -> float:
        """Measure the signed phase difference; draws accelerometer energy."""
        raise NotImplementedError


def run_session(
    session: Generator[object, object, SessionResult],
    backend: ControllerBackend,
) -> SessionResult:
    """Pump ``session`` to completion against ``backend``."""
    try:
        command = next(session)
    except StopIteration as stop:
        return _result_of(stop)
    while True:
        if isinstance(command, CheckEnergy):
            response = backend.check_energy(command)
        elif isinstance(command, MeasureFrequency):
            response = backend.measure_frequency(command)
        elif isinstance(command, GetCurrentPosition):
            response = backend.get_position(command)
        elif isinstance(command, MoveActuatorTo):
            response = backend.move_actuator_to(command)
        elif isinstance(command, StepActuator):
            response = backend.step_actuator(command)
        elif isinstance(command, Settle):
            response = backend.settle(command)
        elif isinstance(command, MeasurePhase):
            response = backend.measure_phase(command)
        else:
            raise SimulationError(f"unknown controller command {command!r}")
        try:
            command = session.send(response)
        except StopIteration as stop:
            return _result_of(stop)


def _result_of(stop: StopIteration) -> SessionResult:
    value = stop.value
    if not isinstance(value, SessionResult):
        raise SimulationError(
            "tuning session must return a SessionResult; got "
            f"{type(value).__name__}"
        )
    return value
