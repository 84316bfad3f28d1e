"""Fast energy-balance system simulator (the accelerated backend).

Reproduces the role of the paper's linearised accelerated simulation
(their ref [9]): hour-long runs of the complete Fig. 2 system at
control-system timescales instead of vibration timescales.

Mechanics
---------
The storage energy obeys ``dE/dt = P_harvest(V) - P_sleep - P_tx(V)``
with the harvest power given by the analytic steady-state envelope
(:class:`repro.harvester.envelope.EnvelopeHarvester`) and transmissions
treated as a continuous drain at the policy's rate.  The integrator:

- clamps steps at vibration-profile changes (piecewise-constant inputs),
- lands steps *exactly* on the policy thresholds (2.7 / 2.8 V), and
- resolves the chattering at a threshold where the upper band drains
  faster than harvest but the lower band does not as a **sliding mode**:
  the voltage pins to the threshold and transmissions proceed at exactly
  the energy-limited rate -- which is the physically averaged behaviour
  of a node bursting every 5 ms against a 0.55 F capacitor, and the
  mechanism behind the paper's optimised configurations.

The tuning firmware (Algorithms 1-3) runs unmodified through the
sans-IO command protocol.  :meth:`EnvelopeSimulator._wakeup` is the one
definition of what each command costs and does here: it yields every
span of simulated time a command waits on, and its driver integrates
that span -- this integrator for a scalar run, the lockstep engine of
:mod:`repro.system.vectorized` for a batch -- so the node keeps
transmitting while the actuator settles.
"""

from __future__ import annotations

import bisect
import time
from typing import Generator, List, Optional

from repro.control.commands import (
    CheckEnergy,
    GetCurrentPosition,
    MeasureFrequency,
    MeasurePhase,
    MoveActuatorTo,
    Settle,
    StepActuator,
)
from repro.control.session import tuning_session
from repro.digital.watchdog import WatchdogTimer
from repro.errors import SimulationError
from repro.node.radio import TransmissionLog
from repro.obs.metrics import metrics as _obs_metrics
from repro.obs.state import STATE as _OBS
from repro.obs.trace import span
from repro.rng import SeedLike, ensure_rng
from repro.sim.trace import TraceSet
from repro.system.components import SystemParts, paper_system
from repro.system.config import SystemConfig
from repro.system.result import EnergyBreakdown, SystemResult, TuningEvent
from repro.system.vibration import VibrationProfile

#: Voltage tolerance for "sitting on a threshold".
_V_EPS = 1e-7
#: Relative time tolerance of the integrator.
_T_EPS = 1e-9

#: Simulation-run telemetry (shared series with the vectorized backend,
#: whose scenarios count under ``backend="vectorized"`` whichever
#: integrator ran them).
_SIM_RUNS = _obs_metrics().counter(
    "repro_sim_runs_total",
    "Completed simulation runs per backend",
    ("backend",),
)
_TUNING_SESSIONS = _obs_metrics().counter(
    "repro_sim_tuning_sessions_total",
    "Algorithm 1 tuning sessions executed",
)
_SESSION_SECONDS = _obs_metrics().histogram(
    "repro_sim_session_seconds",
    "Wall time per tuning session",
)
_POWER_EVALS = _obs_metrics().counter(
    "repro_harvester_power_evals_total",
    "Analytic charging-power evaluations served by the harvester",
)


class EnvelopeSimulator:
    """Hour-scale simulator of the complete sensor-node system."""

    def __init__(
        self,
        config: SystemConfig,
        parts: Optional[SystemParts] = None,
        profile: Optional[VibrationProfile] = None,
        seed: SeedLike = None,
        dt_max: float = 2.0,
        record_traces: bool = True,
    ):
        if dt_max <= 0.0:
            raise SimulationError("dt_max must be positive")
        self.config = config
        self.parts = parts or paper_system()
        self.profile = profile or VibrationProfile.paper_profile()
        self.rng = ensure_rng(seed)
        self.dt_max = dt_max
        self.record_traces = record_traces

        self.micro = self.parts.microgenerator
        self.store = self.parts.store
        self.node = self.parts.node
        self.mcu = self.parts.mcu(config.clock_hz)
        self.policy = self.parts.policy(config.tx_interval_s)
        self.watchdog = WatchdogTimer(config.watchdog_s)

        self.t = 0.0
        self.breakdown = EnergyBreakdown(initial_stored=self.store.energy)
        self.log = TransmissionLog(keep_records=False)
        self.traces = TraceSet()
        self.tuning_events: List[TuningEvent] = []
        self._change_times = [s.t_start for s in self.profile.segments]
        self._trace_point()

    # ------------------------------------------------------------------ run

    def run(self, horizon: float = 3600.0) -> SystemResult:
        """Simulate until ``horizon`` seconds (sessions may finish late)."""
        return self._run(horizon, backend="envelope")

    def _run(self, horizon: float, backend: str) -> SystemResult:
        """:meth:`run`, counted in ``repro_sim_runs_total`` under ``backend``."""
        if horizon <= 0.0:
            raise SimulationError("horizon must be positive")
        evals_before = self.micro.envelope.power_evals
        with span("sim.envelope.run", horizon=horizon) as run_span:
            while True:
                t_wake = self.watchdog.next_wakeup(self.t)
                if t_wake >= horizon:
                    self._integrate_until(horizon)
                    break
                self._integrate_until(t_wake)
                self._run_wakeup()
            run_span.annotate(
                sessions=len(self.tuning_events),
                transmissions=self.log.count,
            )
        if _OBS.metrics_on:
            _SIM_RUNS.inc(backend=backend)
            _POWER_EVALS.inc(self.micro.envelope.power_evals - evals_before)
        return self._result()

    def _result(self) -> SystemResult:
        """Close the energy accounts and assemble the run's result."""
        self.breakdown.final_stored = self.store.energy
        self.breakdown.clipped = self.store.clipped_energy
        return SystemResult(
            config=self.config,
            horizon=self.t,
            transmissions=self.log.count,
            breakdown=self.breakdown,
            traces=self.traces,
            tuning_events=self.tuning_events,
            final_voltage=self.store.voltage,
            final_position=self.micro.position,
        )

    def _run_wakeup(self) -> None:
        """Execute one Algorithm 1 session at the current time."""
        wall0 = time.perf_counter() if _OBS.metrics_on else 0.0
        for wait in self._wakeup():
            self._integrate_until(self.t + wait)
        if _OBS.metrics_on:
            _TUNING_SESSIONS.inc()
            _SESSION_SECONDS.observe(time.perf_counter() - wall0)

    def _wakeup(self) -> Generator[float, None, None]:
        """One Algorithm 1 session, yielding each span of time it waits on.

        The driver -- :meth:`_run_wakeup`, or the lockstep engine for a
        batch lane -- integrates every yielded span, so the clock, the
        store and the energy accounts are where a scalar run would have
        them, before resuming the generator.  The session's tuning event
        is logged when it ends.
        """
        t0 = self.t
        e0 = self.breakdown.consumed
        session = tuning_session(self.parts.lut)
        response = None
        while True:
            try:
                command = session.send(response)
            except StopIteration as stop:
                result = stop.value
                break
            response = yield from self._perform(command)
        self.tuning_events.append(
            TuningEvent(
                time=t0,
                result=result,
                duration=self.t - t0,
                energy=self.breakdown.consumed - e0,
            )
        )

    # ------------------------------------------------- continuous integration

    def _integrate_until(self, t_target: float) -> None:
        """Advance the energy balance to ``t_target``."""
        guard = 0
        while self.t < t_target - _T_EPS:
            guard += 1
            if guard > 50_000_000:  # pragma: no cover - runaway protection
                raise SimulationError("envelope integrator failed to advance")
            dt_cap = min(self.dt_max, t_target - self.t)
            dt_cap = self._clamp_to_profile_change(dt_cap)
            v = self.store.voltage
            p_h = self._harvest_power(v)
            p_sleep = self._sleep_power(v)

            threshold = self._threshold_at(v)
            if threshold is not None:
                advanced = self._threshold_step(threshold, v, p_h, p_sleep, dt_cap)
                if advanced:
                    continue

            self._band_step(v, p_h, p_sleep, dt_cap)

    def _clamp_to_profile_change(self, dt_cap: float) -> float:
        idx = bisect.bisect_right(self._change_times, self.t + _T_EPS)
        if idx < len(self._change_times):
            dt_cap = min(dt_cap, self._change_times[idx] - self.t)
        return max(dt_cap, _T_EPS)

    def _threshold_at(self, v: float) -> Optional[float]:
        for thr in (self.policy.v_off, self.policy.v_fast):
            if abs(v - thr) < _V_EPS:
                return thr
        return None

    def _threshold_step(
        self, thr: float, v: float, p_h: float, p_sleep: float, dt_cap: float
    ) -> bool:
        """Handle a step starting exactly on a policy threshold.

        Returns True if it advanced time (sliding); False if the caller
        should take a plain band step (moving cleanly off the threshold).
        """
        drain_up = self._tx_drain(thr + _V_EPS, v)
        drain_lo = self._tx_drain(thr - _V_EPS, v)
        p_up = p_h - p_sleep - drain_up
        p_lo = p_h - p_sleep - drain_lo
        if p_up >= 0.0 or p_lo <= 0.0:
            return False  # moves cleanly up or down: plain step handles it
        # Sliding mode: pin the voltage, transmit at the energy-limited mix.
        lam = p_lo / (p_lo - p_up)
        rate = lam * self.policy.rate(thr + _V_EPS) + (1.0 - lam) * self.policy.rate(
            thr - _V_EPS
        )
        drain = lam * drain_up + (1.0 - lam) * drain_lo
        dt = dt_cap
        self._apply_flows(dt, p_h, p_sleep, drain, rate * dt, v)
        return True

    def _band_step(self, v: float, p_h: float, p_sleep: float, dt_cap: float) -> None:
        """One plain integration step inside (or leaving) a policy band."""
        at_thr = self._threshold_at(v)
        if at_thr is None:
            v_eval = v
        else:
            # On a threshold but not sliding: pick the band we are moving
            # into (up if the upper band gains energy, down otherwise).
            p_up = p_h - p_sleep - self._tx_drain(at_thr + _V_EPS, v)
            v_eval = at_thr + _V_EPS if p_up >= 0.0 else at_thr - _V_EPS

        drain = self._tx_drain(v_eval, v)
        rate = self.policy.rate(v_eval)
        p_net = p_h - p_sleep - drain
        dt = dt_cap

        # Land exactly on the next threshold in the direction of travel.
        if p_net > 0.0:
            for thr in (self.policy.v_off, self.policy.v_fast):
                if v < thr - _V_EPS:
                    dt_cross = self._time_to_voltage(thr, p_net)
                    if dt_cross is not None and dt_cross < dt:
                        dt = dt_cross
                    break
        elif p_net < 0.0:
            for thr in (self.policy.v_fast, self.policy.v_off):
                if v > thr + _V_EPS:
                    dt_cross = self._time_to_voltage(thr, p_net)
                    if dt_cross is not None and dt_cross < dt:
                        dt = dt_cross
                    break

        dt = max(dt, _T_EPS)
        self._apply_flows(dt, p_h, p_sleep, drain, rate * dt, v)

    def _time_to_voltage(self, v_target: float, p_net: float) -> Optional[float]:
        e_target = 0.5 * self.store.capacitance * v_target * v_target
        delta = e_target - self.store.energy
        if p_net == 0.0:
            return None
        dt = delta / p_net
        return dt if dt > 0.0 else None

    def _apply_flows(
        self,
        dt: float,
        p_h: float,
        p_sleep: float,
        p_tx: float,
        n_tx: float,
        v: float,
    ) -> None:
        """Move energy for one accepted step and advance time."""
        deposited = self.store.deposit(p_h * dt)
        self.breakdown.harvested += deposited

        node_sleep = self.node.sleep_power(v) * dt
        mcu_sleep = self.mcu.sleep_power() * dt
        self._draw(node_sleep, "node_sleep")
        self._draw(mcu_sleep, "mcu_sleep")
        if p_tx > 0.0:
            tx_energy = p_tx * dt
            self._draw(tx_energy, "node_tx")
            self.log.accumulate(n_tx, self.t + dt, v, tx_energy)

        self.t += dt
        self._trace_point()

    def _draw(self, energy: float, bucket: str) -> None:
        if energy <= 0.0:
            return
        supplied = self.store.draw(energy)
        setattr(self.breakdown, bucket, getattr(self.breakdown, bucket) + energy)
        if supplied < energy:
            self.breakdown.shortfall += energy - supplied

    # ----------------------------------------------------------- power terms

    def _harvest_power(self, v: float) -> float:
        return self.micro.charging_power(
            self.profile.frequency(self.t), self.profile.acceleration(self.t), v
        )

    def _sleep_power(self, v: float) -> float:
        return self.node.sleep_power(v) + self.mcu.sleep_power()

    def _tx_drain(self, v_band: float, v_actual: float) -> float:
        """Average transmission power with the band chosen at ``v_band``."""
        return self.policy.drain_rate(v_band, self.node.transmission_energy(v_actual))

    # ------------------------------------------------------------- tracing

    def _trace_point(self) -> None:
        if not self.record_traces:
            return
        v = self.store.voltage
        self.traces.trace("v_store").append(self.t, v)
        self.traces.trace("harvest_power").append(self.t, self._harvest_power(v))
        self.traces.trace("position").append(self.t, self.micro.position)
        self.traces.trace("input_frequency").append(
            self.t, self.profile.frequency(self.t)
        )

    # ---------------------------------------------------- firmware commands

    def _perform(self, command) -> Generator[float, None, object]:
        """Execute one firmware command; return the firmware's response.

        Yields each span of simulated time the command waits on
        (measurement windows, actuator travel, settling); energy the
        command costs is drawn once that span has been integrated.
        The tests run in the order of how often a session issues them.
        """
        if isinstance(command, GetCurrentPosition):
            self._draw(self.mcu.busy(1e-3).mcu_energy, "mcu_active")
            return int(round(self.micro.position))
        if isinstance(command, Settle):
            yield command.duration
            return None
        if isinstance(command, CheckEnergy):
            self._draw(self.mcu.busy(2e-3).mcu_energy, "mcu_active")
            return self.store.voltage >= command.threshold
        if isinstance(command, MeasurePhase):
            resonator = self.micro.tuning_map.resonator_at(self.micro.position)
            true_phase = resonator.phase_difference_seconds(
                self.profile.frequency(self.t)
            )
            m = self.mcu.measure_phase(true_phase, self.rng)
            yield m.duration
            self._draw(m.mcu_energy, "mcu_active")
            self._draw(m.peripheral_energy, "accelerometer")
            return m.value
        if isinstance(command, MeasureFrequency):
            m = self.mcu.measure_frequency(self.profile.frequency(self.t), self.rng)
            yield m.duration
            self._draw(m.mcu_energy, "mcu_active")
            return m.value
        if isinstance(command, (StepActuator, MoveActuatorTo)):
            actuator = self.micro.actuator
            if isinstance(command, StepActuator):
                move = actuator.move_steps(command.direction)
            else:
                move = actuator.move_to_position(command.position)
            if move.duration > 0.0:
                busy = self.mcu.busy(move.duration)
                yield move.duration
                self._draw(busy.mcu_energy, "mcu_active")
                self._draw(move.energy, "actuator")
            return move.steps
        raise SimulationError(f"unknown controller command {command!r}")


def simulate(
    config: SystemConfig,
    horizon: float = 3600.0,
    seed: SeedLike = None,
    parts: Optional[SystemParts] = None,
    profile: Optional[VibrationProfile] = None,
    record_traces: bool = True,
) -> SystemResult:
    """One-call envelope simulation of a configuration."""
    sim = EnvelopeSimulator(
        config, parts=parts, profile=profile, seed=seed, record_traces=record_traces
    )
    return sim.run(horizon)
