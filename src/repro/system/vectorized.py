"""NumPy-vectorized batch envelope simulation (the SIMD backend).

Every batch workload in the library -- Fig. 4 sweeps, Monte Carlo
families, campaigns, studies -- bottoms out in the scalar
:class:`~repro.system.envelope.EnvelopeSimulator`, one scenario at a
time.  This module advances a whole *batch* of scenarios in lockstep
instead: the per-scenario continuous state (time, stored energy, energy
accounts, transmission counters) lives in ``(n_scenarios,)`` NumPy
arrays and every integration step is a handful of elementwise array
operations, so the Python interpreter cost of a step is paid once per
batch rather than once per scenario.

Semantics
---------
The engine is a *re-expression*, not a re-modelling, of the envelope
integrator: per scenario it performs exactly the arithmetic of
``EnvelopeSimulator._integrate_until`` (``dE/dt = P_harvest(V) -
P_sleep - P_tx(V)``, steps clamped at vibration-profile changes, exact
landings on the 2.7 / 2.8 V policy thresholds, sliding-mode pinning at
a threshold) in the same operation order, so results agree with the
scalar backend to the last bit on every platform where NumPy's
elementwise kernels are IEEE-correctly rounded (the differential suite
in ``tests/differential/`` machine-checks the agreement with explicit
tolerance envelopes rather than assuming it).

**Tuning sessions** (Algorithm 1 wake-ups) are interleaved with the
lockstep integration rather than excursions into the scalar simulator:
each lane pumps its own sans-IO :func:`~repro.control.session.tuning_session`
generator, command effects (RNG measurement draws, actuator moves, MCU
energy draws) run scalar per lane in exactly the scalar backend's
operation order, but the *time* every command spans -- measurement
windows, 5 s settling waits, actuator travel -- is integrated as masked
array steps shared with every other lane.  A wave of watchdog wake-ups
across a big batch therefore costs one set of array steps, not one
scalar integration per lane, while each lane's per-scenario RNG stream,
traces and tuning log stay byte-identical to a scalar run.

**Harvest coefficients** (EMF peak, rectifier ceiling, mechanical power
limit) are re-derived scalar per lane -- through the same ``math`` calls
as the scalar harvester, with the position-dependent resonator constants
cached per (tuning map, position) -- whenever a lane enters a new
vibration segment or moves its actuator.  They are constant in between,
which is what makes the hot loop pure array math.
"""

from __future__ import annotations

import bisect
import gc
import math
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.control.commands import (
    CheckEnergy,
    GetCurrentPosition,
    MeasureFrequency,
    MeasurePhase,
    MoveActuatorTo,
    Settle,
    StepActuator,
)
from repro.control.runner import _result_of
from repro.control.session import tuning_session
from repro.errors import SimulationError
from repro.obs.state import STATE as _OBS
from repro.obs.trace import span
from repro.scenario import Scenario
from repro.system.envelope import (
    _SESSION_SECONDS,
    _SIM_RUNS,
    _T_EPS,
    _TUNING_SESSIONS,
    _V_EPS,
    EnvelopeSimulator,
)
from repro.system.result import SystemResult, TuningEvent

#: Narrowest batch the ``vectorized`` backend integrates in lockstep;
#: :func:`simulate_scalar` runs narrower ones.  The engine pays a fixed
#: array overhead per step whatever the lane count: measured against
#: the scalar integrator it is 3.9-4.6x slower at one lane, 1.07-1.56x
#: at four and 0.90-1.31x at five (README, "Vectorized execution").
LOCKSTEP_MIN_LANES = 5

#: Same runaway-protection bound as the scalar integrator.  The scalar
#: guard resets per ``_integrate_until`` call (one inter-event stretch);
#: the engine mirrors that by resetting whenever an event (wake-up or
#: finalisation) is processed, so legitimately long runs never trip it.
_MAX_ITERATIONS = 50_000_000


# -- the batch engine --------------------------------------------------------


class VectorizedEnvelopeEngine:
    """Advance many :class:`EnvelopeSimulator` lanes in lockstep.

    The engine owns the hot-path state as arrays; the lane simulators
    own everything event-ish (RNG, actuator, tuning sessions, traces,
    the watchdog schedule).  State is pushed into a lane's objects right
    before its wake-up session runs (or before finalisation) and pulled
    back after, so a session sees exactly the world a scalar run would.
    """

    def __init__(self, sims: Sequence[EnvelopeSimulator], horizons: Sequence[float]):
        if len(sims) != len(horizons):
            raise SimulationError("one horizon per simulator required")
        if not sims:
            raise SimulationError("batch engine needs at least one lane")
        for horizon in horizons:
            if horizon <= 0.0:
                raise SimulationError("horizon must be positive")
        self.sims = list(sims)
        n = len(self.sims)
        # Scalar-only per-lane event state (plain python lists; nothing
        # vectorized reads these).
        self.horizon = [float(h) for h in horizons]

        # Per-lane constants.
        self.cap = np.array([s.store.capacitance for s in sims], dtype=float)
        self.emax = np.array([s.store.energy_max for s in sims], dtype=float)
        self.dtmax = np.array([s.dt_max for s in sims], dtype=float)
        self.v_off = np.array([s.policy.v_off for s in sims], dtype=float)
        self.v_fast = np.array([s.policy.v_fast for s in sims], dtype=float)
        # Epsilon-shifted copies, precomputed once (the same additions
        # the scalar comparisons perform per step).
        self.v_off_lo = self.v_off - _V_EPS
        self.v_off_hi = self.v_off + _V_EPS
        self.v_fast_lo = self.v_fast - _V_EPS
        self.v_fast_hi = self.v_fast + _V_EPS
        self.int_mid = np.array([s.policy.mid_interval for s in sims], dtype=float)
        self.int_fast = np.array([s.policy.fast_interval for s in sims], dtype=float)
        self.rate_mid = 1.0 / self.int_mid
        self.rate_fast = 1.0 / self.int_fast
        self.sleep_i = np.array([s.node.sleep_current for s in sims], dtype=float)
        self.mcu_slp = np.array([s.mcu.sleep_power() for s in sims], dtype=float)
        self.q_tx = np.array([s.node.phases.total_charge for s in sims], dtype=float)
        self.kc = np.array(
            [s.micro.envelope.rectifier.conduction_factor for s in sims], dtype=float
        )
        self.rs = np.array(
            [s.micro.envelope.source_resistance for s in sims], dtype=float
        )
        self.traced = np.array([s.record_traces for s in sims], dtype=bool)
        self._any_traced = bool(self.traced.any())

        # Vibration-profile geometry: per-lane segment start times padded
        # with +inf so pointer reads never go out of bounds, plus cached
        # per-segment excitation (python floats: the refresh math runs
        # scalar) and the "next boundary" arrays the hot loop compares
        # against without re-gathering.
        self._lane_starts: List[List[float]] = [
            list(s._change_times) for s in sims
        ]
        self._seg_f: List[List[float]] = [
            [seg.frequency_hz for seg in s.profile.segments] for s in sims
        ]
        self._seg_a: List[List[float]] = [
            [seg.accel_mps2 for seg in s.profile.segments] for s in sims
        ]
        width = max(len(st) for st in self._lane_starts) + 2
        starts = np.full((n, width), np.inf, dtype=float)
        for i, st in enumerate(self._lane_starts):
            starts[i, : len(st)] = st
        self.starts = starts
        self.n_seg = np.array([len(st) for st in self._lane_starts], dtype=np.int64)
        self.rows = np.arange(n)

        # Dynamic state (mirrors of the lane objects' fields).
        self.t = np.zeros(n)
        self.energy = np.zeros(n)
        self.dep = np.zeros(n)
        self.drawn = np.zeros(n)
        self.clip = np.zeros(n)
        self.b_harv = np.zeros(n)
        self.b_nsl = np.zeros(n)
        self.b_msl = np.zeros(n)
        self.b_ntx = np.zeros(n)
        self.b_short = np.zeros(n)
        self.frac = np.zeros(n)
        # Whole-transmission counts; kept float64 so the per-step
        # accumulation needs no astype (floored floats are exact
        # integers far below 2**53).
        self.tx_count = np.zeros(n)
        self.tx_e = np.zeros(n)

        # Harvest coefficients of the current (segment, position) pair,
        # and the position-dependent resonator constants they derive
        # from (python floats: the refresh math runs through the same
        # ``math`` functions as the scalar harvester).
        self.voc = np.zeros(n)
        self.plim = np.zeros(n)
        # Only ever touched one lane at a time, so plain python lists
        # (scalar numpy indexing would dominate the pointer walk).
        self.freq = [0.0] * n
        self.seg_idx = [0] * n
        self.chg_idx = [0] * n
        self.nxt_seg = np.full(n, np.inf)
        self.cur_chg = np.full(n, np.inf)
        self._wn = [0.0] * n
        self._zt = [0.0] * n
        self._ce = [0.0] * n
        self._theta = [
            s.micro.envelope.coupling.theta for s in sims
        ]
        self._vd = [
            s.micro.envelope.rectifier.diode_drop for s in sims
        ]
        self._eff = [s.micro.envelope.mech_efficiency for s in sims]
        # Array mirrors of the refresh constants, so segment-crossing
        # waves can run the coefficient math vectorized (see
        # :meth:`_advance_pointers`).  ``_wn_a``/``_zt_a``/``_ce_half_a``
        # are kept in sync by :meth:`_retune`; the rest never change.
        # ``_vd2_a``/``_ce_half_a`` hold ``2.0 * vd`` and ``0.5 * ce`` --
        # the exact intermediate floats the scalar expressions produce.
        self._wn_a = np.zeros(n)
        self._zt_a = np.zeros(n)
        self._ce_half_a = np.zeros(n)
        self._theta_a = np.array(self._theta, dtype=float)
        self._vd2_a = np.array([2.0 * v for v in self._vd], dtype=float)
        self._eff_a = np.array(self._eff, dtype=float)

        # Fixed per-lane command costs (pure functions of the MCU clock,
        # identical floats to what ``mcu.busy`` computes each call).
        self._act_pw = [s.mcu.power.active_power(s.mcu.clock_hz) for s in sims]
        self._chk_cost = [p * 2e-3 for p in self._act_pw]
        self._pos_cost = [p * 1e-3 for p in self._act_pw]
        self._cap_l = [float(s.store.capacitance) for s in sims]

        # Store shadow of the lane whose session event is being pumped:
        # energy draws inside one event run on plain floats and are
        # flushed back to the arrays once per event instead of paying
        # NumPy scalar reads/writes per draw.  ``_Ei < 0`` marks the
        # shadow empty (stored energy is never negative).
        self._Ei = -1.0
        self._dri = 0.0
        self._shi = 0.0

        # Flow control.
        self.target = np.zeros(n)
        self.final = [False] * n
        self.done = np.zeros(n, dtype=bool)

        # Per-lane tuning-session drivers: the live generator, the
        # post-integration continuation of the command currently
        # spanning simulated time, and the wake-up bookkeeping the
        # TuningEvent needs.  ``_res_cache`` memoises the retuned
        # resonator (and its derived constants) per (tuning map,
        # position): the map is immutable during simulation, so lanes
        # sharing the process-wide physics share every entry.
        self._gen: List[Optional[object]] = [None] * n
        self._after: List[Optional[Tuple[str, object]]] = [None] * n
        self._sess_t0 = [0.0] * n
        self._sess_e0 = [0.0] * n
        self._sess_wall = [0.0] * n
        # Wall seconds of each session finished while metrics are on,
        # observed in bulk when the run ends: one histogram update per
        # session would cost a few percent of the batch.
        self._sess_seconds: List[float] = []
        self._res_cache: Dict[Tuple[int, float], Tuple[object, float, float, float]] = {}
        # One-entry per-lane memo in front of the shared cache: fine
        # tuning alternates between a couple of neighbouring positions,
        # so most lookups re-hit the lane's previous position.
        self._res_pos: List[Optional[float]] = [None] * n
        self._res_hit: List[Optional[Tuple[object, float, float, float]]] = [None] * n

        for i in range(n):
            self._pull(i)
            self._resync(i)
            self._set_target(i)

    # -- object <-> array synchronisation -----------------------------------

    def _pull(self, i: int) -> None:
        sim = self.sims[i]
        self.t[i] = sim.t
        self.energy[i] = sim.store._energy
        self.dep[i] = sim.store.total_deposited
        self.drawn[i] = sim.store.total_drawn
        self.clip[i] = sim.store.clipped_energy
        self.b_harv[i] = sim.breakdown.harvested
        self.b_nsl[i] = sim.breakdown.node_sleep
        self.b_msl[i] = sim.breakdown.mcu_sleep
        self.b_ntx[i] = sim.breakdown.node_tx
        self.b_short[i] = sim.breakdown.shortfall
        self.frac[i] = sim.log._fractional
        self.tx_count[i] = sim.log._count
        self.tx_e[i] = sim.log.total_energy

    def _push(self, i: int) -> None:
        sim = self.sims[i]
        sim.t = float(self.t[i])
        sim.store._energy = float(self.energy[i])
        sim.store.total_deposited = float(self.dep[i])
        sim.store.total_drawn = float(self.drawn[i])
        sim.store.clipped_energy = float(self.clip[i])
        sim.breakdown.harvested = float(self.b_harv[i])
        sim.breakdown.node_sleep = float(self.b_nsl[i])
        sim.breakdown.mcu_sleep = float(self.b_msl[i])
        sim.breakdown.node_tx = float(self.b_ntx[i])
        sim.breakdown.shortfall = float(self.b_short[i])
        sim.log._fractional = float(self.frac[i])
        sim.log._count = int(self.tx_count[i])
        sim.log.total_energy = float(self.tx_e[i])

    # -- segment bookkeeping -------------------------------------------------

    def _resonator(self, i: int):
        """The lane's retuned resonator and derived constants (cached).

        The tuning map is immutable during simulation and the derived
        constants are pure functions of (map, position), so the cache
        returns exactly what ``TuningMap.resonator_at`` would construct
        -- including for the fractional positions fine tuning reaches.
        """
        sim = self.sims[i]
        pos = sim.micro.position
        if pos == self._res_pos[i]:
            return self._res_hit[i]
        tuning_map = sim.micro.tuning_map
        key = (id(tuning_map), pos)
        hit = self._res_cache.get(key)
        if hit is None:
            resonator = tuning_map.resonator_at(pos)
            hit = (
                resonator,
                resonator.omega_n,
                resonator.zeta_total,
                resonator.damping_elec,
            )
            self._res_cache[key] = hit
        self._res_pos[i] = pos
        self._res_hit[i] = hit
        return hit

    def _retune(self, i: int) -> None:
        """Re-derive the lane's position-dependent resonator constants.

        Positions only move inside tuning sessions, so this runs at lane
        setup and after each actuator move; the values come from the
        lane's own :class:`~repro.harvester.tuning_map.TuningMap`,
        exactly as the scalar harvester derives them.
        """
        _, wn, zt, ce = self._resonator(i)
        self._wn[i] = wn
        self._zt[i] = zt
        self._ce[i] = ce
        self._wn_a[i] = wn
        self._zt_a[i] = zt
        self._ce_half_a[i] = 0.5 * ce

    def _refresh(self, i: int, k: Optional[int] = None) -> None:
        """Re-derive the lane's harvest coefficients for its segment.

        Operation-for-operation the scalar chain
        ``EnvelopeHarvester.emf_peak`` -> ``open_circuit_voltage`` and
        ``mechanical_limit`` (same ``math`` calls, same order), with the
        position-dependent constants cached by :meth:`_retune`.
        """
        if k is None:
            k = self.seg_idx[i]
        f = self._seg_f[i][k]
        accel = self._seg_a[i][k]
        w = 2.0 * math.pi * f
        wn = self._wn[i]
        denom = math.hypot(wn * wn - w * w, 2.0 * self._zt[i] * wn * w)
        velocity = w * (accel / denom)
        emf = self._theta[i] * velocity
        self.voc[i] = max(emf - 2.0 * self._vd[i], 0.0)
        self.plim[i] = self._eff[i] * (0.5 * self._ce[i] * velocity * velocity)
        self.freq[i] = f

    def _resync(self, i: int) -> None:
        """Rebuild the lane's profile pointers after a scalar excursion."""
        starts = self._lane_starts[i]
        t = float(self.t[i])
        k = max(bisect.bisect_right(starts, t) - 1, 0)
        c = bisect.bisect_right(starts, t + _T_EPS)
        self.seg_idx[i] = k
        self.chg_idx[i] = c
        self.nxt_seg[i] = self.starts[i, k + 1]
        self.cur_chg[i] = self.starts[i, c]
        self._retune(i)
        self._refresh(i, k)

    def _advance_pointers(self, mask) -> None:
        """Incrementally track ``bisect`` over the monotone lane times.

        The cached ``nxt_seg``/``cur_chg`` boundary arrays make the
        no-boundary-crossed case (almost every step) two compares; lanes
        that did cross walk their own start list scalar and refresh.
        """
        adv = mask & (self.nxt_seg <= self.t)
        if adv.any():
            # Local binds + the refresh math inlined: this walk runs once
            # per (lane, segment) crossing -- ~100k times per hour-long
            # kilobatch -- so per-iteration attribute and numpy-scalar
            # overhead is the dominant cost.  Same operations in the same
            # order as :meth:`_refresh`; boundary crossings cluster (many
            # lanes cross in the same step), so the per-lane times are
            # gathered once and the array updates land as three fancy
            # writes per wave instead of three numpy-scalar stores per
            # lane.  The results are the exact per-lane python floats,
            # so the fancy assignment changes nothing but the store cost.
            idx = np.nonzero(adv)[0]
            lanes = idx.tolist()
            ts = self.t[idx].tolist()
            seg_idx = self.seg_idx
            lane_starts = self._lane_starts
            seg_f, seg_a = self._seg_f, self._seg_a
            freq_l = self.freq
            nxt_new: List[float] = []
            f_new: List[float] = []
            a_new: List[float] = []
            for i, t in zip(lanes, ts):
                starts = lane_starts[i]
                k = seg_idx[i] + 1
                last = len(starts) - 1
                while k < last and starts[k + 1] <= t:
                    k += 1
                seg_idx[i] = k
                nxt_new.append(starts[k + 1] if k < last else math.inf)
                f = seg_f[i][k]
                f_new.append(f)
                a_new.append(seg_a[i][k])
                freq_l[i] = f
            self.nxt_seg[idx] = nxt_new
            # The refresh math, elementwise over the wave.  Every
            # expression keeps the scalar :meth:`_refresh` association
            # order (and ``hypot`` stays ``math.hypot`` per lane --
            # NumPy's is not guaranteed bit-equal), so each lane gets
            # the exact floats a scalar refresh would produce.
            f_arr = np.array(f_new)
            accel = np.array(a_new)
            w = 2.0 * math.pi * f_arr
            wn = self._wn_a[idx]
            zt = self._zt_a[idx]
            aa = (wn * wn - w * w).tolist()
            bb = ((2.0 * zt) * wn * w).tolist()
            hypot = math.hypot
            denom = np.array([hypot(x, y) for x, y in zip(aa, bb)])
            velocity = w * (accel / denom)
            emf = self._theta_a[idx] * velocity
            x = emf - self._vd2_a[idx]
            # ``max(x, 0.0)`` returns x unless 0.0 is strictly greater.
            self.voc[idx] = np.where(0.0 > x, 0.0, x)
            self.plim[idx] = self._eff_a[idx] * (
                self._ce_half_a[idx] * velocity * velocity
            )
        adv = mask & (self.cur_chg <= self.t + _T_EPS)
        if adv.any():
            idx = np.nonzero(adv)[0]
            lanes = idx.tolist()
            ts = self.t[idx].tolist()
            chg_idx = self.chg_idx
            lane_starts = self._lane_starts
            chg_new: List[float] = []
            for i, t in zip(lanes, ts):
                starts = lane_starts[i]
                te = t + _T_EPS
                c = chg_idx[i] + 1
                n_seg = len(starts)
                while c < n_seg and starts[c] <= te:
                    c += 1
                chg_idx[i] = c
                chg_new.append(starts[c] if c < n_seg else math.inf)
            self.cur_chg[idx] = chg_new

    # -- event handling -------------------------------------------------------

    def _set_target(self, i: int) -> None:
        t_wake = self.sims[i].watchdog.next_wakeup(self.t.item(i))
        if t_wake >= self.horizon[i]:
            self.target[i] = self.horizon[i]
            self.final[i] = True
        else:
            self.target[i] = t_wake
            self.final[i] = False

    # -- interleaved tuning sessions ------------------------------------------

    def _voltage(self, i: int) -> float:
        """Store terminal voltage, exactly ``EnergyStore.voltage``."""
        E = self._Ei
        if E < 0.0:
            E = self.energy.item(i)
        if E <= 0.0:
            return 0.0
        return math.sqrt(2.0 * E / self._cap_l[i])

    def _consumed(self, i: int) -> float:
        """``EnergyBreakdown.consumed`` over the mirrored accounts.

        Same terms in the same left-to-right order as the scalar
        property, reading the mirrored buckets from the arrays and the
        session-only buckets (MCU active, accelerometer, actuator) from
        the lane's breakdown object, where they authoritatively live.
        """
        bd = self.sims[i].breakdown
        return (
            self.b_ntx.item(i)
            + self.b_nsl.item(i)
            + self.b_msl.item(i)
            + bd.mcu_active
            + bd.accelerometer
            + bd.actuator
            - self.b_short.item(i)
        )

    def _edraw(self, i: int, energy: float, bucket: str) -> None:
        """Scalar ``_draw`` against the lane's mirrored store state.

        Mirrors ``EnergyStore.draw`` plus the breakdown bookkeeping of
        ``EnvelopeSimulator._draw`` operation-for-operation; ``bucket``
        is always one of the session-only accounts, which live on the
        lane's breakdown object rather than in arrays.  Draws run on
        the per-event float shadow (loaded lazily here, written back by
        :meth:`_flush_store` when the event ends).
        """
        if energy <= 0.0:
            return
        E = self._Ei
        if E < 0.0:
            E = self.energy.item(i)
            self._dri = self.drawn.item(i)
            self._shi = self.b_short.item(i)
        supplied = energy if energy <= E else E
        self._Ei = E - supplied
        self._dri += supplied
        bd = self.sims[i].breakdown
        if bucket == "mcu_active":
            bd.mcu_active += energy
        elif bucket == "accelerometer":
            bd.accelerometer += energy
        else:
            bd.actuator += energy
        if supplied < energy:
            self._shi += energy - supplied

    def _flush_store(self, i: int) -> None:
        """Write the event's store shadow back to the lane arrays."""
        E = self._Ei
        if E >= 0.0:
            self.energy[i] = E
            self.drawn[i] = self._dri
            self.b_short[i] = self._shi
            self._Ei = -1.0

    def _session_begin(self, i: int) -> None:
        """Start one Algorithm 1 wake-up on this lane (scalar `_run_wakeup`)."""
        sim = self.sims[i]
        self._sess_t0[i] = self.t.item(i)
        self._sess_e0[i] = self._consumed(i)
        self._sess_wall[i] = time.perf_counter() if _OBS.metrics_on else 0.0
        gen = tuning_session(sim.parts.lut)
        self._gen[i] = gen
        sim._session_active = True
        try:
            command = next(gen)
        except StopIteration as stop:  # pragma: no cover - sessions yield
            self._session_finish(i, stop)
            return
        self._dispatch(i, command)
        self._flush_store(i)

    def _dispatch(self, i: int, command) -> None:
        """Pump session commands until one spans simulated time.

        Instant commands (energy check, position read) respond in place;
        a time-spanning command performs its pre-integration effects
        (RNG measurement draw, actuator motion) exactly as the scalar
        handler would, then schedules the lane's integration target at
        the command's end -- the run loop integrates it in lockstep with
        every other lane and resumes via :meth:`_session_continue`.
        """
        sim = self.sims[i]
        gen = self._gen[i]
        # The isinstance chain is ordered by observed command frequency
        # (settling waits and fine-tuning steps dominate a session); each
        # command matches exactly one arm, so the order is free.
        while True:
            if isinstance(command, Settle):
                self._after[i] = ("settle", None)
                self.target[i] = self.t.item(i) + command.duration
                return
            elif isinstance(command, StepActuator):
                move = sim.micro.actuator.move_steps(command.direction)
                if move.steps:
                    self._retune(i)
                    self._refresh(i)
                if move.duration > 0.0:
                    busy_e = self._act_pw[i] * move.duration
                    self._after[i] = ("move", (busy_e, move))
                    self.target[i] = self.t.item(i) + move.duration
                    return
                response = move.steps
            elif isinstance(command, MeasurePhase):
                resonator = self._resonator(i)[0]
                true_phase = resonator.phase_difference_seconds(
                    float(self.freq[i])
                )
                m = sim.mcu.measure_phase(true_phase, sim.rng)
                self._after[i] = ("phase", m)
                self.target[i] = self.t.item(i) + m.duration
                return
            elif isinstance(command, CheckEnergy):
                # Cached ``mcu.busy(2e-3).mcu_energy`` (same product of
                # the same floats, so bitwise identical).
                self._edraw(i, self._chk_cost[i], "mcu_active")
                response = self._voltage(i) >= command.threshold
            elif isinstance(command, GetCurrentPosition):
                self._edraw(i, self._pos_cost[i], "mcu_active")
                response = int(round(sim.micro.position))
            elif isinstance(command, MeasureFrequency):
                f_true = float(self.freq[i])
                m = sim.mcu.measure_frequency(f_true, sim.rng)
                self._after[i] = ("freq", m)
                self.target[i] = self.t.item(i) + m.duration
                return
            elif isinstance(command, MoveActuatorTo):
                move = sim.micro.actuator.move_to_position(command.position)
                if move.steps:
                    self._retune(i)
                    self._refresh(i)
                if move.duration > 0.0:
                    busy_e = self._act_pw[i] * move.duration
                    self._after[i] = ("move", (busy_e, move))
                    self.target[i] = self.t.item(i) + move.duration
                    return
                response = move.steps
            else:
                raise SimulationError(f"unknown controller command {command!r}")
            try:
                command = gen.send(response)
            except StopIteration as stop:
                self._session_finish(i, stop)
                return

    def _session_continue(self, i: int) -> None:
        """Resume a session whose time-spanning command just integrated."""
        kind, payload = self._after[i]
        self._after[i] = None
        if kind == "freq":
            self._edraw(i, payload.mcu_energy, "mcu_active")
            response = payload.value
        elif kind == "phase":
            self._edraw(i, payload.mcu_energy, "mcu_active")
            self._edraw(i, payload.peripheral_energy, "accelerometer")
            response = payload.value
        elif kind == "move":
            busy_e, move = payload
            self._edraw(i, busy_e, "mcu_active")
            self._edraw(i, move.energy, "actuator")
            response = move.steps
        else:  # settle
            response = None
        try:
            command = self._gen[i].send(response)
        except StopIteration as stop:
            self._session_finish(i, stop)
            return
        self._dispatch(i, command)
        self._flush_store(i)

    def _session_finish(self, i: int, stop: StopIteration) -> None:
        """Close the session: tuning log, telemetry, next watchdog target."""
        result = _result_of(stop)
        self._flush_store(i)
        sim = self.sims[i]
        sim._session_active = False
        self._gen[i] = None
        if _OBS.metrics_on:
            self._sess_seconds.append(time.perf_counter() - self._sess_wall[i])
        sim.tuning_events.append(
            TuningEvent(
                time=self._sess_t0[i],
                result=result,
                duration=self.t.item(i) - self._sess_t0[i],
                energy=self._consumed(i) - self._sess_e0[i],
            )
        )
        self._set_target(i)

    # -- the run loop ----------------------------------------------------------

    def run(self) -> List[SystemResult]:
        results: List[Optional[SystemResult]] = [None] * len(self.sims)
        guard = 0
        # The loop allocates millions of short-lived temporaries and no
        # cycles; generational GC scans cost a double-digit share of the
        # run, so collection is deferred until the batch completes.
        with _gc_deferred():
            while True:
                not_done = ~self.done
                reached = self.t >= self.target - _T_EPS
                due = not_done & reached
                if due.any():
                    guard = 0
                    for i in np.nonzero(due)[0].tolist():
                        if self._gen[i] is not None:
                            self._session_continue(i)
                        elif self.final[i]:
                            self._push(i)
                            results[i] = self.sims[i]._result()
                            self.done[i] = True
                        else:
                            self._session_begin(i)
                    if self.done.all():
                        break
                    # Event handlers moved targets; recompute.
                    stepping = (~self.done) & (self.t < self.target - _T_EPS)
                else:
                    stepping = not_done & ~reached
                if not stepping.any():
                    continue
                guard += 1
                if guard > _MAX_ITERATIONS:  # pragma: no cover - runaway guard
                    raise SimulationError(
                        "vectorized integrator failed to advance"
                    )
                self._step(stepping)
        if self._sess_seconds:
            _TUNING_SESSIONS.inc(len(self._sess_seconds))
            _SESSION_SECONDS.observe_many(self._sess_seconds)
            self._sess_seconds = []
        return results  # type: ignore[return-value]

    # -- one lockstep integration step ---------------------------------------

    def _step(self, mask) -> None:
        """One envelope integration step for every lane in ``mask``.

        Per lane this is operation-for-operation the scalar
        ``_integrate_until`` body: step-size capping, threshold
        detection, sliding-mode resolution, exact threshold landing and
        the deposit/draw/transmit energy flows, evaluated with NumPy
        ``where``-selected branches instead of Python ``if``.
        """
        t = self.t
        E = self.energy
        with np.errstate(divide="ignore", invalid="ignore"):
            # Step cap: dt_max, the integration target, the next
            # vibration-profile change (the padding rows are +inf, so
            # lanes past their last change keep dt_cap), floored at the
            # time epsilon.
            dt_cap = np.minimum(self.dtmax, self.target - t)
            dt_cap = np.minimum(dt_cap, self.cur_chg - t)
            dt_cap = np.maximum(dt_cap, _T_EPS)

            # Stored energy is never negative (draws and supplies clamp
            # at zero), so the scalar ``E <= 0 -> 0.0`` branch reduces to
            # ``sqrt(0) == 0.0`` and the guard is free.
            v = np.sqrt((2.0 * E) / self.cap)

            # Power terms at the step's starting voltage.
            i_chg = (self.kc * (self.voc - v)) / self.rs
            p_th = v * i_chg
            p_th = np.where(self.voc > v, p_th, 0.0)
            p_h = np.minimum(p_th, self.plim)
            nsl_p = self.sleep_i * v
            p_slp = nsl_p + self.mcu_slp
            p_avail = p_h - p_slp
            e_tx = self.q_tx * v

            # Threshold geometry.  Sitting exactly on a threshold is the
            # rare case (a handful of steps per band transit), so the
            # sliding-mode block only runs when some lane is on one.
            near_off = np.abs(v - self.v_off) < _V_EPS
            near_fast = (~near_off) & (np.abs(v - self.v_fast) < _V_EPS)
            at_thr = near_off | near_fast
            if at_thr.any():
                thr = np.where(near_off, self.v_off, self.v_fast)
                up_int = np.where(near_off, self.int_mid, self.int_fast)
                lo_int = np.where(near_off, np.inf, self.int_mid)
                up_rate = np.where(near_off, self.rate_mid, self.rate_fast)
                lo_rate = np.where(near_off, 0.0, self.rate_mid)
                drain_up = e_tx / up_int
                drain_lo = e_tx / lo_int
                p_up = p_avail - drain_up
                p_lo = p_avail - drain_lo
                sliding = at_thr & (p_up < 0.0) & (p_lo > 0.0)
                any_sliding = bool(sliding.any())

                if any_sliding:
                    # Sliding mode: pin the voltage, transmit the
                    # averaged mix.
                    lam = p_lo / (p_lo - p_up)
                    s_rate = (lam * up_rate) + ((1.0 - lam) * lo_rate)
                    s_drain = (lam * drain_up) + ((1.0 - lam) * drain_lo)

                # Plain band step (also: moving cleanly off a threshold).
                v_eval = np.where(
                    at_thr,
                    np.where(p_up >= 0.0, thr + _V_EPS, thr - _V_EPS),
                    v,
                )
                below_off = v_eval < self.v_off
                below_fast = v_eval < self.v_fast
            else:
                sliding = None
                any_sliding = False
                v_eval = v
                below_off = v < self.v_off
                below_fast = v < self.v_fast
            b_int = np.where(
                below_off,
                np.inf,
                np.where(below_fast, self.int_mid, self.int_fast),
            )
            b_rate = np.where(
                below_off,
                0.0,
                np.where(below_fast, self.rate_mid, self.rate_fast),
            )
            b_drain = e_tx / b_int
            p_net = p_avail - b_drain

            # Land exactly on the next threshold in the travel direction.
            thr_up = np.where(
                v < self.v_off_lo,
                self.v_off,
                np.where(v < self.v_fast_lo, self.v_fast, np.nan),
            )
            thr_dn = np.where(
                v > self.v_fast_hi,
                self.v_fast,
                np.where(v > self.v_off_hi, self.v_off, np.nan),
            )
            thr_t = np.where(p_net > 0.0, thr_up, np.where(p_net < 0.0, thr_dn, np.nan))
            e_target = (0.5 * self.cap) * thr_t * thr_t
            dt_cross = (e_target - E) / p_net
            dt_b = dt_cap
            # NaN (no threshold in the travel direction) and +inf
            # crossings both fail the range check, so no isfinite needed.
            take = (dt_cross > 0.0) & (dt_cross < dt_b)
            dt_b = np.where(take, dt_cross, dt_b)
            dt_b = np.maximum(dt_b, _T_EPS)

            # Select the branch each lane actually takes.
            if any_sliding:
                dt = np.where(sliding, dt_cap, dt_b)
                drain = np.where(sliding, s_drain, b_drain)
                rate = np.where(sliding, s_rate, b_rate)
            else:
                dt = dt_b
                drain = b_drain
                rate = b_rate
            n_tx = rate * dt

            # Energy flows, in the scalar accounting order.
            amount = p_h * dt
            headroom = np.maximum(self.emax - E, 0.0)
            stored = np.minimum(amount, headroom)
            e1 = E + stored
            nsl_e = nsl_p * dt
            msl_e = self.mcu_slp * dt
            sup1 = np.minimum(nsl_e, e1)
            e2 = e1 - sup1
            sup2 = np.minimum(msl_e, e2)
            e3 = e2 - sup2
            tx_e = drain * dt
            sup3 = np.minimum(tx_e, e3)
            e4 = e3 - sup3
            new_t = t + dt

            frac1 = self.frac + n_tx
            whole = np.floor(frac1)

        if mask.all():
            # Every lane accepted the step: plain rebinds and in-place
            # accumulator adds (same additions in the same order as the
            # masked path, without the copyto select cost).
            self.energy = e4
            self.t = new_t
            self.dep += stored
            self.clip += amount - stored
            self.b_harv += stored
            self.drawn += sup1
            self.drawn += sup2
            self.drawn += sup3
            self.b_nsl += nsl_e
            self.b_msl += msl_e
            self.b_ntx += tx_e
            self.b_short += nsl_e - sup1
            self.b_short += msl_e - sup2
            self.b_short += tx_e - sup3
            self.frac = frac1 - whole
            self.tx_count += whole
            self.tx_e += tx_e
        else:
            # Masked write-back (np.copyto touches each array once; the
            # accumulator sums stay sequential to match the scalar
            # rounding order).  Off-mask lanes keep their state
            # untouched.
            m = mask
            np.copyto(self.energy, e4, where=m)
            np.copyto(self.t, new_t, where=m)
            np.copyto(self.dep, self.dep + stored, where=m)
            np.copyto(self.clip, self.clip + (amount - stored), where=m)
            np.copyto(self.b_harv, self.b_harv + stored, where=m)
            drawn = self.drawn + sup1
            drawn = drawn + sup2
            drawn = drawn + sup3
            np.copyto(self.drawn, drawn, where=m)
            np.copyto(self.b_nsl, self.b_nsl + nsl_e, where=m)
            np.copyto(self.b_msl, self.b_msl + msl_e, where=m)
            np.copyto(self.b_ntx, self.b_ntx + tx_e, where=m)
            short = self.b_short + (nsl_e - sup1)
            short = short + (msl_e - sup2)
            short = short + (tx_e - sup3)
            np.copyto(self.b_short, short, where=m)
            np.copyto(self.frac, frac1 - whole, where=m)
            np.copyto(self.tx_count, self.tx_count + whole, where=m)
            np.copyto(self.tx_e, self.tx_e + tx_e, where=m)

        # Enter any newly reached vibration segment before tracing (and
        # before the next step reads the coefficients).
        self._advance_pointers(mask)
        if self._any_traced:
            self._record_traces(mask & self.traced)

    def _record_traces(self, mask) -> None:
        """Mirror the scalar ``_trace_point`` for trace-enabled lanes."""
        if not mask.any():
            return
        E = self.energy
        with np.errstate(invalid="ignore"):
            v = np.where(
                E > 0.0, np.sqrt(np.maximum(2.0 * E, 0.0) / self.cap), 0.0
            )
            p_th = v * ((self.kc * (self.voc - v)) / self.rs)
            p_th = np.where(self.voc > v, p_th, 0.0)
            p_h = np.minimum(p_th, self.plim)
        for idx in np.nonzero(mask)[0]:
            i = int(idx)
            sim = self.sims[i]
            t = float(self.t[i])
            traces = sim.traces
            traces.trace("v_store").append(t, float(v[i]))
            traces.trace("harvest_power").append(t, float(p_h[i]))
            traces.trace("position").append(t, sim.micro.position)
            traces.trace("input_frequency").append(t, float(self.freq[i]))


# -- public entry point ------------------------------------------------------


@contextmanager
def _gc_deferred() -> Iterator[None]:
    """Suspend automatic garbage collection for the block (re-entrant)."""
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def simulate_batch(scenarios: Sequence[Scenario]) -> List[SystemResult]:
    """Run a batch of scenarios through the vectorized envelope engine.

    Results align with the input order and are canonical
    :class:`~repro.system.result.SystemResult` values -- the same
    payloads a scalar run of each scenario would produce, so store rows,
    golden fixtures and resume bookkeeping are backend-agnostic.
    """
    if not scenarios:
        return []
    # Everything built for the batch lives until it completes, so a
    # collection during construction only re-scans survivors (about 26
    # tracked objects per lane): defer it along with the run's.  The
    # engine and its lane simulators are released before collection
    # resumes, so the first pass afterwards scans only the results.
    with _gc_deferred():
        engine = VectorizedEnvelopeEngine(
            _lane_simulators(scenarios), [s.horizon for s in scenarios]
        )
        with span("sim.vectorized.batch", n=len(scenarios), integrator="lockstep"):
            results = engine.run()
        del engine
    if _OBS.metrics_on:
        _SIM_RUNS.inc(len(results), backend="vectorized")
    return results


def simulate_scalar(scenarios: Sequence[Scenario]) -> List[SystemResult]:
    """Run a batch lane by lane on the scalar envelope integrator.

    The path :class:`~repro.backends.VectorizedBackend` takes below
    :data:`LOCKSTEP_MIN_LANES`: the simulators :func:`simulate_batch`
    would build, each run by :meth:`EnvelopeSimulator.run` -- the
    arithmetic the engine re-expresses, so the payloads are the same
    bytes -- and each counted under ``backend="vectorized"``.
    """
    sims = _lane_simulators(scenarios)
    with span("sim.vectorized.batch", n=len(scenarios), integrator="scalar"):
        return [
            sim._run(scenario.horizon, backend="vectorized")
            for sim, scenario in zip(sims, scenarios)
        ]


def _lane_simulators(scenarios: Sequence[Scenario]) -> List[EnvelopeSimulator]:
    """One envelope simulator per scenario, built as the envelope backend does."""
    from repro.backends import _construct

    return [_construct(EnvelopeSimulator, scenario) for scenario in scenarios]
