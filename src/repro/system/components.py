"""Table I component registry and the calibrated default system.

The paper's hardware (Table I):

================  =================  ==================
Component         Type               Make
================  =================  ==================
Microcontroller   PIC16F884          Microchip
Accelerometer     LIS3L06AL          STMicroelectronics
Linear actuator   21000 Series       Haydon (size 8 stepper)
Sensor node       eZ430-RF2500       Texas Instruments
================  =================  ==================

The tunable microgenerator itself (Garcia et al., PowerMEMS'09) is not
fully specified in the paper, so this module fixes a *calibrated*
parameter set chosen to reproduce the paper's energy scale:

- 50 g proof mass, mechanical damping ratio 0.004, electrical damping
  ratio 0.008 (loaded Q ~42), untuned resonance 50 Hz, magnetically
  tunable across 60-80 Hz;
- transduction 68 V.s/m: peak EMF 4.1 V at 64 Hz / 60 mg on resonance,
  falling as 1/f across the tuning range (constant-acceleration SDOF
  physics), so the rectified open-circuit ceiling runs from ~3.45 V at
  64 Hz down to ~2.9 V at 74 Hz;
- delivered power is the *minimum* of the rectifier's Thevenin limit
  (3.3 kohm effective source resistance) and 42% of the resonator's
  electrical-damping power -- roughly 250 uW at the 64 Hz segment and
  tapering with frequency and storage voltage.  That uW-class budget is
  what makes the paper's numbers come out: ~400 transmissions/hour for
  the original design and ~2x for the optimised ones at 227 uJ each.

The envelope constants are calibrated jointly rather than derived from a
single transducer datasheet (none exists for the prototype); the detailed
MNA model in :mod:`repro.system.detailed` is self-consistent (its theta
produces its own electrical damping) and is compared qualitatively in the
backend-agreement tests.  Everything downstream (Table VI ratios,
Fig. 4/5 shapes) follows from these constants plus the published
Tables II-IV; see EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.digital.lut import FrequencyLut
from repro.digital.mcu import Microcontroller
from repro.digital.power_model import AccelerometerPower, McuPowerModel
from repro.harvester.actuator import LinearActuator
from repro.harvester.microgenerator import TunableMicrogenerator
from repro.harvester.rectifier import RectifierEnvelope
from repro.harvester.storage import EnergyStore
from repro.harvester.tuning_map import TuningMap
from repro.mech.coupling import ElectromagneticCoupling
from repro.mech.magnetics import MagneticTuner
from repro.mech.sdof import SdofResonator
from repro.node.ez430 import SensorNode
from repro.node.policy import TransmissionPolicy

#: Paper Table I.
COMPONENT_REGISTRY: Dict[str, Dict[str, str]] = {
    "microcontroller": {"type": "PIC16F884", "make": "Microchip"},
    "accelerometer": {"type": "LIS3L06AL", "make": "STMicroelectronics"},
    "linear_actuator": {"type": "21000 Series size 8 stepper", "make": "Haydon"},
    "sensor_node": {"type": "eZ430-RF2500", "make": "Texas Instruments"},
}

# -- calibrated microgenerator constants (see module docstring) --------------

#: Proof mass (kg) of the EM harvester.
PROOF_MASS = 0.05
#: Mechanical (parasitic) damping ratio.
ZETA_MECH = 0.004
#: Electrical (transduction) damping ratio at the nominal load.
ZETA_ELEC = 0.008
#: Untuned (magnet fully retracted) resonance in Hz.
UNTUNED_FREQUENCY = 50.0
#: Transduction constant (V.s/m).
THETA = 68.0
#: Coil resistance (ohm) -- also the envelope's DC source resistance.
COIL_RESISTANCE = 3300.0
#: Coil inductance (H); negligible reactance at 60-80 Hz but modelled.
COIL_INDUCTANCE = 0.5
#: Fraction of electrical-damping power deliverable to storage.
MECH_EFFICIENCY = 0.42
#: Tuning-magnet gap range (m): 10 mm (stiffest) to 13 mm.
GAP_MIN = 0.010
GAP_MAX = 0.013
#: Tunable frequency range (Hz).
TUNE_LOW = 60.0
TUNE_HIGH = 80.0
#: Storage (paper: 0.55 F supercapacitor); calibrated initial voltage.
STORE_CAPACITANCE = 0.55
STORE_V_INIT = 2.65
STORE_V_MAX = 3.6
#: LUT frequency axis (slightly wider than the tuning range).
LUT_F_MIN = 58.0
LUT_F_MAX = 82.0


def paper_resonator() -> SdofResonator:
    """The untuned SDOF resonator of the calibrated harvester."""
    stiffness = PROOF_MASS * (2.0 * math.pi * UNTUNED_FREQUENCY) ** 2
    return SdofResonator(
        mass=PROOF_MASS,
        stiffness=stiffness,
        zeta_mech=ZETA_MECH,
        zeta_elec=ZETA_ELEC,
    )


def paper_coupling() -> ElectromagneticCoupling:
    """Transducer constants of the calibrated generator."""
    return ElectromagneticCoupling(
        theta=THETA,
        coil_resistance=COIL_RESISTANCE,
        coil_inductance=COIL_INDUCTANCE,
    )


def paper_tuner(resonator: Optional[SdofResonator] = None) -> MagneticTuner:
    """Magnetic tuning mechanism spanning 60-80 Hz."""
    res = resonator or paper_resonator()
    return MagneticTuner.for_frequency_range(
        res.mass, res.stiffness, TUNE_LOW, TUNE_HIGH, gap_min=GAP_MIN, gap_max=GAP_MAX
    )


def paper_tuning_map() -> TuningMap:
    """Position -> resonance map over the 8-bit actuator travel."""
    resonator = paper_resonator()
    return TuningMap(resonator, paper_tuner(resonator), n_positions=256)


def paper_microgenerator(
    tuning_map: Optional[TuningMap] = None,
) -> TunableMicrogenerator:
    """The complete tunable microgenerator (map + actuator + envelope).

    ``tuning_map`` lets callers share one pre-characterised map across
    many instances (it is immutable during simulation); the default
    builds a fresh one.
    """
    tuning_map = paper_tuning_map() if tuning_map is None else tuning_map
    actuator = LinearActuator(max_steps=255, steps_per_position=1)
    return TunableMicrogenerator(
        tuning_map,
        paper_coupling(),
        actuator=actuator,
        rectifier=RectifierEnvelope(),
        source_resistance=COIL_RESISTANCE,
        mech_efficiency=MECH_EFFICIENCY,
    )


def paper_store(v_init: float = STORE_V_INIT) -> EnergyStore:
    """The 0.55 F supercapacitor at its calibrated starting voltage."""
    return EnergyStore(
        capacitance=STORE_CAPACITANCE, v_init=v_init, v_max=STORE_V_MAX
    )


def paper_lut(tuning_map: Optional[TuningMap] = None) -> FrequencyLut:
    """The factory-characterised 8-bit frequency->position table."""
    return FrequencyLut.from_tuning_map(
        tuning_map or paper_tuning_map(), LUT_F_MIN, LUT_F_MAX, n_entries=256
    )


@dataclass
class SystemParts:
    """Every physical piece of the Fig. 2 system, ready to simulate."""

    microgenerator: TunableMicrogenerator
    store: EnergyStore
    node: SensorNode
    lut: FrequencyLut
    mcu_power: McuPowerModel = field(default_factory=McuPowerModel)
    accelerometer: AccelerometerPower = field(default_factory=AccelerometerPower)

    def mcu(self, clock_hz: float) -> Microcontroller:
        """Instantiate the MCU at a configuration's clock frequency."""
        return Microcontroller(
            clock_hz, power=self.mcu_power, accelerometer=self.accelerometer
        )

    def policy(self, tx_interval_s: float) -> TransmissionPolicy:
        """Instantiate the node policy at a configuration's fast interval."""
        return TransmissionPolicy(fast_interval=tx_interval_s)


#: The process-wide (tuning map, LUT) pair every :func:`paper_system`
#: shares, characterised on first use.  Both are immutable during
#: simulation and deterministic functions of the constants above, so
#: sharing them changes nothing but the setup cost (building the
#: 256-entry LUT dominates a fresh ``paper_system()``).
_PHYSICS: Optional[Tuple[TuningMap, FrequencyLut]] = None


def _shared_physics() -> Tuple[TuningMap, FrequencyLut]:
    global _PHYSICS
    if _PHYSICS is None:
        tuning_map = paper_tuning_map()
        _PHYSICS = (tuning_map, paper_lut(tuning_map))
    return _PHYSICS


def paper_system(
    v_init: float = STORE_V_INIT,
    initial_position: Optional[int] = None,
    initial_frequency: float = 64.0,
) -> SystemParts:
    """Assemble the calibrated default system.

    The mutable parts (actuator, store, node) are fresh per call; the
    immutable physics -- the tuning map and the factory-characterised
    LUT, "pre-obtained and stored in the microcontroller memory"
    (Algorithm 1) -- is one pair shared by every call in the process.

    Parameters
    ----------
    v_init:
        Supercapacitor starting voltage.
    initial_position:
        Actuator starting position; defaults to the LUT optimum for
        ``initial_frequency`` (the harvester was running and tuned before
        the evaluated hour begins, as in the paper's Fig. 5 setup).
    """
    tuning_map, lut = _shared_physics()
    micro = paper_microgenerator(tuning_map)
    if initial_position is None:
        initial_position = lut.lookup(initial_frequency)
    micro.actuator.steps = micro.actuator.steps_for_position(initial_position)
    return SystemParts(
        microgenerator=micro,
        store=paper_store(v_init),
        node=SensorNode(),
        lut=lut,
    )
