"""Custom harvester: explore a *different* physical device end-to-end.

Demonstrates the library's composability: design a smaller cantilever
harvester from geometry (Euler-Bernoulli beam + magnetic tuner +
electromagnetic coupling), register it as a simulation backend in place of
the calibrated default, and re-run the design space exploration.  The
optimum shifts because the energy budget changed -- exactly the study a
deployment engineer would run before choosing firmware settings for new
hardware.

Run:  python examples/custom_harvester.py
"""

from repro.backends import register_backend
from repro.core.explorer import DesignSpaceExplorer
from repro.core.objective import SimulationObjective
from repro.digital.lut import FrequencyLut
from repro.harvester.actuator import LinearActuator
from repro.harvester.microgenerator import TunableMicrogenerator
from repro.harvester.rectifier import RectifierEnvelope
from repro.harvester.storage import EnergyStore
from repro.mech.cantilever import CantileverBeam
from repro.mech.coupling import ElectromagneticCoupling
from repro.mech.magnetics import MagneticTuner
from repro.node.ez430 import SensorNode
from repro.system.components import SystemParts
from repro.system.config import ORIGINAL_DESIGN, paper_parameter_space
from repro.system.envelope import EnvelopeSimulator
from repro.system.vibration import VibrationProfile


def build_custom_parts() -> SystemParts:
    """A stiffer, more strongly coupled harvester with a smaller supercap."""
    beam = CantileverBeam.for_frequency(55.0, tip_mass=0.05, length=25e-3)
    resonator = beam.to_resonator(zeta_mech=0.005, zeta_elec=0.009)
    tuner = MagneticTuner.for_frequency_range(
        resonator.mass, resonator.stiffness, 60.0, 80.0, gap_min=0.010, gap_max=0.015
    )
    from repro.harvester.tuning_map import TuningMap

    tuning_map = TuningMap(resonator, tuner, n_positions=256)
    coupling = ElectromagneticCoupling(
        theta=75.0, coil_resistance=3000.0, coil_inductance=0.5
    )
    micro = TunableMicrogenerator(
        tuning_map,
        coupling,
        actuator=LinearActuator(max_steps=255),
        rectifier=RectifierEnvelope(diode_drop=0.3),
        source_resistance=3000.0,
        mech_efficiency=0.45,
    )
    lut = FrequencyLut.from_tuning_map(tuning_map, 58.0, 82.0)
    micro.actuator.steps = micro.actuator.steps_for_position(lut.lookup(64.0))
    return SystemParts(
        microgenerator=micro,
        store=EnergyStore(capacitance=0.22, v_init=2.65, v_max=3.6),  # smaller cap
        node=SensorNode(),
        lut=lut,
    )


class CustomHarvesterBackend:
    """The envelope simulator running on the custom hardware."""

    name = "custom-harvester"

    def simulate(self, scenario):
        sim = EnvelopeSimulator(
            scenario.config,
            parts=build_custom_parts(),
            profile=scenario.profile,
            seed=scenario.seed,
            record_traces=False,
        )
        return sim.run(scenario.horizon)


def main() -> None:
    print("custom harvester:")
    parts = build_custom_parts()
    f_lo, f_hi = parts.microgenerator.tuning_map.frequency_range()
    print(f"  beam-designed resonator, tunable {f_lo:.1f} - {f_hi:.1f} Hz")
    print(f"  storage: {parts.store.capacitance:.2f} F supercapacitor")

    register_backend("custom-harvester", CustomHarvesterBackend)
    objective = SimulationObjective(
        space=paper_parameter_space(),
        seed=3,
        backend="custom-harvester",
        profile_factory=VibrationProfile.paper_profile,
    )
    explorer = DesignSpaceExplorer(
        paper_parameter_space(), objective, original_config=ORIGINAL_DESIGN
    )
    outcome = explorer.run(n_runs=10, seed=3)

    print("\nexploration outcome for the custom device:")
    print(outcome.summary())

    best = outcome.best()
    print(
        f"\nwith this hardware the firmware should run "
        f"{best.config.describe()} -- a different operating point than the "
        f"paper's device, found by the same methodology."
    )


if __name__ == "__main__":
    main()
