"""Differential testing: the vectorized backend against its references.

The vectorized backend's licence to exist is that it is *the same
simulation* as the scalar envelope backend, just amortised over a batch.
This harness machine-checks that claim instead of assuming it:

- every **named scenario** runs through envelope and the lockstep
  engine at its full horizon,
- ``expand(n, seed)`` samples of **all five stochastic families** run
  through both backends as one batch per backend,
- a **detailed** cross-check runs where it is cheap (a short window with
  tuning sessions excluded, as in the conformance suite),

and every comparison is judged against one explicit table of per-metric
tolerance envelopes (:data:`TOLERANCES` / :data:`DETAILED_TOLERANCES`).
The envelope-vs-vectorized envelopes are deliberately tight -- the
vectorized integrator re-expresses the scalar arithmetic operation for
operation, so agreement is at rounding level (byte-identical payloads on
the development platform); the detailed envelopes are loose, mirroring
the conformance suite's model-fidelity bands.

The vectorized side calls :func:`~repro.system.vectorized.simulate_batch`
where a test pins the lockstep engine at fewer lanes than
:data:`~repro.system.vectorized.LOCKSTEP_MIN_LANES`: the backend's own
``run``/``run_batch`` would hand such batches to the scalar integrator.

Failures print a full metric diff table, not just the first bad number.
"""

from dataclasses import dataclass, replace
from typing import Dict

import pytest

from repro.backends import quiet_options, run
from repro.scenario import Scenario, named_scenario, scenario_names
from repro.system.result import SystemResult
from repro.system.stochastic import family_names, named_family
from repro.system.vectorized import simulate_batch

#: Replicates per stochastic-family grid point and the expansion seed.
FAMILY_N = 2
FAMILY_SEED = 123


@dataclass(frozen=True)
class Tolerance:
    """Two-sided agreement envelope: ``|got - ref| <= abs + rel*|ref|``."""

    rel: float = 0.0
    abs: float = 0.0

    def holds(self, ref: float, got: float) -> bool:
        return abs(got - ref) <= self.abs + self.rel * abs(ref)


#: The single tolerance table for envelope vs vectorized.  These are
#: *rounding-level* envelopes: both backends execute the same arithmetic
#: per scenario, so anything beyond the last few ulps is a real bug.
TOLERANCES: Dict[str, Tolerance] = {
    "lifetime_s": Tolerance(rel=1e-9, abs=1e-6),
    "transmissions": Tolerance(abs=1.0),
    "final_voltage": Tolerance(abs=1e-6),
    "harvested_j": Tolerance(rel=1e-6, abs=1e-9),
    "consumed_j": Tolerance(rel=1e-6, abs=1e-9),
}

#: Model-fidelity envelopes for the detailed cross-check (the MNA model
#: keeps the ring-up transient and discrete transmission notches the
#: envelope physics averages away) -- mirrors the conformance suite.
DETAILED_TOLERANCES: Dict[str, Tolerance] = {
    "transmissions": Tolerance(rel=0.5, abs=2.0),
    "final_voltage": Tolerance(abs=0.01),
}


def _metrics(result: SystemResult) -> Dict[str, float]:
    return {
        "lifetime_s": float(result.horizon),
        "transmissions": float(result.transmissions),
        "final_voltage": float(result.final_voltage),
        "harvested_j": float(result.breakdown.harvested),
        "consumed_j": float(result.breakdown.consumed),
    }


def assert_agreement(
    label: str,
    reference: SystemResult,
    candidate: SystemResult,
    tolerances: Dict[str, Tolerance],
    ref_name: str = "envelope",
    got_name: str = "vectorized",
) -> None:
    """Assert every tabled metric agrees; on failure, show them all."""
    ref = _metrics(reference)
    got = _metrics(candidate)
    rows = []
    failed = False
    for metric, tol in tolerances.items():
        ok = tol.holds(ref[metric], got[metric])
        failed = failed or not ok
        rows.append(
            f"  {'ok ' if ok else 'FAIL'} {metric:<14s} "
            f"{ref_name}={ref[metric]:.9g} {got_name}={got[metric]:.9g} "
            f"delta={got[metric] - ref[metric]:+.3e} "
            f"(allowed abs={tol.abs:g} rel={tol.rel:g})"
        )
    assert not failed, (
        f"{label}: {got_name} disagrees with {ref_name} beyond the "
        f"declared tolerance envelope:\n" + "\n".join(rows)
    )


def _pair(scenario: Scenario):
    """Run one scenario on envelope and the lockstep engine, traces off."""
    base = replace(scenario, options=quiet_options("envelope"))
    return run(base), simulate_batch([replace(base, backend="vectorized")])[0]


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_named_scenarios_differential(name):
    envelope, vectorized = _pair(named_scenario(name))
    assert_agreement(name, envelope, vectorized, TOLERANCES)


@pytest.mark.parametrize("name", sorted(family_names()))
def test_stochastic_families_differential(name):
    """Family expansions agree scenario-for-scenario across backends.

    Both sides run as *batches* (the vectorized side through one
    lockstep engine call), so this also pins that lockstep batching
    does not leak state between lanes.
    """
    family = named_family(name)
    scenarios = [
        replace(s, options=quiet_options("envelope"))
        for s in family.expand(n=FAMILY_N, seed=FAMILY_SEED)
    ]
    envelope = [run(s) for s in scenarios]
    vectorized = simulate_batch(
        [replace(s, backend="vectorized") for s in scenarios]
    )
    for scenario, env, vec in zip(scenarios, envelope, vectorized):
        assert_agreement(scenario.name or name, env, vec, TOLERANCES)


def test_batch_order_and_duplicates():
    """A shuffled batch with duplicates returns per-slot exact results."""
    family = named_family("intermittent")
    base = [
        replace(s, backend="vectorized", options=quiet_options("vectorized"))
        for s in family.expand(n=2, seed=7)
    ]
    batch = [base[1], base[0], base[1], base[0]]
    results = simulate_batch(batch)
    singles = [simulate_batch([s])[0] for s in batch]
    for i, (got, want) in enumerate(zip(results, singles)):
        assert_agreement(
            f"slot {i}", want, got, TOLERANCES,
            ref_name="single", got_name="batched",
        )


@pytest.mark.slow
@pytest.mark.parametrize("name", ["paper", "cold-start"])
def test_detailed_cross_check(name):
    """Where the detailed backend is cheap (short window, no sessions),
    the vectorized backend must sit inside the same fidelity band the
    envelope backend is held to."""
    scenario = named_scenario(name)
    short = replace(
        scenario,
        config=replace(scenario.config, watchdog_s=1e4),
        horizon=2.0,
        seed=1,
        options={},
    )
    detailed = run(replace(short, backend="detailed"))
    vectorized = run(replace(short, backend="vectorized"))
    assert_agreement(
        name,
        detailed,
        vectorized,
        DETAILED_TOLERANCES,
        ref_name="detailed",
        got_name="vectorized",
    )


def _payload_json(result: SystemResult) -> str:
    import json

    return json.dumps(result.to_payload(), sort_keys=True)


class TestByteIdentity:
    """Canonical-JSON payload equality -- not tolerance bands.

    ``SystemResult.to_payload`` carries the config, headline metrics,
    the full energy audit, **every tuning event and every recorded
    trace**, so one string comparison pins all of them at once.  These
    are the paths this release batched; each must be a pure
    re-expression of the scalar reference.
    """

    def test_batched_sessions_with_traces_and_tuning_log(self):
        # factory-floor lanes enter tuning sessions every few minutes;
        # traces stay ON (the family default), so the comparison covers
        # the batched session machinery, the tuning log and the traces.
        family = named_family("factory-floor")
        scenarios = [
            replace(s, horizon=900.0)
            for s in family.expand(n=FAMILY_N, seed=FAMILY_SEED)
        ]
        envelope = [run(s) for s in scenarios]
        vectorized = simulate_batch(
            [replace(s, backend="vectorized") for s in scenarios]
        )
        for scenario, env, vec in zip(scenarios, envelope, vectorized):
            assert _payload_json(env) == _payload_json(vec), scenario.name

    def test_jobs_compose_with_run_batch(self):
        """serial == one batch == N-worker sharded batch, byte for byte,
        on both executors."""
        from repro.core.batch import BatchRunner

        family = named_family("vehicle")
        scenarios = [
            replace(s, horizon=600.0, options=quiet_options("envelope"))
            for s in family.expand(n=5, seed=11)
        ]
        serial = [run(replace(s, backend="vectorized")) for s in scenarios]
        batched = BatchRunner(
            jobs=1, cache_size=0, backend="vectorized"
        ).run(scenarios)
        threaded = BatchRunner(
            jobs=3, cache_size=0, backend="vectorized", executor="thread"
        ).run(scenarios)
        forked = BatchRunner(
            jobs=2, cache_size=0, backend="vectorized", executor="process"
        ).run(scenarios)
        want = [_payload_json(r) for r in serial]
        assert want == [_payload_json(r) for r in batched]
        assert want == [_payload_json(r) for r in threaded]
        assert want == [_payload_json(r) for r in forked]

    def test_monte_carlo_batched_path(self):
        """A whole Monte Carlo run through the batched dispatcher equals
        the scalar-envelope run sample for sample."""
        from repro.core.montecarlo import monte_carlo
        from repro.system.config import ORIGINAL_DESIGN

        scalar = monte_carlo(
            ORIGINAL_DESIGN, n_samples=4, horizon=600.0, seed=5,
            backend="envelope",
        )
        batched = monte_carlo(
            ORIGINAL_DESIGN, n_samples=4, horizon=600.0, seed=5,
            backend="vectorized", jobs=2,
        )
        assert list(scalar.transmissions) == list(batched.transmissions)
        assert list(scalar.final_voltages) == list(batched.final_voltages)

    def test_study_design_stage_batched_path(self):
        """A DoE design-matrix evaluation through the batched dispatcher
        equals the scalar-envelope evaluation point for point."""
        import numpy as np

        from repro.core.objective import SimulationObjective

        points = np.array(
            [[0.0, 0.0, 0.0], [1.0, -1.0, 0.5], [-1.0, 1.0, -0.5]]
        )
        scalar = SimulationObjective(
            horizon=600.0, seed=3, backend="envelope"
        ).evaluate_design(points)
        batched = SimulationObjective(
            horizon=600.0, seed=3, backend="vectorized", jobs=2
        ).evaluate_design(points)
        assert list(scalar) == list(batched)


def test_tolerance_table_is_complete():
    """Every metric the harness compares has a declared envelope."""
    result = run(
        replace(named_scenario("low-vibration"), horizon=60.0, options={})
    )
    assert set(_metrics(result)) == set(TOLERANCES)
