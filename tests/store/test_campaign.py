"""Campaign: journaling, crash-safe chunked execution, zero re-simulation.

The centrepiece is the acceptance property from the issue: a campaign
over a 40-scenario stochastic family, killed mid-run, resumes without
re-simulating a single stored scenario -- verified by a counting backend
that records every simulation it performs.
"""

from dataclasses import replace

import pytest

from repro.backends import EnvelopeBackend, register_backend
from repro.core.batch import BatchRunner
from repro.errors import ConfigError, SimulationError
from repro.scenario import PartsSpec, Scenario
from repro.store import Campaign, ResultStore, campaign_names, campaign_statuses
from repro.system.config import SystemConfig
from repro.system.stochastic import named_family


class CountingBackend:
    """Envelope backend that logs (and can crash after) N simulations."""

    name = "counting"

    #: Shared mutable state: cache keys in simulation order, crash gate.
    simulated = []
    crash_after = None

    def simulate(self, scenario):
        if (
            CountingBackend.crash_after is not None
            and len(CountingBackend.simulated) >= CountingBackend.crash_after
        ):
            raise SimulationError("simulated crash (power loss)")
        CountingBackend.simulated.append(scenario.cache_key())
        return EnvelopeBackend().simulate(replace(scenario, backend="envelope"))


register_backend("counting", CountingBackend, overwrite=True)


@pytest.fixture(autouse=True)
def _reset_counting_backend():
    CountingBackend.simulated = []
    CountingBackend.crash_after = None
    yield
    CountingBackend.simulated = []
    CountingBackend.crash_after = None


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "campaign.db")


def _family_scenarios(n=40, horizon=60.0, backend="counting"):
    """A 40-scenario expansion of a named stochastic family."""
    family = replace(named_family("factory-floor"), horizon=horizon, backend=backend)
    return family.expand(n=n, seed=3)


def _plain_scenarios(n=5):
    return [
        Scenario(
            config=SystemConfig(tx_interval_s=1.0 + i),
            parts=PartsSpec(v_init=2.85),
            horizon=60.0,
            seed=i,
            name=f"plain-{i}",
        )
        for i in range(n)
    ]


# -- journaling ----------------------------------------------------------------


def test_create_and_reload(store):
    scenarios = _plain_scenarios()
    campaign = Campaign.create(store, "study", scenarios, source="unit test")
    assert campaign.total == 5
    reloaded = Campaign(store, "study")
    assert reloaded.total == 5
    assert reloaded.source == "unit test"
    assert reloaded.scenarios() == scenarios
    assert campaign_names(store) == ["study"]


def test_create_resolves_floating_seeds(store):
    floating = [s.with_seed(None) for s in _plain_scenarios(3)]
    campaign = Campaign.create(store, "seeded", floating, seed=11)
    journaled = campaign.scenarios()
    assert all(s.seed is not None for s in journaled)
    # Deterministic: the same creation inputs journal the same keys.
    other = ResultStore(store.path.parent / "other.db")
    again = Campaign.create(other, "seeded", floating, seed=11)
    assert [s.cache_key() for s in again.scenarios()] == [
        s.cache_key() for s in journaled
    ]


def test_duplicate_name_rejected_unless_identical(store):
    scenarios = _plain_scenarios(3)
    Campaign.create(store, "dup", scenarios)
    with pytest.raises(ConfigError):
        Campaign.create(store, "dup", scenarios)
    # exist_ok with identical content reuses the journal...
    again = Campaign.create(store, "dup", scenarios, exist_ok=True)
    assert again.total == 3
    # ...but different content is still an error.
    with pytest.raises(ConfigError):
        Campaign.create(store, "dup", _plain_scenarios(4), exist_ok=True)


def test_unknown_campaign(store):
    with pytest.raises(ConfigError):
        Campaign(store, "missing")


def test_empty_campaign_rejected(store):
    with pytest.raises(ConfigError):
        Campaign.create(store, "empty", [])


# -- execution -----------------------------------------------------------------


def test_run_completes_and_returns_ordered_results(store):
    scenarios = _plain_scenarios(4)
    campaign = Campaign.create(store, "full", scenarios)
    assert campaign.status().pending == 4
    results = campaign.run(jobs=1)
    assert len(results) == 4
    status = campaign.status()
    assert status.complete and status.done == 4
    # Results align with the journal order.
    for scenario, result in zip(campaign.scenarios(), results):
        assert store.get(scenario).to_json() == result.to_json()


def test_rerun_of_complete_campaign_simulates_nothing(store):
    scenarios = _family_scenarios(n=6)
    campaign = Campaign.create(store, "warm", scenarios)
    campaign.run(jobs=1)
    first_count = len(CountingBackend.simulated)
    assert first_count == len(scenarios)
    results = Campaign(store, "warm").run(jobs=1)
    assert len(CountingBackend.simulated) == first_count  # zero new sims
    assert len(results) == len(scenarios)


def test_custom_runner_must_carry_store(store):
    campaign = Campaign.create(store, "guard", _plain_scenarios(2))
    with pytest.raises(ConfigError):
        campaign.run(runner=BatchRunner(jobs=1))


def test_custom_runner_must_carry_the_same_store(store, tmp_path):
    campaign = Campaign.create(store, "guard2", _plain_scenarios(2))
    other = ResultStore(tmp_path / "elsewhere.db")
    with pytest.raises(ConfigError):
        campaign.run(runner=BatchRunner(jobs=1, store=other))
    # A different instance opened on the same file is fine.
    same_file = ResultStore(store.path)
    results = campaign.run(runner=BatchRunner(jobs=1, store=same_file))
    assert len(results) == 2
    assert campaign.status().complete


def test_custom_runner_must_not_override_the_backend(store):
    """An overriding runner would store rows under keys the journal
    does not hold, so the campaign could never complete."""
    campaign = Campaign.create(store, "guard3", _plain_scenarios(3))
    runner = BatchRunner(jobs=1, store=store, backend="vectorized")
    with pytest.raises(ConfigError, match="vectorized"):
        campaign.run(runner=runner)
    assert len(store) == 0
    assert campaign.status().done == 0
    results = campaign.run(runner=BatchRunner(jobs=1, store=store))
    assert [r.to_json() for r in results] == [
        store.get(s).to_json() for s in campaign.scenarios()
    ]
    assert campaign.status().complete


def test_killed_campaign_resumes_without_resimulating_stored_work(store):
    """The issue's acceptance scenario: kill at ~50%, resume, count sims."""
    scenarios = _family_scenarios(n=40)
    assert len(scenarios) == 40
    campaign = Campaign.create(store, "killed", scenarios)

    # "Kill" the process mid-campaign: the backend dies after 20
    # simulations, mid-chunk, so some finished work is lost with it.
    CountingBackend.crash_after = 20
    with pytest.raises(SimulationError):
        campaign.run(jobs=1, chunk_size=8)
    stored_before_resume = set(store.keys())
    assert 0 < len(stored_before_resume) < 40  # durable chunks only
    survived = campaign.status()
    assert survived.done == len(stored_before_resume)

    # Resume in a fresh campaign object (a new process would do this).
    CountingBackend.crash_after = None
    CountingBackend.simulated = []
    resumed = Campaign(store, "killed")
    results = resumed.resume(jobs=1, chunk_size=8)

    resim = set(CountingBackend.simulated) & stored_before_resume
    assert resim == set()  # zero re-simulation of stored scenarios
    assert len(CountingBackend.simulated) == 40 - len(stored_before_resume)
    assert len(results) == 40
    assert resumed.status().complete
    assert len(store) == 40


def test_resume_results_identical_to_uninterrupted_run(store):
    scenarios = _family_scenarios(n=10)
    interrupted = Campaign.create(store, "a", scenarios)
    CountingBackend.crash_after = 5
    with pytest.raises(SimulationError):
        interrupted.run(jobs=1, chunk_size=4)
    CountingBackend.crash_after = None
    resumed_results = Campaign(store, "a").resume(jobs=1, chunk_size=4)

    clean_store = ResultStore(store.path.parent / "clean.db")
    clean = Campaign.create(clean_store, "a", scenarios)
    clean_results = clean.run(jobs=1)
    assert [r.to_json() for r in resumed_results] == [
        r.to_json() for r in clean_results
    ]


def test_status_listing(store):
    Campaign.create(store, "one", _plain_scenarios(2))
    Campaign.create(store, "two", _plain_scenarios(3))
    statuses = campaign_statuses(store)
    assert [s.name for s in statuses] == ["one", "two"]
    assert all(not s.complete for s in statuses)
    assert "0/2" in statuses[0].summary()
