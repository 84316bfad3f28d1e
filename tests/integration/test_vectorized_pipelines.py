"""End-to-end wiring of the vectorized backend through the big drivers.

The backend registry and BatchRunner dispatch are unit-tested elsewhere;
these tests pin the product paths the issue names: a resumable
**campaign** over vectorized scenarios and a declarative **study** whose
spec selects the vectorized backend both execute through the lockstep
engine and reproduce the envelope backend's numbers exactly.
"""

from dataclasses import replace

import pytest

from repro.core.study import Study, paper_study_spec
from repro.store import Campaign, ResultStore
from repro.system.stochastic import named_family


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "results.db")


def _family_scenarios(backend: str, n=3, horizon=300.0):
    family = replace(
        named_family("intermittent"), horizon=horizon, backend=backend
    )
    return family.expand(n=n, seed=11)


class TestVectorizedCampaign:
    def test_campaign_runs_and_resumes_through_the_batch_engine(self, store):
        scenarios = _family_scenarios("vectorized")
        campaign = Campaign.create(
            store, "vec-camp", scenarios, source="test"
        )
        results = campaign.run(jobs=1)
        status = campaign.status()
        assert status.complete
        assert len(results) == len(scenarios)

        # Resume after completion re-simulates nothing: every row is
        # already in the store under its vectorized cache key.
        resumed = campaign.resume(jobs=1)
        assert [r.transmissions for r in resumed] == [
            r.transmissions for r in results
        ]
        assert store.count_keys(
            [s.cache_key() for s in campaign.scenarios()]
        ) == len(scenarios)

    def test_campaign_matches_envelope_campaign(self, store):
        vec = Campaign.create(
            store, "vec", _family_scenarios("vectorized"), source="test"
        ).run(jobs=1)
        env = Campaign.create(
            store, "env", _family_scenarios("envelope"), source="test"
        ).run(jobs=1)
        assert [r.transmissions for r in vec] == [
            r.transmissions for r in env
        ]
        assert [r.final_voltage for r in vec] == [
            r.final_voltage for r in env
        ]


class TestVectorizedStudy:
    def test_study_spec_backend_reaches_the_engine_and_matches(self, store):
        """The whole declarative pipeline -- DoE, chunked simulation,
        surrogate, optimisers, verification -- on the vectorized backend
        reproduces the envelope study bit-for-bit (same simulated
        responses in, same deterministic stages out)."""
        common = dict(seed=3, n_runs=10, horizon=200.0)
        vec_spec = replace(
            paper_study_spec(backend="vectorized", **common), name="vec-paper"
        )
        env_spec = replace(
            paper_study_spec(backend="envelope", **common), name="env-paper"
        )
        assert vec_spec.cache_key() != env_spec.cache_key()

        vec = Study(vec_spec, store=store).run()
        env = Study(env_spec, store=store).run()
        assert list(vec.responses) == list(env.responses)
        assert vec.summary() == env.summary()

    def test_study_resume_serves_from_store(self, store):
        spec = replace(
            paper_study_spec(backend="vectorized", seed=5, n_runs=10, horizon=200.0),
            name="vec-study",
        )
        first = Study(spec, store=store).run()
        again = Study.load(store, "vec-study").run()
        assert again.summary() == first.summary()
