"""Declarative studies: spec round trips, fail-fast validation, journaled
store-backed execution, and the kill/resume acceptance property.

The centrepiece mirrors the campaign acceptance test one layer up: a
store-backed study killed mid-design resumes with **zero** re-simulation
of stored design points and reproduces a byte-identical
``ExplorationOutcome.summary()`` versus an uninterrupted run.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.backends import EnvelopeBackend, register_backend
from repro.core.explorer import ExplorationOutcome, OptimaEntry
from repro.core.paper import paper_explorer, run_paper_flow
from repro.core.sensitivity import robustness_study
from repro.core.study import (
    Study,
    StudySpec,
    named_study,
    paper_study_spec,
    study_names,
    study_statuses,
)
from repro.errors import ConfigError, DesignError, SimulationError
from repro.optimize.result import OptimizationResult
from repro.store import ResultStore
from repro.system.config import ORIGINAL_DESIGN

#: Short horizon: every stage still runs, simulations stay cheap.
HORIZON = 600.0


class CountingStudyBackend:
    """Envelope backend that logs (and can crash after) N simulations."""

    name = "counting-study"

    simulated = []
    crash_after = None

    def simulate(self, scenario):
        if (
            CountingStudyBackend.crash_after is not None
            and len(CountingStudyBackend.simulated)
            >= CountingStudyBackend.crash_after
        ):
            raise SimulationError("simulated crash (power loss)")
        CountingStudyBackend.simulated.append(scenario.cache_key())
        return EnvelopeBackend().simulate(replace(scenario, backend="envelope"))


register_backend("counting-study", CountingStudyBackend, overwrite=True)


@pytest.fixture(autouse=True)
def _reset_counting_backend():
    CountingStudyBackend.simulated = []
    CountingStudyBackend.crash_after = None
    yield
    CountingStudyBackend.simulated = []
    CountingStudyBackend.crash_after = None


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "study.db")


def _tiny_spec(**overrides):
    base = dict(name="tiny", seed=3, horizon=HORIZON)
    base.update(overrides)
    return replace(paper_study_spec(), **base)


# -- spec value semantics ------------------------------------------------------


class TestStudySpec:
    def test_json_round_trip(self, tmp_path):
        spec = _tiny_spec(
            design="lhs",
            design_options={"criterion": "maximin"},
            optimizers=("nelder-mead", "pattern"),
            optimizer_options={"pattern": {"max_evaluations": 500}},
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        loaded = StudySpec.load(path)
        assert loaded == spec
        assert loaded.cache_key() == spec.cache_key()
        assert loaded.optimizer_options == {"pattern": {"max_evaluations": 500}}

    def test_name_and_jobs_excluded_from_cache_key(self):
        spec = _tiny_spec()
        assert replace(spec, name="other").cache_key() == spec.cache_key()
        assert replace(spec, jobs=4).cache_key() == spec.cache_key()
        assert replace(spec, seed=99).cache_key() != spec.cache_key()

    def test_unknown_schema_rejected(self):
        payload = _tiny_spec().to_dict()
        payload["schema"] = 99
        with pytest.raises(DesignError):
            StudySpec.from_dict(payload)

    def test_malformed_numeric_values_rejected_cleanly(self):
        """Regression: int('ten') must surface as DesignError, not a
        raw ValueError traceback through the CLI."""
        for field, value in (
            ("n_runs", "ten"),
            ("horizon", "long"),
            ("seed", []),
            ("space", "paper"),
            ("parts", "x"),
        ):
            payload = _tiny_spec().to_dict()
            payload[field] = value
            with pytest.raises(DesignError, match="malformed value"):
                StudySpec.from_dict(payload)

    def test_unknown_field_names_rejected(self):
        """Regression: a misspelled field must not silently run defaults."""
        payload = _tiny_spec().to_dict()
        payload["optimiser"] = payload.pop("optimizers")
        with pytest.raises(DesignError, match="optimiser"):
            StudySpec.from_dict(payload)

    def test_named_library(self):
        spec = named_study("paper")
        assert spec.name == "paper"
        assert spec.design == "d-optimal"
        assert spec.optimizers == ("simulated-annealing", "genetic-algorithm")
        with pytest.raises(ConfigError):
            named_study("nope")


class TestSpecValidation:
    """Satellite: typos and bad counts fail at spec-load time."""

    def test_unknown_design_lists_alternatives(self):
        with pytest.raises(ConfigError, match="d-optimal"):
            _tiny_spec(design="d-optimal-typo")

    def test_unknown_surrogate_lists_alternatives(self):
        with pytest.raises(ConfigError, match="quadratic"):
            _tiny_spec(surrogate="kriging")

    def test_unknown_optimizer_lists_alternatives(self):
        with pytest.raises(ConfigError, match="simulated-annealing"):
            _tiny_spec(optimizers=("simulated-annealing", "genetic-algoritm"))

    def test_unknown_metric_lists_alternatives(self):
        with pytest.raises(ConfigError, match="transmissions"):
            _tiny_spec(metric="throughput")

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError, match="jobs"):
            _tiny_spec(jobs=0)

    def test_validation_happens_on_json_load_too(self):
        payload = _tiny_spec().to_dict()
        payload["optimizers"] = ["genetic-algoritm"]
        with pytest.raises(ConfigError, match="genetic-algorithm"):
            StudySpec.from_dict(payload)
        payload = _tiny_spec().to_dict()
        payload["jobs"] = 0
        with pytest.raises(ConfigError):
            StudySpec.from_dict(payload)

    def test_options_for_unlisted_optimizer_rejected(self):
        with pytest.raises(ConfigError, match="pattern"):
            _tiny_spec(optimizer_options={"pattern": {"tol": 1e-3}})

    def test_multistart_local_method_accepts_registry_name(self, tmp_path):
        """A JSON spec can only name the local method; the wrapper must
        resolve it instead of calling the string."""
        from repro.optimize.problem import Problem
        from repro.optimize.registry import get_optimizer

        problem = Problem(
            lambda x: -float(np.sum(x**2)), [(-1, 1)] * 3, maximize=True
        )
        result = get_optimizer("multistart")(
            problem, seed=1, local_method="pattern", n_starts=2
        )
        assert result.method.startswith("multistart(pattern")
        with pytest.raises(ConfigError, match="nelder-mead"):
            get_optimizer("multistart")(problem, seed=1, local_method="nope")

    def test_needs_an_optimizer(self):
        with pytest.raises(ConfigError):
            _tiny_spec(optimizers=())

    def test_non_scalar_option_rejected(self):
        with pytest.raises(ConfigError):
            _tiny_spec(design_options={"levels": [1, 2, 3]})

    def test_reordered_space_rejected(self):
        """Regression: SystemConfig binds the space positionally, so a
        reordered space must fail at spec time, not corrupt results."""
        from repro.system.config import paper_parameter_space

        space = paper_parameter_space()
        swapped = type(space)(
            [space.parameters[1], space.parameters[0], space.parameters[2]]
        )
        with pytest.raises(ConfigError, match="clock_hz"):
            _tiny_spec(space=swapped)

    def test_json_null_options_are_empty_not_a_crash(self):
        """Regression: hand-written specs with null option blocks load."""
        payload = _tiny_spec().to_dict()
        payload["design_options"] = None
        payload["surrogate_options"] = None
        payload["optimizer_options"] = None
        spec = StudySpec.from_dict(payload)
        assert spec.design_options == {}
        assert spec.optimizer_options == {}

    def test_non_object_options_rejected_cleanly(self):
        payload = _tiny_spec().to_dict()
        payload["design_options"] = "fedorov"
        with pytest.raises(ConfigError, match="JSON object"):
            StudySpec.from_dict(payload)
        payload = _tiny_spec().to_dict()
        payload["optimizers"] = None
        with pytest.raises(ConfigError, match="optimizers"):
            StudySpec.from_dict(payload)
        payload = _tiny_spec().to_dict()
        payload["optimizers"] = "simulated-annealing"
        with pytest.raises(ConfigError, match="optimizers"):
            StudySpec.from_dict(payload)


# -- execution -----------------------------------------------------------------


class TestStudyExecution:
    def test_paper_study_matches_run_paper_flow(self, store):
        """`study run` on the "paper" spec == the legacy imperative flow."""
        outcome = Study(paper_study_spec(seed=3, horizon=HORIZON), store=store).run()
        legacy = paper_explorer(seed=3, horizon=HORIZON).run(n_runs=10, seed=3)
        assert outcome.summary() == legacy.summary()
        assert np.array_equal(outcome.design.points, legacy.design.points)
        assert np.array_equal(outcome.responses, legacy.responses)
        assert np.array_equal(
            outcome.model.coefficients, legacy.model.coefficients
        )

    def test_run_paper_flow_journals_when_stored(self, store):
        # A non-canonical variant (short horizon) journals under a
        # key-qualified name, leaving the bare "paper" name free for
        # the canonical spec.
        run_paper_flow(seed=3, horizon=HORIZON, store=store)
        names = study_names(store)
        assert len(names) == 1 and names[0].startswith("paper@")
        status = Study.load(store, names[0]).status()
        assert status.complete
        assert status.total == 11  # 10 design points + the original design

    def test_custom_stages_execute(self, store):
        spec = _tiny_spec(
            design="ccd",
            surrogate="quadratic",
            optimizers=("nelder-mead", "grid"),
        )
        outcome = Study(spec, store=store).run()
        assert outcome.design.name.startswith("ccd")
        assert [e.method for e in outcome.optima] == ["nelder-mead", "grid"]

    def test_rerun_costs_no_simulation(self, store):
        spec = _tiny_spec(backend="counting-study")
        Study(spec, store=store).run()
        simulated_first = list(CountingStudyBackend.simulated)
        CountingStudyBackend.simulated = []
        again = Study(spec, store=store).run()
        assert CountingStudyBackend.simulated == []
        assert again.n_simulations >= len(simulated_first)  # counted, not run

    def test_journal_rejects_same_name_different_spec(self, store):
        Study(_tiny_spec(), store=store).run()
        other = _tiny_spec(seed=4)
        with pytest.raises(ConfigError, match="different spec"):
            Study(other, store=store).run()
        # status() must not masquerade as the other study's progress.
        with pytest.raises(ConfigError, match="different spec"):
            Study(other, store=store).status()

    def test_suffix_mode_keeps_cache_style_reuse_working(self, store):
        """Regression: run_paper_flow twice against one store with
        different settings must not ConfigError -- each variant journals
        under its own key-qualified name."""
        run_paper_flow(seed=3, horizon=HORIZON, store=store)
        run_paper_flow(seed=4, horizon=HORIZON, store=store)  # must not raise
        names = study_names(store)
        assert len(names) == 2 and all(n.startswith("paper@") for n in names)
        # Same spec again reuses its journal instead of suffixing anew.
        run_paper_flow(seed=4, horizon=HORIZON, store=store)
        assert study_names(store) == names
        # Qualified studies load, resume and list like any other.
        assert Study.load(store, names[0]).status().complete
        Study.resume(store, names[0])
        assert [s.name for s in study_statuses(store)] == names
        # The canonical name stays free for an explicit `study run paper`
        # (only the full-horizon canonical spec may claim it).
        assert "paper" not in names

    def test_journal_total_matches_status_total(self, store):
        # ccd with centre replicates dedupes repeated points; the
        # journaled total must agree with what status() reports.
        spec = _tiny_spec(design="ccd", design_options={"n_center": 3})
        study = Study(spec, store=store)
        study.run()
        journaled = store.get_study(study.name).total
        assert journaled == study.status().total
        assert journaled < 17 + 1  # 15 distinct ccd points + original

    @pytest.mark.parametrize("sharded", [False, True], ids=["plain", "sharded"])
    def test_gc_orphans_keeps_journaled_study_rows(self, tmp_path, sharded):
        from repro.store import ShardedResultStore

        store = (
            ShardedResultStore(tmp_path / "shards", shards=3)
            if sharded
            else ResultStore(tmp_path / "plain.db")
        )
        study = Study(
            _tiny_spec(horizon=300.0, optimizers=("random",)), store=store
        )
        study.run()
        total = study.status().total
        # Only the optimum's verification run is in no journal.
        assert len(store) == total + 1
        assert store.gc(orphans=True) == 1
        assert study.status().done == total

    def test_resume_unknown_name(self, store):
        with pytest.raises(ConfigError, match="unknown study"):
            Study.resume(store, "missing")

    def test_status_without_store(self):
        study = Study(_tiny_spec())
        status = study.status()
        assert status.done == 0
        assert status.total == 11

    def test_status_is_read_only(self, store):
        """Regression: peeking at progress must not journal anything."""
        Study(_tiny_spec(), store=store).status()
        assert study_names(store) == []
        # ...so a later run with a *different* spec under the same name
        # is not blocked by a phantom journal row.
        Study(_tiny_spec(seed=4), store=store).run()
        assert study_names(store) == ["tiny"]

    def test_non_default_metric_labels_outputs(self, store):
        from repro.core.report import render_table_vi

        spec = _tiny_spec(metric="final-voltage")
        outcome = Study(spec, store=store).run()
        assert outcome.metric == "final-voltage"
        text = outcome.summary()
        assert "final-voltage" in text
        assert " transmissions" not in text
        # Voltages keep their resolution instead of rounding to ints.
        assert outcome.original_transmissions == pytest.approx(
            float(outcome.format_value(outcome.original_transmissions)), rel=1e-3
        )
        assert "final-voltage" in render_table_vi(outcome)

    def test_metric_survives_outcome_save_load(self, store, tmp_path):
        from repro.core.campaign import load_outcome, save_outcome

        outcome = Study(_tiny_spec(metric="final-voltage"), store=store).run()
        path = tmp_path / "outcome.json"
        save_outcome(outcome, path)
        assert load_outcome(path).metric == "final-voltage"


class TestKillResumeAcceptance:
    """The issue's acceptance property, end to end."""

    def test_kill_mid_design_resume_zero_resimulation(self, store, tmp_path):
        spec = _tiny_spec(backend="counting-study")

        # Reference: the same spec, uninterrupted, in a separate store.
        reference_store = ResultStore(tmp_path / "reference.db")
        reference = Study(spec, store=reference_store).run()
        CountingStudyBackend.simulated = []

        # Kill the real run after 4 simulations (chunk_size=1 makes
        # every completed design point durable).
        CountingStudyBackend.crash_after = 4
        study = Study(spec, store=store, chunk_size=1)
        with pytest.raises(SimulationError):
            study.run()
        stored_before = set(store.keys())
        assert len(stored_before) == 4
        assert not Study.load(store, spec.name).status().complete

        # Resume: only missing points simulate, nothing stored re-runs.
        CountingStudyBackend.crash_after = None
        CountingStudyBackend.simulated = []
        outcome = Study.resume(store, spec.name)
        resumed = set(CountingStudyBackend.simulated)
        assert resumed & stored_before == set()
        assert len(CountingStudyBackend.simulated) == len(resumed)  # no dupes
        assert Study.load(store, spec.name).status().complete

        # Bit-identical outcome versus the uninterrupted run.
        assert outcome.summary() == reference.summary()
        assert np.array_equal(outcome.responses, reference.responses)
        assert np.array_equal(
            outcome.model.coefficients, reference.model.coefficients
        )
        assert [
            (e.method, e.rsm_value, e.simulated_value) for e in outcome.optima
        ] == [
            (e.method, e.rsm_value, e.simulated_value) for e in reference.optima
        ]

    def test_statuses_listing(self, store):
        Study(_tiny_spec(), store=store).run()
        statuses = study_statuses(store)
        assert len(statuses) == 1
        assert statuses[0].complete
        assert "tiny" in statuses[0].summary()

    def test_status_listing_survives_unregistered_stages(self, store):
        """Regression: a journaled study whose spec names a plugin stage
        must not make `study status` crash for the whole store."""
        from repro.core.study import study_status
        from repro.doe import registry as doe_registry
        from repro.doe.registry import get_design, register_design

        Study(_tiny_spec(), store=store).run()
        register_design(
            "plugin-lhs",
            lambda space, n, seed, **o: get_design("lhs")(space, n, seed, **o),
            overwrite=True,
        )
        try:
            Study(
                _tiny_spec(name="plugged", design="plugin-lhs"), store=store
            ).run()
        finally:
            doe_registry._REGISTRY.pop("plugin-lhs", None)
        # The plugin is now gone (a fresh process): listing and per-name
        # status still work from the journal alone...
        statuses = study_statuses(store)
        assert [s.name for s in statuses] == ["plugged", "tiny"]
        assert all(s.complete for s in statuses)
        assert study_status(store, "plugged").complete
        # ...while *executing* it fails with the registry's clear error.
        with pytest.raises(ConfigError, match="unknown design"):
            Study.resume(store, "plugged")


# -- satellites ----------------------------------------------------------------


class TestSummaryZeroOriginal:
    """Satellite regression: no more 'infx' improvement factor."""

    def _outcome(self, original_transmissions):
        base = paper_explorer(seed=3, horizon=HORIZON)
        design = base.build_design(n_runs=10, seed=3)
        model = base.fit_model(design, np.zeros(design.n_runs))
        from repro.rsm.diagnostics import diagnostics

        diag = diagnostics(
            model.basis.expand(design.points), np.zeros(design.n_runs), model.fit
        )
        entry = OptimaEntry(
            method="simulated-annealing",
            coded=np.zeros(3),
            config=ORIGINAL_DESIGN,
            rsm_value=12.0,
            simulated_value=34.0,
            optimizer_result=OptimizationResult(
                x=np.zeros(3), value=12.0, n_evaluations=1, method="sa"
            ),
        )
        return ExplorationOutcome(
            space=base.space,
            design=design,
            responses=np.zeros(design.n_runs),
            model=model,
            fit_diagnostics=diag,
            original_config=ORIGINAL_DESIGN,
            original_transmissions=original_transmissions,
            optima=[entry],
        )

    def test_zero_original_renders_na(self):
        outcome = self._outcome(0.0)
        assert outcome.improvement_factor() == float("inf")
        text = outcome.summary()
        assert "n/a (original design produced 0 transmissions)" in text
        assert "infx" not in text

    def test_positive_original_still_renders_factor(self):
        text = self._outcome(17.0).summary()
        assert "improvement factor: 2.00x" in text


class TestRobustnessRewire:
    def test_accepts_exploration_outcome(self, store):
        outcome = Study(_tiny_spec(), store=store).run()
        report = robustness_study(
            outcome, seed=1, horizon=60.0, store=store
        )
        assert report.config == outcome.best().config
        assert len(report.entries) == 9
