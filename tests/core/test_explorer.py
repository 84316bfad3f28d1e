"""The DSE workflow: objective caching, explorer stages, reports, campaign."""

import numpy as np
import pytest

from repro.core.campaign import load_outcome, save_outcome
from repro.core.explorer import DesignSpaceExplorer
from repro.core.objective import SimulationObjective
from repro.core.paper import paper_explorer, paper_objective, run_paper_flow
from repro.core.report import (
    design_space_sweep,
    format_table,
    render_table_vi,
    series_to_csv,
    table_vi_rows,
)
from repro.system.config import ORIGINAL_DESIGN, paper_parameter_space


@pytest.fixture(scope="module")
def outcome():
    # Short horizon keeps the module fast while exercising every stage.
    return run_paper_flow(seed=7, n_runs=10, horizon=1200.0)


class TestObjective:
    def test_coded_to_config(self):
        obj = paper_objective(seed=0)
        cfg = obj.config_from_coded(np.array([0.0, 0.0, 0.0]))
        assert cfg.clock_hz == pytest.approx((125e3 + 8e6) / 2)
        assert cfg.watchdog_s == pytest.approx(330.0)

    def test_caching(self):
        obj = paper_objective(seed=0, horizon=300.0)
        v1 = obj(np.array([0.0, 0.0, 0.0]))
        n = obj.n_simulations
        v2 = obj(np.array([0.0, 0.0, 0.0]))
        assert v1 == v2
        assert obj.n_simulations == n
        assert obj.cache_size() == 1

    def test_common_random_numbers(self):
        # Two objectives with the same seed agree exactly.
        a = paper_objective(seed=5, horizon=300.0)
        b = paper_objective(seed=5, horizon=300.0)
        x = np.array([0.2, -0.3, 0.1])
        assert a(x) == b(x)

    def test_evaluate_design_matrix(self):
        obj = paper_objective(seed=0, horizon=300.0)
        pts = np.array([[0, 0, 0], [0, 0, -1.0]])
        vals = obj.evaluate_design(pts)
        assert vals.shape == (2,)

    def test_custom_parts_backend_runs_through_the_store(self, tmp_path):
        """Custom hardware is a registered backend: its evaluations take
        the scenario path, so a store shares them with a second run."""
        from repro.backends import _REGISTRY, register_backend
        from repro.store import ResultStore
        from repro.system.components import paper_system
        from repro.system.envelope import EnvelopeSimulator

        built = []

        class CustomParts:
            name = "custom-parts-objective"

            def simulate(self, scenario):
                parts = paper_system(v_init=2.85)  # a pre-charged store
                built.append(parts)
                sim = EnvelopeSimulator(
                    scenario.config,
                    parts=parts,
                    profile=scenario.profile,
                    seed=scenario.seed,
                    record_traces=False,
                )
                return sim.run(scenario.horizon)

        register_backend(CustomParts.name, CustomParts, overwrite=True)
        try:
            points = np.array([[0, 0, 0], [0, 0, -1.0], [0, 0, 0]])
            store = ResultStore(tmp_path / "custom.db")
            first = SimulationObjective(
                seed=2, horizon=600.0, backend=CustomParts.name, store=store
            )
            values = first.evaluate_design(points)
            assert len(built) == 2 == first.n_simulations
            assert len(store) == 2
            default = SimulationObjective(seed=2, horizon=600.0)
            assert values[0] != default.evaluate_design(points[:1])[0]

            second = SimulationObjective(
                seed=2, horizon=600.0, backend=CustomParts.name, store=store
            )
            assert np.array_equal(second.evaluate_design(points), values)
            assert len(built) == 2  # every evaluation came from the store
        finally:
            _REGISTRY.pop(CustomParts.name, None)


class TestExplorerStages:
    def test_design_stage(self):
        explorer = paper_explorer(seed=1, horizon=300.0)
        design = explorer.build_design(n_runs=10, seed=1)
        assert design.n_runs == 10
        assert design.supports_model("quadratic")

    def test_full_outcome_structure(self, outcome):
        assert outcome.design.n_runs == 10
        assert len(outcome.responses) == 10
        assert outcome.model.basis.kind == "quadratic"
        assert len(outcome.optima) == 2
        methods = {e.method for e in outcome.optima}
        assert methods == {"simulated-annealing", "genetic-algorithm"}

    def test_optima_beat_original(self, outcome):
        # The paper's headline: optimised configs greatly improve on the
        # original. With a shorter horizon the factor compresses; require
        # a clear improvement.
        assert outcome.improvement_factor() > 1.3

    def test_optimizers_agree(self, outcome):
        values = [e.simulated_value for e in outcome.optima]
        assert max(values) <= 1.5 * min(values)

    def test_rsm_prediction_close_to_simulation_at_optimum(self, outcome):
        best = outcome.best()
        # Quadratic surrogate of a thresholded response: generous band.
        assert best.rsm_value == pytest.approx(best.simulated_value, rel=0.6)

    def test_summary_text(self, outcome):
        text = outcome.summary()
        assert "original" in text
        assert "improvement factor" in text


class TestReports:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["33", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5

    def test_table_vi_rows(self, outcome):
        rows = table_vi_rows(outcome)
        assert rows[0][0] == "clock (Hz)"
        assert len(rows) == 4
        assert len(rows[0]) == 2 + len(outcome.optima)
        text = render_table_vi(outcome)
        assert "Table VI" in text

    def test_design_space_sweep_shapes(self, outcome):
        sweeps = design_space_sweep(outcome.model, n_points=11)
        assert set(sweeps) == {"clock_hz", "watchdog_s", "tx_interval_s"}
        for entry in sweeps.values():
            assert len(entry["coded"]) == 11
            assert len(entry["rsm"]) == 11
            assert "natural" in entry

    def test_series_to_csv(self):
        csv = series_to_csv({"t": np.array([0.0, 1.0]), "v": np.array([2.0, 3.0])})
        assert csv.splitlines()[0] == "t,v"
        assert csv.splitlines()[2] == "1,3"


class TestCampaign:
    def test_save_load_roundtrip(self, outcome, tmp_path):
        path = tmp_path / "outcome.json"
        save_outcome(outcome, path)
        loaded = load_outcome(path)
        assert loaded.design.n_runs == outcome.design.n_runs
        assert np.allclose(loaded.responses, outcome.responses)
        assert np.allclose(
            loaded.model.coefficients, outcome.model.coefficients
        )
        assert loaded.original_transmissions == outcome.original_transmissions
        assert [e.method for e in loaded.optima] == [
            e.method for e in outcome.optima
        ]
        # The reloaded model predicts identically.
        x = np.array([0.1, -0.5, 0.7])
        assert loaded.model.predict_coded(x) == pytest.approx(
            outcome.model.predict_coded(x)
        )
