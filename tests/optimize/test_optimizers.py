"""Optimiser tests on analytic landscapes."""

import numpy as np
import pytest

from repro.errors import OptimizationError
from repro.optimize.annealing import simulated_annealing
from repro.optimize.baselines import grid_search, random_search
from repro.optimize.genetic import genetic_algorithm
from repro.optimize.multistart import multistart
from repro.optimize.nelder_mead import nelder_mead
from repro.optimize.pattern import pattern_search
from repro.optimize.problem import Problem


def sphere_max(x):
    """Concave paraboloid with maximum 10 at (0.3, -0.2)."""
    return 10.0 - np.sum((x - np.array([0.3, -0.2])) ** 2)


def rastrigin_min(x):
    """Multimodal minimisation landscape, global minimum 0 at origin."""
    return float(10 * len(x) + np.sum(x**2 - 10 * np.cos(2 * np.pi * x)))


def _max_problem():
    return Problem(sphere_max, [(-1, 1), (-1, 1)], maximize=True)


def _multimodal_problem():
    return Problem(rastrigin_min, [(-4, 4)] * 2, maximize=False)


class TestProblem:
    def test_bounds_and_clip(self):
        p = _max_problem()
        assert np.allclose(p.clip([5.0, -5.0]), [1.0, -1.0])

    def test_reflect_stays_in_box(self):
        p = _max_problem()
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-10, 10, 2)
            y = p.reflect(x)
            assert np.all(y >= p.lower - 1e-12)
            assert np.all(y <= p.upper + 1e-12)

    def test_reflect_identity_inside(self):
        p = _max_problem()
        assert np.allclose(p.reflect([0.3, -0.4]), [0.3, -0.4])

    def test_evaluation_counter(self):
        p = _max_problem()
        p.evaluate(np.zeros(2))
        p.score(np.zeros(2))
        assert p.n_evaluations == 2

    def test_validation(self):
        with pytest.raises(OptimizationError):
            Problem(sphere_max, [])
        with pytest.raises(OptimizationError):
            Problem(sphere_max, [(1.0, 0.0)])


class TestSimulatedAnnealing:
    def test_finds_smooth_maximum(self):
        res = simulated_annealing(_max_problem(), n_iterations=3000, seed=1)
        assert res.value == pytest.approx(10.0, abs=0.05)
        assert np.allclose(res.x, [0.3, -0.2], atol=0.15)

    def test_escapes_local_minima(self):
        res = simulated_annealing(_multimodal_problem(), n_iterations=6000, seed=2)
        assert res.value < 2.0  # near-global on Rastrigin

    def test_history_monotone_best(self):
        res = simulated_annealing(_max_problem(), n_iterations=500, seed=3)
        assert all(b >= a - 1e-12 for a, b in zip(res.history, res.history[1:]))

    def test_seed_reproducible(self):
        a = simulated_annealing(_max_problem(), n_iterations=400, seed=5)
        b = simulated_annealing(_max_problem(), n_iterations=400, seed=5)
        assert a.value == b.value and np.allclose(a.x, b.x)

    def test_validation(self):
        with pytest.raises(OptimizationError):
            simulated_annealing(_max_problem(), cooling=1.5)


class TestGeneticAlgorithm:
    def test_finds_smooth_maximum(self):
        res = genetic_algorithm(_max_problem(), seed=1)
        assert res.value == pytest.approx(10.0, abs=0.05)

    def test_multimodal(self):
        res = genetic_algorithm(
            _multimodal_problem(), population_size=60, n_generations=80, seed=4
        )
        assert res.value < 2.0

    def test_elitism_never_loses_best(self):
        res = genetic_algorithm(_max_problem(), seed=2, n_generations=30)
        assert all(b >= a - 1e-12 for a, b in zip(res.history, res.history[1:]))

    def test_evaluation_budget(self):
        res = genetic_algorithm(
            _max_problem(), population_size=10, n_generations=5, seed=0
        )
        assert res.n_evaluations == 10 * 6

    def test_validation(self):
        with pytest.raises(OptimizationError):
            genetic_algorithm(_max_problem(), population_size=2)


class TestLocalMethods:
    def test_pattern_search_converges(self):
        res = pattern_search(_max_problem(), x0=np.zeros(2), seed=0)
        assert res.value == pytest.approx(10.0, abs=1e-3)
        assert res.converged

    def test_nelder_mead_converges(self):
        res = nelder_mead(_max_problem(), x0=np.zeros(2), seed=0)
        assert res.value == pytest.approx(10.0, abs=1e-4)

    def test_nelder_mead_respects_bounds(self):
        p = Problem(lambda x: float(np.sum(x)), [(-1, 1)] * 3, maximize=True)
        res = nelder_mead(p, seed=1)
        assert np.all(res.x <= 1.0 + 1e-9)
        assert res.value == pytest.approx(3.0, abs=0.01)

    def test_multistart_beats_single_on_multimodal(self):
        p = _multimodal_problem()
        res = multistart(p, nelder_mead, n_starts=12, seed=3)
        assert res.value < 3.0
        assert res.method.startswith("multistart")


class TestBaselines:
    def test_grid_search_exact_on_grid_point(self):
        p = Problem(lambda x: -np.sum(x**2), [(-1, 1)] * 2, maximize=True)
        res = grid_search(p, n_levels=5)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.n_evaluations == 25

    def test_random_search_improves_with_budget(self):
        p = _max_problem()
        small = random_search(p, n_evaluations=10, seed=0)
        big = random_search(p, n_evaluations=500, seed=0)
        assert big.value >= small.value

    def test_validation(self):
        with pytest.raises(OptimizationError):
            grid_search(_max_problem(), n_levels=1)
        with pytest.raises(OptimizationError):
            random_search(_max_problem(), n_evaluations=0)


def test_result_summary_format():
    res = nelder_mead(_max_problem(), x0=np.zeros(2), seed=0)
    text = res.summary()
    assert "nelder-mead" in text and "evaluations" in text
