"""Stage-registry conformance: every named design, surrogate and
optimizer is seed-deterministic -- same inputs + seed, identical design
matrix / fit / optimum -- which is the property store-backed study
resumption stands on.  Also covers the shared registry contract
(unknown-name errors list alternatives, no silent overwrites, no empty
names).
"""

import numpy as np
import pytest

from repro.backends import register_backend
from repro.core.objective import get_metric
from repro.core.study import named_study
from repro.doe.registry import design_names, get_design, register_design
from repro.errors import ConfigError
from repro.optimize.problem import Problem
from repro.optimize.registry import (
    get_optimizer,
    optimizer_names,
    register_optimizer,
)
from repro.rsm.registry import get_surrogate, register_surrogate, surrogate_names
from repro.scenario import named_scenario
from repro.system.stochastic import named_family
from repro.system.config import paper_parameter_space

SPACE = paper_parameter_space()


def _fit_data(n=30, seed=9):
    """Enough points for every polynomial basis (cubic has 19 terms)."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, size=(n, SPACE.k))
    responses = rng.normal(size=n)
    return points, responses


def _problem():
    return Problem(
        objective=lambda x: -float(np.sum((x - 0.3) ** 2)),
        bounds=SPACE.bounds_coded(),
        maximize=True,
    )


@pytest.mark.parametrize("name", design_names())
def test_design_generators_are_seed_deterministic(name):
    a = get_design(name)(SPACE, 10, 42)
    b = get_design(name)(SPACE, 10, 42)
    assert a.name == b.name
    assert np.array_equal(a.points, b.points)
    assert a.space is SPACE
    assert np.all(np.abs(a.points) <= 1.0 + 1e-9)


@pytest.mark.parametrize("name", surrogate_names())
def test_surrogate_fitters_are_deterministic(name):
    points, responses = _fit_data()
    a = get_surrogate(name)(points, responses, space=SPACE)
    b = get_surrogate(name)(points, responses, space=SPACE)
    assert np.array_equal(a.coefficients, b.coefficients)
    x = np.array([0.2, -0.4, 0.6])
    assert a.predict_coded(x) == b.predict_coded(x)


@pytest.mark.parametrize("name", optimizer_names())
def test_optimizers_are_seed_deterministic(name):
    a = get_optimizer(name)(_problem(), seed=42)
    b = get_optimizer(name)(_problem(), seed=42)
    assert np.array_equal(a.x, b.x)
    assert a.value == b.value
    assert a.n_evaluations == b.n_evaluations
    # Sanity: every method lands near the true optimum of this easy bowl.
    assert a.value > -0.3


@pytest.mark.parametrize(
    ("getter", "known"),
    [
        (get_design, "d-optimal"),
        (get_surrogate, "quadratic"),
        (get_optimizer, "simulated-annealing"),
        # The named libraries are registries too, with the same texts.
        pytest.param(
            named_family,
            "^unknown scenario family 'definitely-not-registered' "
            "\\(known: factory-floor, hvac, intermittent, vehicle, "
            "worst-case-drift\\)$",
            id="named_family",
        ),
        pytest.param(
            named_study,
            "^unknown study 'definitely-not-registered' \\(known: paper\\)$",
            id="named_study",
        ),
        pytest.param(
            get_metric,
            "^unknown metric 'definitely-not-registered' \\(known: "
            "final-voltage, transmissions, transmissions-per-hour\\)$",
            id="get_metric",
        ),
        pytest.param(
            named_scenario,
            "^unknown scenario 'definitely-not-registered' \\(known: bursty, "
            "cold-start, long-horizon, low-vibration, paper; stochastic "
            "families: factory-floor, hvac, intermittent, vehicle, "
            "worst-case-drift\\)$",
            id="named_scenario",
        ),
    ],
)
def test_unknown_name_lists_alternatives(getter, known):
    with pytest.raises(ConfigError, match=known):
        getter("definitely-not-registered")


@pytest.mark.parametrize(
    ("register", "taken"),
    [
        (register_design, "d-optimal"),
        (register_surrogate, "quadratic"),
        (register_optimizer, "simulated-annealing"),
    ],
)
def test_no_silent_overwrite(register, taken):
    with pytest.raises(ConfigError, match="already registered"):
        register(taken, lambda *a, **k: None)


@pytest.mark.parametrize(
    ("register", "kind"),
    [
        (register_backend, "backend"),
        (register_design, "design"),
        (register_surrogate, "surrogate"),
        (register_optimizer, "optimizer"),
    ],
)
def test_empty_name_rejected(register, kind):
    with pytest.raises(ConfigError, match=f"^{kind} name must be non-empty$"):
        register("", lambda *a, **k: None)


def test_custom_registration_and_overwrite():
    def custom(space, n_runs, seed, **options):
        from repro.doe.registry import get_design as gd

        return gd("lhs")(space, n_runs, seed, **options)

    register_design("custom-lhs", custom, overwrite=True)
    try:
        assert "custom-lhs" in design_names()
        d = get_design("custom-lhs")(SPACE, 8, 1)
        assert d.n_runs == 8
        register_design("custom-lhs", custom, overwrite=True)  # allowed
    finally:
        from repro.doe import registry

        registry._REGISTRY.pop("custom-lhs", None)
