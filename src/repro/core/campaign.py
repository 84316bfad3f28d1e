"""Persistence of exploration outcomes.

Serialises the quantitative content of an
:class:`~repro.core.explorer.ExplorationOutcome` to JSON (design points,
responses, fitted coefficients, optima) so campaigns can be compared
across code versions.  Models are reconstructed on load; simulator state
is not stored (re-run to regenerate traces).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from repro.core.explorer import ExplorationOutcome, OptimaEntry
from repro.doe.design import Design
from repro.documents import check_document, read_json
from repro.errors import DesignError
from repro.optimize.result import OptimizationResult
from repro.rsm.basis import PolynomialBasis
from repro.rsm.diagnostics import FitDiagnostics
from repro.rsm.model import ResponseSurface
from repro.system.config import SystemConfig, paper_parameter_space


#: Version stamp written into every campaign JSON payload.  Bump when the
#: layout changes incompatibly; ``load_outcome`` refuses unknown versions.
CAMPAIGN_SCHEMA = 1


def save_outcome(outcome: ExplorationOutcome, path: Union[str, Path]) -> None:
    """Write an outcome's quantitative content to a JSON file."""
    payload = {
        "schema": CAMPAIGN_SCHEMA,
        "design": {
            "name": outcome.design.name,
            "points": outcome.design.points.tolist(),
        },
        "responses": np.asarray(outcome.responses, dtype=float).tolist(),
        "model": {
            "kind": outcome.model.basis.kind,
            "coefficients": outcome.model.coefficients.tolist(),
        },
        "diagnostics": {
            "r2": outcome.fit_diagnostics.r2,
            "adj_r2": outcome.fit_diagnostics.adj_r2,
            "press_rmse": outcome.fit_diagnostics.press_rmse,
        },
        "original": {
            "config": outcome.original_config.as_vector(),
            "transmissions": outcome.original_transmissions,
        },
        "metric": outcome.metric,
        "optima": [
            {
                "method": e.method,
                "coded": e.coded.tolist(),
                "config": e.config.as_vector(),
                "rsm_value": e.rsm_value,
                "simulated_value": e.simulated_value,
            }
            for e in outcome.optima
        ],
        "n_simulations": outcome.n_simulations,
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_outcome(path: Union[str, Path]) -> ExplorationOutcome:
    """Rebuild an outcome from a :func:`save_outcome` file.

    The returned object carries reconstructed design/model objects and the
    saved statistics; optimizer histories and simulator traces are not
    persisted (their ``optimizer_result`` fields hold summary shells).
    """
    return outcome_from_payload(read_json(path, "campaign file"))


def outcome_from_payload(payload: Mapping) -> ExplorationOutcome:
    """Rebuild an outcome from the parsed JSON of a :func:`save_outcome` file.

    Files written before the ``schema`` field existed load as schema 1
    (their layout is identical); unknown versions, non-objects and
    missing or malformed entries raise :class:`~repro.errors.DesignError`.
    """
    check_document(payload, "campaign", CAMPAIGN_SCHEMA)
    try:
        return _outcome(payload)
    except KeyError as exc:
        raise DesignError(f"campaign payload has no {exc} entry") from exc
    except (TypeError, ValueError) as exc:
        raise DesignError(f"campaign payload has a malformed value: {exc}") from exc


def _outcome(raw: Mapping) -> ExplorationOutcome:
    space = paper_parameter_space()
    points = np.asarray(raw["design"]["points"], dtype=float)
    if points.ndim != 2 or points.shape[1] != space.k:
        raise DesignError(f"saved design has bad shape {points.shape}")
    design = Design(points, space=space, name=raw["design"]["name"])
    responses = np.asarray(raw["responses"], dtype=float)
    basis = PolynomialBasis(space.k, raw["model"]["kind"])
    model = ResponseSurface(
        basis, np.asarray(raw["model"]["coefficients"], dtype=float), space=space
    )
    diag = FitDiagnostics(
        n=design.n_runs,
        p=basis.n_terms,
        r2=raw["diagnostics"]["r2"],
        adj_r2=raw["diagnostics"]["adj_r2"],
        rmse=float("nan"),
        press=float("nan"),
        press_rmse=raw["diagnostics"]["press_rmse"],
        max_leverage=float("nan"),
        vif=None,
    )
    optima = []
    for e in raw["optima"]:
        coded = np.asarray(e["coded"], dtype=float)
        shell = OptimizationResult(
            x=coded,
            value=e["rsm_value"],
            n_evaluations=0,
            method=e["method"],
        )
        optima.append(
            OptimaEntry(
                method=e["method"],
                coded=coded,
                config=SystemConfig.from_vector(e["config"]),
                rsm_value=e["rsm_value"],
                simulated_value=e["simulated_value"],
                optimizer_result=shell,
            )
        )
    return ExplorationOutcome(
        space=space,
        design=design,
        responses=responses,
        model=model,
        fit_diagnostics=diag,
        original_config=SystemConfig.from_vector(raw["original"]["config"]),
        original_transmissions=raw["original"]["transmissions"],
        optima=optima,
        n_simulations=raw.get("n_simulations", 0),
        metric=raw.get("metric", "transmissions"),
    )
