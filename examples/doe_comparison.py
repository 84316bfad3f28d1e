"""DOE comparison: how design choice affects surrogate quality and cost.

Builds five designs over the Table V space (D-optimal 10, D-optimal 14,
face-centred CCD, Box-Behnken, 27-run full factorial), simulates each,
fits the quadratic RSM, and scores every surrogate on a common random
validation grid evaluated with the true simulator.  This quantifies the
paper's section II-B claim that D-optimal designs "explore the design
space efficiently with a minimum number of runs".

Run:  python examples/doe_comparison.py
"""

import numpy as np

from repro.core.paper import paper_objective
from repro.core.report import format_table
from repro.doe.bbd import box_behnken
from repro.doe.ccd import central_composite
from repro.doe.doptimal import d_optimal
from repro.doe.factorial import full_factorial
from repro.doe.criteria import d_efficiency, g_efficiency
from repro.rsm.model import fit_response_surface
from repro.system.config import paper_parameter_space


def main() -> None:
    space = paper_parameter_space()
    objective = paper_objective(seed=1)

    designs = {
        "d-optimal-10": d_optimal(3, 10, seed=1, space=space),
        "d-optimal-14": d_optimal(3, 14, seed=1, space=space),
        "ccd-face (15)": central_composite(3, alpha="face", n_center=1, space=space),
        "box-behnken (13)": box_behnken(3, n_center=1, space=space),
        "factorial-27": full_factorial(3, 3, space=space),
    }

    rng = np.random.default_rng(9)
    probe = rng.uniform(-1.0, 1.0, size=(30, 3))
    truth = objective.evaluate_design(probe)
    spread = float(np.max(truth) - np.min(truth))

    rows = []
    for name, design in designs.items():
        responses = objective.evaluate_design(design.points)
        model = fit_response_surface(design.points, responses)
        pred = model.predict_coded(probe)
        rmse = float(np.sqrt(np.mean((pred - truth) ** 2)))
        rows.append(
            [
                name,
                design.n_runs,
                f"{d_efficiency(design):.3f}",
                f"{g_efficiency(design):.3f}",
                f"{rmse:.1f}",
                f"{rmse / spread * 100:.1f}%",
            ]
        )

    print(
        format_table(
            ["design", "runs", "D-eff", "G-eff", "grid RMSE (tx)", "RMSE/spread"],
            rows,
            title=(
                "Surrogate quality by design "
                f"(validation spread {spread:.0f} transmissions)"
            ),
        )
    )
    print(f"\ntotal simulator calls used: {objective.n_simulations}")
    print(
        "\ntakeaway: the 10-run D-optimal design supports the full quadratic\n"
        "model at a fraction of the factorial's cost -- the paper's rationale\n"
        "for using it (10 simulations instead of 27)."
    )


if __name__ == "__main__":
    main()
