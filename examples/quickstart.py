"""Quickstart: simulate the node, fit a response surface, find the optimum.

Runs the complete paper workflow in miniature (~10 seconds):

1. simulate the original design for one hour (one scenario, one ``run``),
2. build a 10-run D-optimal design and simulate it,
3. fit the quadratic response surface (eq. 9),
4. maximise it with Simulated Annealing and a Genetic Algorithm,
5. verify the optima with full simulations (Table VI).

Run:  python examples/quickstart.py
"""

import repro
from repro.core.paper import paper_explorer
from repro.core.report import render_table_vi


def main() -> None:
    print("=== one simulation of the original design ===")
    result = repro.run(repro.Scenario(seed=1))
    print(result.summary())

    print("\n=== full RSM-based design space exploration ===")
    explorer = paper_explorer(seed=1)
    outcome = explorer.run(n_runs=10, seed=1)
    print(outcome.summary())

    print()
    print(render_table_vi(outcome))

    print("\nfitted response surface (coded variables, eq. 9 form):")
    print("  y =", outcome.model.to_string(["x1", "x2", "x3"]))

    best = outcome.best()
    print(
        f"\nbest configuration found: {best.config.describe()}\n"
        f" -> {best.simulated_value:.0f} transmissions/hour "
        f"({outcome.improvement_factor():.2f}x the original design)"
    )


if __name__ == "__main__":
    main()
