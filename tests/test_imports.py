"""What importing the package costs: heavy optional modules stay lazy.

SciPy serves one call (the ANOVA table's F-test p-value) that no
pipeline reaches, yet importing it costs about half a second and ~60 MB.
A fresh interpreter pins that the CLI, scenario, study and service
entry points do not load it, and that the simulation and campaign
entry points load neither the detailed backend's solver nor the DoE,
RSM and optimiser stacks.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def _loaded(imports: str, package: str) -> list:
    """Sorted ``package`` modules a fresh interpreter holds after ``imports``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys\n"
        f"import {imports}\n"
        f"print(*sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_entry_points_do_not_import_scipy():
    imports = "repro.cli, repro.scenario, repro.core.study, repro.service"
    assert _loaded(imports, "scipy") == []


def test_simulation_path_loads_no_solver_or_methodology_stack():
    imports = "repro.scenario, repro.backends, repro.core.batch, repro.store"
    loaded = set(_loaded(imports, "repro"))
    assert "repro.scenario" in loaded
    heavy = {
        "repro.analog.mna",
        "repro.analog.transient",
        "repro.sim.kernel",
        "repro.rsm.anova",
        "repro.doe.doptimal",
        "repro.optimize.genetic",
    }
    assert loaded & heavy == set()
