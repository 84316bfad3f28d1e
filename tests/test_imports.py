"""What importing the package costs: heavy optional modules stay lazy.

SciPy serves one call (the ANOVA table's F-test p-value) that no
pipeline reaches, yet importing it costs about half a second and ~60 MB.
A fresh interpreter pins that the CLI, scenario, study and service
entry points do not load it.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def test_entry_points_do_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys\n"
        "import repro.cli, repro.scenario, repro.core.study, repro.service\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

