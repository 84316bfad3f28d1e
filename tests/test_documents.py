"""The JSON document contract (:mod:`repro.documents`).

Every document file loader refuses an unreadable path and invalid JSON
with a :class:`~repro.errors.DesignError` naming the document, never a
raw ``OSError`` or ``JSONDecodeError``.
"""

import pytest

from repro.core.campaign import load_outcome
from repro.core.study import StudySpec
from repro.errors import DesignError
from repro.scenario import Scenario
from repro.system.result import SystemResult


@pytest.mark.parametrize(
    "load, what",
    [
        (Scenario.load, "scenario file"),
        (SystemResult.load, "result file"),
        (StudySpec.load, "study file"),
        (load_outcome, "campaign file"),
    ],
    ids=["scenario", "result", "study", "outcome"],
)
def test_load_refuses_missing_and_invalid_files(tmp_path, load, what):
    with pytest.raises(DesignError, match=f"cannot read {what}: "):
        load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DesignError, match=f"{what} is not valid JSON: "):
        load(bad)
