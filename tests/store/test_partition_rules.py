"""Each rule of the split lives in one place.

- **One seed rule**: a batch, a campaign journal and the partition
  slices of one list give every ``seed=None`` entry the same seed, so
  a scenario's content key never depends on how its list was run.
- **One split path**: ``campaign run --partition I --partitions N`` and
  a service job carrying ``{"partition": {"index": I, "of": N}}`` make
  the same two calls, so they journal identical partition campaigns.
"""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.batch import BatchRunner
from repro.scenario import PartsSpec, Scenario
from repro.service import JobQueue
from repro.service.worker import execute_job
from repro.store import Campaign, ResultStore, partition_scenarios
from repro.system.config import SystemConfig
from repro.system.stochastic import named_family


def test_batch_campaign_and_partitions_share_one_seed_rule(tmp_path):
    scenarios = [
        Scenario(
            config=SystemConfig(tx_interval_s=1.0 + 0.25 * i),
            parts=PartsSpec(v_init=2.85),
            horizon=60.0,
            seed=None if i % 3 else 100 + i,
        )
        for i in range(7)
    ]
    batch = [s.cache_key() for s in BatchRunner(seed=11).resolve_seeds(scenarios)]
    store = ResultStore(tmp_path / "seeds.db")
    Campaign.create(store, "seeds", scenarios, seed=11)
    journal = [key for key, _ in store.campaign_rows("seeds")]
    sliced = [
        s.cache_key()
        for group in partition_scenarios(scenarios, 3, seed=11)
        for s in group
    ]
    assert batch == journal == sliced
    # The None entries really took their seeds from the base seed.
    other = BatchRunner(seed=12).resolve_seeds(scenarios)
    assert batch != [s.cache_key() for s in other]


@pytest.mark.parametrize("index", [1, 2])
def test_cli_and_service_partitions_journal_identically(tmp_path, capsys, index):
    family = replace(
        named_family("factory-floor"), horizon=60.0, backend="envelope"
    )
    manifest = family.manifest(n=2, seed=3)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    name = f"px@p{index}of2"

    cli = tmp_path / "cli.db"
    argv = ["campaign", "run", str(path), "--store", str(cli), "--name", "px"]
    assert main(argv + ["--partitions", "2", "--partition", str(index)]) == 0
    assert f"partition {index}/2 of 'px'" in capsys.readouterr().out

    served = ResultStore(tmp_path / "service.db")
    queue = JobQueue(served)
    payload = dict(manifest, partition={"index": index, "of": 2})
    job = queue.submit(payload, kind="campaign", name="px")
    assert job.name == name
    execute_job(served, queue.claim("w"))

    cli_store = ResultStore(cli)
    assert cli_store.campaign_names() == [name]
    assert cli_store.campaign_rows(name) == served.campaign_rows(name)
    assert cli_store.get_campaign(name).source == f"partition {index}/2 of px"
    assert Campaign(cli_store, name).status().complete
