"""Persistent content-addressed result storage and resumable campaigns.

The simulation stack computes; this package remembers.  Two pieces:

- :class:`ResultStore` -- a stdlib-SQLite, content-addressed map from
  ``Scenario.cache_key()`` to the scenario's full JSON-round-trippable
  :class:`~repro.system.result.SystemResult` payload plus provenance
  (backend, library version, wall time, timestamp).  Plugged into a
  :class:`~repro.core.batch.BatchRunner` it becomes the second cache
  tier (memory LRU -> disk store -> simulate, write-through), shared by
  every process that opens the same file.
- :class:`Campaign` -- a named, journaled scenario list executed against
  a store in crash-safe chunks.  ``run()``/``resume()`` only simulate
  what the store does not already hold, so large studies survive kills,
  reboots and code iterations without re-simulating finished work.

Quickstart::

    from repro import BatchRunner, ResultStore, Campaign, named_family

    store = ResultStore("results.db")
    family = named_family("factory-floor")
    camp = Campaign.create(store, "floor-study", family.expand(n=40, seed=0))
    camp.run(jobs=4)          # kill it halfway...
    camp.resume(jobs=4)       # ...and only the missing scenarios run

    rows = store.query(family="factory-floor", min_transmissions=100)

The store owns its tables: every write goes through one transaction
helper, and journals are read and written only through its
``put_campaign``/``campaign_rows``/``put_study``/... methods.

Scaling out: a :class:`ShardedResultStore` spreads the result rows over
N per-shard SQLite files behind the same API (N independent writers
instead of one); it only routes, as a plain store is a one-shard store.
:func:`merge_stores`/:func:`sync_stores` fold stores
into each other with byte-identity checks, and
:func:`partition_scenarios` cuts a scenario list into disjoint slices
that separate hosts run, as campaigns named :func:`partition_name`,
into their own stores (:mod:`repro.coord` drives that across ``serve``
workers).  On one machine, ``run(jobs=N)`` shards
each chunk over N workers into one store::

    store = ShardedResultStore("results.d", shards=4)
    camp = Campaign.create(store, "floor-study", family.expand(n=40, seed=0))
    camp.run(jobs=4)          # 4 workers, one sharded store
"""

from repro.store.db import (
    RESULT_COLUMNS,
    STORE_SCHEMA,
    ResultStore,
    StoredCampaign,
    StoredResult,
    StoredStudy,
    StoreStats,
    scenario_family,
    shard_index,
)
from repro.store.campaign import (
    Campaign,
    CampaignGroup,
    CampaignStatus,
    campaign_names,
    campaign_statuses,
    group_campaign_statuses,
    partition_name,
    partition_scenarios,
    split_partition_name,
)
from repro.store.merge import (
    MergeReport,
    import_raw_rows,
    merge_stores,
    sync_stores,
)
from repro.store.shard import (
    DEFAULT_SHARDS,
    ShardedResultStore,
    open_store,
)

__all__ = [
    "DEFAULT_SHARDS",
    "RESULT_COLUMNS",
    "STORE_SCHEMA",
    "MergeReport",
    "ResultStore",
    "ShardedResultStore",
    "StoredCampaign",
    "StoredResult",
    "StoredStudy",
    "StoreStats",
    "Campaign",
    "CampaignGroup",
    "CampaignStatus",
    "campaign_names",
    "campaign_statuses",
    "group_campaign_statuses",
    "import_raw_rows",
    "merge_stores",
    "open_store",
    "partition_name",
    "partition_scenarios",
    "scenario_family",
    "shard_index",
    "split_partition_name",
    "sync_stores",
]
